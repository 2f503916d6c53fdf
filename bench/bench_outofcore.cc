// Experiment E30 — out-of-core segmented enumeration: what does spilling
// cold segments behind the BFS frontier cost, and how tightly does the
// residency budget bound memory?
//
//   * resident vs budgeted enumeration of the same random system: wall
//     clock, classes/sec, and the resident/mapped/spilled byte split from
//     MemoryUsage(), plus the store's lifetime spill-write and fault-in
//     counters.  The budgeted run goes FIRST so its /proc VmHWM reading
//     (peak_rss_mb) is not polluted by the resident build's high-water
//     mark,
//   * a knowledge sweep (compiled kernels, the streaming path) over the
//     budgeted space, with the verdict checked byte-identical to the
//     resident space's — the speed is only worth reporting if the answer
//     is the same,
//   * `--preset=huge` is the nightly configuration: the largest space
//     whose build fits the CI RSS ceiling, with a budget far below its
//     columnar footprint so most segments live on disk.  It skips the
//     resident reference (pointless at this size) and the CI job wraps
//     it in `/usr/bin/time -v`, asserting max RSS < 3.5 GiB.
//
//   bench_outofcore [--preset=smoke|default|big|huge] [--threads=1,4]
//                   [--json=PATH]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/reporter.h"
#include "bench/table.h"
#include "core/knowledge.h"
#include "core/predicate.h"
#include "core/random_system.h"
#include "core/space.h"

using namespace hpl;

namespace {

struct Config {
  int processes;
  int messages;
  int depth;
  unsigned segment_shift;
  std::uint64_t budget_kb;
  bool differential;  // also build the resident reference and compare
};

std::string SystemLabel(const Config& config) {
  return "random(n=" + std::to_string(config.processes) +
         ",m=" + std::to_string(config.messages) + ",seed=42)";
}

RandomSystem MakeSystem(const Config& config) {
  RandomSystemOptions options;
  options.num_processes = config.processes;
  options.num_messages = config.messages;
  options.internal_events = 1;
  options.seed = 42;
  return RandomSystem(options);
}

EnumerationLimits LimitsFor(const Config& config, int threads,
                            bool budgeted) {
  EnumerationLimits limits;
  limits.max_depth = config.depth;
  limits.allow_truncation = true;
  limits.num_threads = threads;
  if (budgeted) {
    limits.segments.segment_shift = config.segment_shift;
    limits.segments.residency_budget_bytes = config.budget_kb << 10;
  }
  return limits;
}

// Process-lifetime peak RSS in bytes (VmHWM).  Monotone: meaningful for
// the FIRST big allocation phase of the run, which is why the budgeted
// enumeration is measured before the resident reference is built.
std::uint64_t PeakRssBytes() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
#endif
  return 0;
}

double Mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace

int main(int argc, char** argv) {
  auto [preset, threads, json_path] =
      bench::ParseBenchArgs(argc, argv, "smoke", {1, 4});
  if (argc > 1)
    return bench::BenchUsage(argv[0], "[--preset=smoke|default|big|huge] "
                                      "[--threads=1,4]");

  // Budgets are sized well below each config's columnar footprint so the
  // spill path genuinely runs; shifts scale with the space so segment
  // count stays in the hundreds, not millions.
  std::vector<Config> configs;
  if (preset == "smoke") {
    configs = {{4, 5, 14, /*shift=*/8, /*budget_kb=*/64, true}};
  } else if (preset == "default") {
    configs = {{4, 5, 14, 8, 64, true}, {4, 6, 56, 10, 512, true}};
  } else if (preset == "big") {
    configs = {{4, 6, 56, 10, 512, true}, {4, 7, 64, 12, 4096, true}};
  } else if (preset == "huge") {
    // The nightly config: the 7.96M-class space whose columns (~643 MB)
    // are forced through a 256 MiB residency budget — budgeted only, no
    // resident reference, so /usr/bin/time -v measures the out-of-core
    // path alone.  Per-level BFS transients (candidate arenas, dedup
    // maps) stay resident and dominate past ~10M classes; the 100M-class
    // target additionally needs block-wise level expansion (ROADMAP
    // item 1 follow-up).
    configs = {{4, 9, 64, 16, 256 * 1024, false}};
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }

  std::printf("E30: out-of-core segmented enumeration (preset=%s)\n\n",
              preset.c_str());
  bench::JsonReporter reporter("outofcore");
  bool verdicts_identical = true;

  bench::Table table({"system", "threads", "mode", "classes", "wall ms",
                      "Mclasses/s", "resident MB", "spilled MB", "faults",
                      "writes"});
  for (const Config& config : configs) {
    const RandomSystem system = MakeSystem(config);
    const std::string label = SystemLabel(config);

    for (const int thread_count : threads) {
      // Budgeted first: its VmHWM reading reflects the out-of-core path.
      bench::WallTimer budget_timer;
      const ComputationSpace budgeted = ComputationSpace::Enumerate(
          system, LimitsFor(config, thread_count, /*budgeted=*/true));
      const std::int64_t budget_ns = budget_timer.ElapsedNs();
      const auto budget_mem = budgeted.MemoryUsage();
      const auto budget_stats = budgeted.SegmentStats();
      const std::uint64_t peak_rss = PeakRssBytes();

      {
        bench::JsonResult result;
        result.name = "enumerate/budgeted(" + label + ")";
        result.params = {
            {"depth", static_cast<double>(config.depth)},
            {"threads", static_cast<double>(thread_count)},
            {"segment_shift", static_cast<double>(config.segment_shift)},
            {"budget_kb", static_cast<double>(config.budget_kb)},
            {"segments", static_cast<double>(budget_stats.segments)},
            {"spill_faults", static_cast<double>(budget_stats.spill_faults)},
            {"spill_writes", static_cast<double>(budget_stats.spill_writes)},
            {"resident_mb", Mb(budget_mem.bytes_resident)},
            {"spilled_mb", Mb(budget_mem.bytes_spilled)},
            {"peak_rss_mb", Mb(peak_rss)},
        };
        result.wall_ns = budget_ns;
        result.space_classes = budgeted.size();
        result.classes_per_sec = bench::ClassesPerSec(budgeted.size(),
                                                      budget_ns);
        result.bytes_space = budget_mem.bytes_total;
        reporter.Add(result);
      }
      table.AddRow({label, std::to_string(thread_count), "budgeted",
                 std::to_string(budgeted.size()),
                 bench::Fmt(budget_ns / 1e6, 1),
                 bench::Fmt(
                     bench::ClassesPerSec(budgeted.size(), budget_ns) / 1e6,
                     2),
                 bench::Fmt(Mb(budget_mem.bytes_resident), 1),
                 bench::Fmt(Mb(budget_mem.bytes_spilled), 1),
                 std::to_string(budget_stats.spill_faults),
                 std::to_string(budget_stats.spill_writes)});

      if (!config.differential) continue;

      bench::WallTimer resident_timer;
      const ComputationSpace resident = ComputationSpace::Enumerate(
          system, LimitsFor(config, thread_count, /*budgeted=*/false));
      const std::int64_t resident_ns = resident_timer.ElapsedNs();
      const auto resident_mem = resident.MemoryUsage();

      {
        bench::JsonResult result;
        result.name = "enumerate/resident(" + label + ")";
        result.params = {
            {"depth", static_cast<double>(config.depth)},
            {"threads", static_cast<double>(thread_count)},
            {"spill_overhead",
             resident_ns > 0 ? static_cast<double>(budget_ns) /
                                   static_cast<double>(resident_ns)
                             : 0.0},
        };
        result.wall_ns = resident_ns;
        result.space_classes = resident.size();
        result.classes_per_sec = bench::ClassesPerSec(resident.size(),
                                                      resident_ns);
        result.bytes_space = resident_mem.bytes_total;
        reporter.Add(result);
      }
      table.AddRow({label, std::to_string(thread_count), "resident",
                 std::to_string(resident.size()),
                 bench::Fmt(resident_ns / 1e6, 1),
                 bench::Fmt(
                     bench::ClassesPerSec(resident.size(), resident_ns) / 1e6,
                     2),
                 bench::Fmt(Mb(resident_mem.bytes_resident), 1),
                 "0.0", "0", "0"});

      // The streaming sweep: compiled kernels over the budgeted space must
      // produce the resident space's verdict, byte for byte.
      const FormulaPtr formula = Formula::Not(Formula::Knows(
          ProcessSet::Of(1),
          Formula::Not(Formula::Atom(Predicate::Sent(0)))));
      KnowledgeOptions sweep_options;
      sweep_options.num_threads = thread_count;
      sweep_options.compiled_kernels = true;

      KnowledgeEvaluator budget_eval(budgeted, sweep_options);
      bench::WallTimer sweep_timer;
      const auto budget_verdict = budget_eval.SatisfyingSet(formula);
      const std::int64_t sweep_ns = sweep_timer.ElapsedNs();

      KnowledgeEvaluator resident_eval(resident, sweep_options);
      const bool identical =
          budget_verdict == resident_eval.SatisfyingSet(formula);
      verdicts_identical = verdicts_identical && identical;

      bench::JsonResult sweep;
      sweep.name = "sweep/kernels-budgeted(" + label + ")";
      sweep.params = {
          {"threads", static_cast<double>(thread_count)},
          {"satisfying", static_cast<double>(budget_verdict.size())},
          {"identical", identical ? 1.0 : 0.0},
      };
      sweep.wall_ns = sweep_ns;
      sweep.space_classes = budgeted.size();
      sweep.classes_per_sec = bench::ClassesPerSec(budgeted.size(), sweep_ns);
      reporter.Add(sweep);
    }
  }
  table.Print();

  if (!verdicts_identical) {
    std::fprintf(stderr,
                 "FAIL: budgeted sweep verdict differs from resident\n");
    return 1;
  }
  if (json_path && !reporter.WriteFile(*json_path)) return 1;
  return 0;
}
