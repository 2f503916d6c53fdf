// Experiment E22/E24 — enumeration scaling: how fast can the computation
// space be explored, how far does the parallel frontier BFS carry it, and
// what does the columnar store pay per class?  Sweeps processes ×
// message-pool size × worker threads over seeded random systems, asserting
// along the way that every thread count reproduces the sequential space
// byte-for-byte (class count, class order, projection classes) — the
// determinism contract of ComputationSpace::Enumerate.  Each run reports
// the columnar bytes/class and the seed AoS layout's equivalent footprint
// (ComputationSpace::MemoryUsage()); rows carry `bytes_space` in the JSON.
//
//   bench_space_scaling [--preset=smoke|default|big|huge] [--threads=1,2,4]
//                       [--json=BENCH_space_scaling.json]
//
// smoke   tiny spaces for CI smoke jobs (~1s total)
// default mid-size spaces incl. a ~31k-class system
// big     adds a ~69k-class and a ~300k-class system
// huge    adds a ~525k-class and a ~8M-class system (~20s/thread-count on
//         one core; the E24 memory-scaling acceptance run)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/reporter.h"
#include "bench/table.h"
#include "core/random_system.h"
#include "core/space.h"

using namespace hpl;

namespace {

struct Config {
  int processes;
  int messages;
  int depth;
};

// Compares the spaces produced by two thread counts; exits on divergence.
void RequireIdentical(const ComputationSpace& a, const ComputationSpace& b,
                      int threads) {
  if (a.size() != b.size()) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: %zu classes at 1 thread vs %zu at %d\n",
                 a.size(), b.size(), threads);
    std::exit(1);
  }
  for (std::size_t id = 0; id < a.size(); ++id) {
    if (!(a.At(id) == b.At(id))) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: class %zu differs at %d threads\n",
                   id, threads);
      std::exit(1);
    }
    for (ProcessId p = 0; p < a.num_processes(); ++p) {
      if (a.ProjectionClass(id, p) != b.ProjectionClass(id, p)) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: projection class of %zu on p%d "
                     "differs at %d threads\n",
                     id, p, threads);
        std::exit(1);
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto [preset, threads, json_path] =
      bench::ParseBenchArgs(argc, argv, "default", {1, 2, 4});
  if (argc > 1)
    return bench::BenchUsage(argv[0], "[--preset=smoke|default|big|huge] "
                                      "[--threads=1,2,4]");

  std::vector<Config> configs;
  if (preset == "smoke") {
    configs = {{3, 4, 32}, {4, 5, 48}};
  } else if (preset == "default") {
    configs = {{4, 5, 48}, {4, 6, 56}, {5, 6, 64}};
  } else if (preset == "big") {
    configs = {{4, 6, 56}, {5, 6, 64}, {4, 7, 64}};
  } else if (preset == "huge") {
    configs = {{4, 7, 64}, {5, 8, 64}, {4, 9, 64}};
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  if (threads.front() != 1) threads.insert(threads.begin(), 1);

  std::printf("E22: computation-space enumeration scaling (preset=%s)\n\n",
              preset.c_str());
  bench::JsonReporter reporter("space_scaling");
  bench::Table table({"system", "classes", "threads", "wall ms",
                      "classes/sec", "speedup", "B/class", "AoS x",
                      "identical?"});

  for (const Config& config : configs) {
    RandomSystemOptions options;
    options.num_processes = config.processes;
    options.num_messages = config.messages;
    options.internal_events = 1;
    options.seed = 42;
    RandomSystem system(options);

    ComputationSpace baseline =
        ComputationSpace::Enumerate(system, {.max_depth = config.depth,
                                             .num_threads = 1});
    std::int64_t baseline_ns = 0;
    for (int t : threads) {
      bench::WallTimer timer;
      ComputationSpace space =
          ComputationSpace::Enumerate(system, {.max_depth = config.depth,
                                               .num_threads = t});
      std::int64_t wall_ns = timer.ElapsedNs();
      // Sub-second rows re-measure once and keep the better wall: the CI
      // regression gate compares these rows, and short timings are the
      // noise-prone ones.
      if (wall_ns < 1'000'000'000) {
        bench::WallTimer retimer;
        ComputationSpace rerun =
            ComputationSpace::Enumerate(system, {.max_depth = config.depth,
                                                 .num_threads = t});
        wall_ns = std::min(wall_ns, retimer.ElapsedNs());
      }
      if (t == 1)
        baseline_ns = wall_ns;
      else
        RequireIdentical(baseline, space, t);

      const double per_sec = bench::ClassesPerSec(space.size(), wall_ns);
      const double speedup =
          wall_ns > 0 ? static_cast<double>(baseline_ns) /
                            static_cast<double>(wall_ns)
                      : 0.0;
      const ComputationSpace::MemoryStats memory = space.MemoryUsage();
      const double aos_ratio =
          memory.bytes_total > 0
              ? static_cast<double>(memory.bytes_aos_equivalent) /
                    static_cast<double>(memory.bytes_total)
              : 0.0;
      table.AddRow({system.Name(), std::to_string(space.size()),
                    std::to_string(t),
                    bench::Fmt(static_cast<double>(wall_ns) / 1e6, 1),
                    bench::Fmt(per_sec, 0), bench::Fmt(speedup, 2),
                    bench::Fmt(memory.BytesPerClass(), 1),
                    bench::Fmt(aos_ratio, 1),
                    t == 1 ? "baseline" : "yes"});

      bench::JsonResult result;
      result.name = "enumerate/" + system.Name();
      result.params = {{"processes", static_cast<double>(config.processes)},
                       {"messages", static_cast<double>(config.messages)},
                       {"depth", static_cast<double>(config.depth)},
                       {"threads", static_cast<double>(t)},
                       {"bytes_per_class", memory.BytesPerClass()},
                       {"bytes_aos_equivalent", static_cast<double>(
                                                    memory.bytes_aos_equivalent)}};
      result.wall_ns = wall_ns;
      result.space_classes = space.size();
      result.classes_per_sec = per_sec;
      result.bytes_space = memory.bytes_total;
      reporter.Add(std::move(result));
    }
  }
  table.Print();
  std::printf(
      "\nexpected: identical spaces at every thread count; speedup grows\n"
      "with space size once per-level frontiers are wide enough to share;\n"
      "B/class stays flat as spaces grow and 'AoS x' (the seed\n"
      "array-of-structs layout's footprint over the columnar store's) stays\n"
      ">= 5 at every configuration.\n");

  if (json_path.has_value() && !reporter.WriteFile(*json_path)) return 1;
  return 0;
}
