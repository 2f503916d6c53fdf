// Experiment E26 — the snapshot-backed query service: what does `hpl_cli
// serve` buy over one-shot `check` invocations?  Three measurements on one
// token-bus space:
//
//   * snapshot save/load wall time vs re-enumerating the space,
//   * cold vs warm query throughput — cold pays a fresh KnowledgeEvaluator
//     (empty memo planes) per query, warm reuses one evaluator across >=100
//     queries the way `serve` does,
//   * fused multi-formula sweeps (SatisfyingSets over a batch) vs the same
//     batch as sequential per-formula passes.
#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "bench/reporter.h"
#include "bench/table.h"
#include "core/knowledge.h"
#include "core/serialization.h"
#include "core/random_system.h"

using namespace hpl;

namespace {

// The serve-style query mix: modal depth 1 and 2, shared subformulas, a
// negative existential — enough variety that warm reuse is not a single
// memo-plane hit.
std::vector<FormulaPtr> QuerySet() {
  const FormulaPtr t0 = Formula::Atom(Predicate::Sent(0));
  const FormulaPtr t1 = Formula::Atom(Predicate::Received(0));
  const ProcessSet pair = ProcessSet::Of(0).Union(ProcessSet::Of(1));
  const ProcessSet trio = pair.Union(ProcessSet::Of(2));
  return {
      Formula::Knows(ProcessSet::Of(0), t0),
      Formula::Knows(ProcessSet::Of(1), t0),
      Formula::Knows(pair, t1),
      Formula::Everyone(pair, t0),
      Formula::Everyone(trio, Formula::Or(t0, t1)),
      Formula::Common(pair, t0),
      Formula::Possible(ProcessSet::Of(2), Formula::Not(t0)),
      Formula::Knows(ProcessSet::Of(3), Formula::Implies(t0, Formula::Not(t1))),
  };
}

}  // namespace

int main(int argc, char** argv) {
  auto json_path = bench::ParseBenchArgs(argc, argv).json_path;
  bench::JsonReporter reporter("query_service");
  std::printf("E26: snapshot-backed query service (serve)\n\n");

  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  EnumerationLimits limits;
  limits.max_depth = 40;
  bench::WallTimer enum_timer;
  const auto space = ComputationSpace::Enumerate(system, limits);
  const std::int64_t enumerate_ns = enum_timer.ElapsedNs();

  // --- Snapshot: save, then load, vs the enumeration it replaces. ---
  std::ostringstream sink;
  bench::WallTimer save_timer;
  SaveSpaceSnapshot(space, sink);
  const std::int64_t save_ns = save_timer.ElapsedNs();
  const std::string bytes = sink.str();

  std::istringstream source(bytes);
  bench::WallTimer load_timer;
  const auto loaded = LoadSpaceSnapshot(source);
  const std::int64_t load_ns = load_timer.ElapsedNs();
  const double load_speedup =
      load_ns > 0 ? static_cast<double>(enumerate_ns) /
                        static_cast<double>(load_ns)
                  : 0.0;

  bench::Table snapshot_table(
      {"stage", "wall (ms)", "classes", "bytes", "vs enumerate"});
  snapshot_table.AddRow({"enumerate", bench::Fmt(enumerate_ns / 1e6),
                      std::to_string(space.size()), "-", "1.0x"});
  snapshot_table.AddRow({"save", bench::Fmt(save_ns / 1e6), std::to_string(space.size()),
                      std::to_string(bytes.size()), "-"});
  snapshot_table.AddRow({"load", bench::Fmt(load_ns / 1e6),
                      std::to_string(loaded.size()), "-",
                      bench::Fmt(load_speedup) + "x"});
  snapshot_table.Print();

  reporter.Add({.name = "snapshot/save(random(n=4,m=5,seed=42))",
                .params = {{"depth", 40},
                           {"snapshot_bytes",
                            static_cast<double>(bytes.size())}},
                .wall_ns = save_ns,
                .space_classes = space.size(),
                .classes_per_sec = bench::ClassesPerSec(space.size(), save_ns),
                .bytes_space = space.MemoryUsage().bytes_total});
  reporter.Add({.name = "snapshot/load(random(n=4,m=5,seed=42))",
                .params = {{"depth", 40},
                           {"enumerate_ns",
                            static_cast<double>(enumerate_ns)},
                           {"load_speedup", load_speedup}},
                .wall_ns = load_ns,
                .space_classes = loaded.size(),
                .classes_per_sec = bench::ClassesPerSec(loaded.size(), load_ns),
                .bytes_space = loaded.MemoryUsage().bytes_total});

  // --- Cold vs warm throughput over the loaded space (serve's substrate).
  // Cold: every query pays a fresh evaluator, exactly like a one-shot
  // `hpl_cli check`.  Warm: one evaluator answers the whole stream, so
  // repeat formulas hit completed memo planes.
  const auto queries = QuerySet();
  const int kRounds = 16;  // 16 * 8 = 128 queries >= the 100-query bar.
  const std::size_t total = queries.size() * kRounds;

  bench::WallTimer cold_timer;
  std::size_t cold_satisfying = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const FormulaPtr& f : queries) {
      KnowledgeEvaluator evaluator(loaded, {});
      cold_satisfying += evaluator.SatisfyingSet(f).size();
    }
  }
  const std::int64_t cold_ns = cold_timer.ElapsedNs();

  KnowledgeEvaluator warm_evaluator(loaded, {});
  bench::WallTimer warm_timer;
  std::size_t warm_satisfying = 0;
  for (int round = 0; round < kRounds; ++round)
    for (const FormulaPtr& f : queries)
      warm_satisfying += warm_evaluator.SatisfyingSet(f).size();
  const std::int64_t warm_ns = warm_timer.ElapsedNs();
  if (warm_satisfying != cold_satisfying) {
    std::fprintf(stderr, "FATAL: warm/cold verdicts disagree (%zu vs %zu)\n",
                 warm_satisfying, cold_satisfying);
    return 1;
  }

  const double cold_qps = bench::ClassesPerSec(total, cold_ns);
  const double warm_qps = bench::ClassesPerSec(total, warm_ns);
  const double warm_cold_ratio = cold_qps > 0 ? warm_qps / cold_qps : 0.0;

  bench::Table query_table(
      {"mode", "queries", "wall (ms)", "queries/sec", "warm/cold"});
  query_table.AddRow({"cold", std::to_string(total), bench::Fmt(cold_ns / 1e6),
                   bench::Fmt(cold_qps), "1.0x"});
  query_table.AddRow({"warm", std::to_string(total), bench::Fmt(warm_ns / 1e6),
                   bench::Fmt(warm_qps),
                   bench::Fmt(warm_cold_ratio) + "x"});
  query_table.Print();

  reporter.Add({.name = "query/cold(random(n=4,m=5,seed=42))",
                .params = {{"queries", static_cast<double>(total)},
                           {"queries_per_sec", cold_qps}},
                .wall_ns = cold_ns,
                .space_classes = loaded.size()});
  reporter.Add({.name = "query/warm(random(n=4,m=5,seed=42))",
                .params = {{"queries", static_cast<double>(total)},
                           {"queries_per_sec", warm_qps},
                           {"warm_cold_ratio", warm_cold_ratio}},
                .wall_ns = warm_ns,
                .space_classes = loaded.size(),
                .bytes_memo = warm_evaluator.MemoryUsage().bytes_total});

  // --- Fused batch sweep vs sequential per-formula passes (both cold).
  // At 1 thread the memo planes already share subformula work across the
  // sequential passes, so fusion is about even; the win is in the parallel
  // path, where fusion pays the worker-pool dispatch once per batch rather
  // than once per formula.
  // The kernels axis re-runs both modes with the compiled kernel engine off
  // and on; all four variants must agree (divergence abort), and the
  // kernels=off verdicts anchor the comparison to the interpreted engine.
  bench::Table fused_table(
      {"threads", "kernels", "mode", "batch", "wall (ms)", "speedup"});
  std::optional<std::size_t> expected_satisfying;
  for (const int threads : {1, 4}) {
    for (const bool kernels : {false, true}) {
      KnowledgeOptions knowledge;
      knowledge.num_threads = threads;
      knowledge.compiled_kernels = kernels;

      bench::WallTimer sequential_timer;
      std::size_t sequential_satisfying = 0;
      {
        KnowledgeEvaluator evaluator(loaded, knowledge);
        for (const FormulaPtr& f : queries)
          sequential_satisfying += evaluator.SatisfyingSet(f).size();
      }
      const std::int64_t sequential_ns = sequential_timer.ElapsedNs();

      bench::WallTimer fused_timer;
      std::size_t fused_satisfying = 0;
      {
        KnowledgeEvaluator evaluator(loaded, knowledge);
        for (const auto& set : evaluator.SatisfyingSets(queries))
          fused_satisfying += set.size();
      }
      const std::int64_t fused_ns = fused_timer.ElapsedNs();
      if (fused_satisfying != sequential_satisfying) {
        std::fprintf(stderr,
                     "FATAL: fused/sequential verdicts disagree at %d "
                     "threads (kernels %s)\n",
                     threads, kernels ? "on" : "off");
        return 1;
      }
      if (!expected_satisfying.has_value())
        expected_satisfying = fused_satisfying;
      if (fused_satisfying != *expected_satisfying) {
        std::fprintf(stderr,
                     "FATAL: kernels %s diverges from the interpreted "
                     "verdicts at %d threads\n",
                     kernels ? "on" : "off", threads);
        return 1;
      }
      const double fused_speedup =
          fused_ns > 0 ? static_cast<double>(sequential_ns) /
                             static_cast<double>(fused_ns)
                       : 0.0;

      const char* kernels_name = kernels ? "on" : "off";
      fused_table.AddRow({std::to_string(threads), kernels_name, "sequential",
                          std::to_string(queries.size()),
                          bench::Fmt(sequential_ns / 1e6), "1.0x"});
      fused_table.AddRow({std::to_string(threads), kernels_name, "fused",
                          std::to_string(queries.size()),
                          bench::Fmt(fused_ns / 1e6),
                          bench::Fmt(fused_speedup) + "x"});

      reporter.Add({.name = "query/fused(random(n=4,m=5,seed=42))",
                    .params = {{"batch", static_cast<double>(queries.size())},
                               {"threads", static_cast<double>(threads)},
                               {"kernels", kernels ? 1.0 : 0.0},
                               {"fused_speedup", fused_speedup}},
                    .wall_ns = fused_ns,
                    .space_classes = loaded.size()});
    }
  }
  fused_table.Print();

  if (json_path && !reporter.WriteFile(*json_path)) return 1;
  return 0;
}
