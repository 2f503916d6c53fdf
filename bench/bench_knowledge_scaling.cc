// Experiment E23/E24/E25 — knowledge-evaluation scaling: how fast can the
// paper's actual workload ("P knows b" quantified over the whole
// computation set, Section 4.1) be answered, and how far do the
// range-sharded kernels and the projection-class memo tiers carry it?
// Sweeps processes × formula depth × group size × worker threads ×
// kernels over seeded random systems, timing SatisfyingSet for K-chains of
// growing modal depth, multi-process K{G}/E{G} queries of growing group
// size (the E25 group-tier axis), and a common-knowledge query, and
// asserting along the way that every (thread count, kernels) combination
// reproduces the t=1 kernels-off baseline answers byte for byte
// (satisfying sets and CK component labels) — the determinism contracts of
// KnowledgeOptions::num_threads / compiled_kernels.  Rows carry
// `bytes_space`/`bytes_memo` in the JSON.
//
// The kernels axis runs every row with the compiled kernel engine off and
// on (KnowledgeOptions::compiled_kernels) under the same divergence abort,
// and adds pure-boolean rows (bool-depthN) where kernels replace the whole
// recursion with word ops; --require-kernel-speedup=X exits non-zero when
// the dedicated t=1 gauge of the depth>=3 boolean rows falls below X
// (the CI smoke gate passes 1.5).
//
//   bench_knowledge_scaling [--preset=smoke|default|big] [--threads=1,2,4]
//                           [--require-kernel-speedup=X]
//                           [--json=BENCH_knowledge_scaling.json]
//
// smoke   tiny spaces for CI smoke jobs (~1s total)
// default mid-size spaces incl. a ~87k-class system
// big     adds the ~300k-class system of the acceptance run (the
//         SatisfyingSet sweep alone is seconds per thread count)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench/reporter.h"
#include "bench/table.h"
#include "core/knowledge.h"
#include "core/random_system.h"

using namespace hpl;

namespace {

struct Config {
  int processes;
  int messages;
  int depth;
};

// The depth-d query: K{d-1 mod n} ... K{1} K{0} atom — the Theorem 4-6
// shape whose bucket sweeps dominate checker time.
FormulaPtr KChain(int depth, int processes, const FormulaPtr& atom) {
  FormulaPtr f = atom;
  for (int k = 0; k < depth; ++k)
    f = Formula::Knows(ProcessSet::Of(k % processes), f);
  return f;
}

// A pure-boolean DAG of the given nesting depth (no modal operators): the
// compiled-kernel headline case, where the interpreter pays per-(node, id)
// dispatch and the kernel streams 64 ids per word op.  Three connective
// nodes per level over two alternating atoms (few atoms, so the one-time
// per-id predicate evaluation does not drown the connective work the axis
// measures), all levels sharing the running subformula: depth d is ~3d DAG
// nodes.
FormulaPtr BoolChain(int depth) {
  const FormulaPtr atoms[2] = {
      Formula::Atom(Predicate::CountOnAtLeast(0, 1)),
      Formula::Atom(Predicate::CountOnAtLeast(1, 1))};
  FormulaPtr f = atoms[0];
  for (int k = 0; k < depth; ++k) {
    const FormulaPtr& x = atoms[k % 2];
    f = Formula::Or(Formula::And(f, x),
                    Formula::Not(Formula::Implies(x, f)));
  }
  return f;
}

void RequireEqualSets(const std::vector<std::size_t>& baseline,
                      const std::vector<std::size_t>& got, int threads,
                      const char* what) {
  if (baseline == got) return;
  std::fprintf(stderr,
               "DETERMINISM VIOLATION: %s differs at %d threads "
               "(%zu vs %zu ids)\n",
               what, threads, baseline.size(), got.size());
  std::exit(1);
}

// The first `size` processes, the group-size axis of the E25 sweep.
ProcessSet Prefix(int size) {
  ProcessSet g;
  for (ProcessId p = 0; p < size; ++p) g.Insert(p);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  auto [preset, threads, json_path] =
      bench::ParseBenchArgs(argc, argv, "default", {1, 2, 4});
  double require_kernel_speedup = 0.0;  // 0 = report only, no gate
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--require-kernel-speedup=", 25) == 0)
      require_kernel_speedup = std::atof(argv[i] + 25);
    else
      return bench::BenchUsage(argv[0],
                               "[--preset=smoke|default|big] "
                               "[--threads=1,2,4] "
                               "[--require-kernel-speedup=X]");
  }

  std::vector<Config> configs;
  std::vector<int> depths{1, 2, 3};
  if (preset == "smoke") {
    configs = {{3, 4, 32}, {4, 5, 48}};
  } else if (preset == "default") {
    configs = {{4, 6, 56}, {6, 6, 64}};
  } else if (preset == "big") {
    configs = {{6, 6, 64}, {4, 7, 64}};
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  if (threads.front() != 1) threads.insert(threads.begin(), 1);

  std::printf("E23: knowledge-evaluation scaling (preset=%s)\n\n",
              preset.c_str());
  double min_kernel_speedup = std::numeric_limits<double>::infinity();
  bench::JsonReporter reporter("knowledge_scaling");
  bench::Table table({"system", "classes", "query", "threads", "kernels",
                      "wall ms", "classes/sec", "speedup", "identical?"});

  for (const Config& config : configs) {
    RandomSystemOptions options;
    options.num_processes = config.processes;
    options.num_messages = config.messages;
    options.internal_events = 1;
    options.seed = 42;
    RandomSystem system(options);
    const auto space = ComputationSpace::Enumerate(
        system, {.max_depth = config.depth, .num_threads = 0});
    const ProcessSet all = space.AllProcesses();
    const FormulaPtr atom = Formula::Atom(Predicate::CountOnAtLeast(0, 2));

    struct Query {
      std::string name;
      FormulaPtr formula;
      int group_size = 0;     // 0 for the singleton-chain queries
      int boolean_depth = 0;  // nonzero only for the pure-boolean rows
    };
    std::vector<Query> queries;
    for (int depth : depths)
      queries.push_back({"K-depth" + std::to_string(depth),
                         KChain(depth, config.processes, atom)});
    // The pure-boolean rows (modal depth 0): where compiled kernels replace
    // the whole per-(node, id) recursion with word-wide ops.
    for (int depth : {8, 32})
      queries.push_back({"bool-depth" + std::to_string(depth),
                         BoolChain(depth), 0, depth});
    // The E25 group-size axis: depth-1 K{G} (distributed knowledge over the
    // [G]-relation) and E{G} (everyone individually knows) for a pair and
    // for the full process set.
    std::vector<int> group_sizes{2};
    if (config.processes > 2) group_sizes.push_back(config.processes);
    for (int gs : group_sizes) {
      const ProcessSet g = Prefix(gs);
      queries.push_back({"KG-g" + std::to_string(gs), Formula::Knows(g, atom),
                         gs});
      queries.push_back({"EG-g" + std::to_string(gs),
                         Formula::Everyone(g, atom), gs});
    }
    queries.push_back({"CK", Formula::Common(all, atom)});

    for (const Query& query : queries) {
      std::vector<std::size_t> baseline_sat;
      std::vector<std::uint32_t> baseline_components;
      std::int64_t baseline_ns = 0;
      bool have_baseline = false;
      for (int t : threads) {
        for (const bool kernels : {false, true}) {
          // Fresh evaluator per run: timings measure cold memo planes, and
          // the cross-run comparison sees exactly one engine's answers.
          KnowledgeEvaluator eval(
              space, {.num_threads = t, .compiled_kernels = kernels});
          bench::WallTimer timer;
          const std::vector<std::size_t> sat =
              eval.SatisfyingSet(query.formula);
          std::vector<std::uint32_t> components(space.size());
          for (std::size_t id = 0; id < space.size(); ++id)
            components[id] = eval.CommonComponent(all, id);
          std::int64_t wall_ns = timer.ElapsedNs();
          // Sub-second rows re-measure once (fresh evaluator, cold memo)
          // and keep the better wall: the CI regression gate compares these
          // rows, and short timings are the noise-prone ones.
          if (wall_ns < 1'000'000'000) {
            KnowledgeEvaluator rerun(
                space, {.num_threads = t, .compiled_kernels = kernels});
            bench::WallTimer retimer;
            const std::vector<std::size_t> sat2 =
                rerun.SatisfyingSet(query.formula);
            for (std::size_t id = 0; id < space.size(); ++id)
              rerun.CommonComponent(all, id);
            wall_ns = std::min(wall_ns, retimer.ElapsedNs());
            RequireEqualSets(sat, sat2, t, query.name.c_str());
          }
          if (!have_baseline) {
            have_baseline = true;
            baseline_ns = wall_ns;
            baseline_sat = sat;
            baseline_components = components;
          } else {
            // Built-in divergence abort: every (threads, kernels)
            // combination must reproduce the t=1 kernels-off baseline byte
            // for byte.
            RequireEqualSets(baseline_sat, sat, t, query.name.c_str());
            if (components != baseline_components) {
              std::fprintf(stderr,
                           "DETERMINISM VIOLATION: CK component labels "
                           "differ at %d threads (kernels=%s)\n",
                           t, kernels ? "on" : "off");
              return 1;
            }
          }

          const double per_sec = bench::ClassesPerSec(space.size(), wall_ns);
          const double speedup =
              wall_ns > 0 ? static_cast<double>(baseline_ns) /
                                static_cast<double>(wall_ns)
                          : 0.0;
          const bool is_baseline = t == 1 && !kernels;
          table.AddRow({system.Name(), std::to_string(space.size()),
                        query.name, std::to_string(t), kernels ? "on" : "off",
                        bench::Fmt(static_cast<double>(wall_ns) / 1e6, 1),
                        bench::Fmt(per_sec, 0), bench::Fmt(speedup, 2),
                        is_baseline ? "baseline" : "yes"});

          bench::JsonResult result;
          result.name = "satisfying_set/" + system.Name() + "/" + query.name;
          result.params = {
              {"processes", static_cast<double>(config.processes)},
              {"messages", static_cast<double>(config.messages)},
              // ModalDepth() recurses the syntax tree, which is exponential
              // on the shared-subformula boolean chains; they are modal
              // depth 0 by construction.
              {"modal_depth",
               query.boolean_depth > 0
                   ? 0.0
                   : static_cast<double>(query.formula->ModalDepth())},
              {"group_size", static_cast<double>(query.group_size)},
              {"boolean_depth", static_cast<double>(query.boolean_depth)},
              {"threads", static_cast<double>(t)},
              {"kernels", kernels ? 1.0 : 0.0},
              {"satisfying", static_cast<double>(sat.size())},
              {"memo_entries", static_cast<double>(eval.memo_size())}};
          result.wall_ns = wall_ns;
          result.space_classes = space.size();
          result.classes_per_sec = per_sec;
          // Recomputed per row: [G]-class indexes built lazily by earlier
          // runs stay cached on the space, and the loop order is fixed, so
          // every row's gauge is reproducible run over run.
          result.bytes_space = space.MemoryUsage().bytes_total;
          result.bytes_memo = eval.MemoryUsage().bytes_total;
          reporter.Add(std::move(result));
        }
      }
    }

    // The kernel speedup gauge: dedicated t=1 best-of-3 measurements of the
    // depth>=3 pure-boolean rows, interpreted vs compiled, so the CI
    // threshold compares matched cold runs instead of grid rows.  Verdicts
    // must agree (one more divergence abort).
    for (const Query& query : queries) {
      if (query.boolean_depth < 3) continue;
      std::int64_t best[2] = {INT64_MAX, INT64_MAX};  // [kernels]
      std::vector<std::size_t> sat[2];
      for (int rep = 0; rep < 3; ++rep) {
        for (const int kernels : {0, 1}) {
          KnowledgeEvaluator eval(
              space, {.num_threads = 1, .compiled_kernels = kernels != 0});
          bench::WallTimer timer;
          std::vector<std::size_t> got = eval.SatisfyingSet(query.formula);
          best[kernels] = std::min(best[kernels], timer.ElapsedNs());
          if (rep == 0 && kernels == 0)
            sat[0] = std::move(got);
          else
            RequireEqualSets(sat[0], got, 1, query.name.c_str());
        }
      }
      const double speedup =
          best[1] > 0 ? static_cast<double>(best[0]) /
                            static_cast<double>(best[1])
                      : 0.0;
      std::printf("kernel speedup %-12s %s: %.3f ms -> %.3f ms (%.2fx)\n",
                  query.name.c_str(), system.Name().c_str(),
                  static_cast<double>(best[0]) / 1e6,
                  static_cast<double>(best[1]) / 1e6, speedup);
      min_kernel_speedup = std::min(min_kernel_speedup, speedup);
      bench::JsonResult gauge;
      gauge.name = "kernel_speedup/" + system.Name() + "/" + query.name;
      gauge.params = {
          {"boolean_depth", static_cast<double>(query.boolean_depth)},
          {"threads", 1.0},
          {"speedup", speedup}};
      gauge.wall_ns = best[1];
      gauge.space_classes = space.size();
      reporter.Add(std::move(gauge));
    }
  }
  table.Print();
  std::printf(
      "\nexpected: identical satisfying sets and component labels at every\n"
      "(thread count, kernels) combination.  kernels=off rows run the\n"
      "sequential lazy interpreter at any thread count; kernels=on rows\n"
      "compute complete planes\n"
      "bottom-up, range-sharded over the pool: they win big on pure-boolean\n"
      "chains (word-wide ops) and can trail the interpreter on nested modal\n"
      "queries whose laziness skips most of the space.  At t=1 a lone modal\n"
      "root stays on the interpreter (profitability dispatch), so its\n"
      "kernels=on row matches kernels=off.\n");

  if (json_path.has_value() && !reporter.WriteFile(*json_path)) return 1;
  if (require_kernel_speedup > 0.0 &&
      min_kernel_speedup < require_kernel_speedup) {
    std::fprintf(stderr,
                 "KERNEL SPEEDUP GAUGE FAILED: min %.2fx on depth>=3 "
                 "pure-boolean rows, required %.2fx\n",
                 min_kernel_speedup, require_kernel_speedup);
    return 1;
  }
  return 0;
}
