// Experiment E13 — performance micro-benchmarks (google-benchmark): space
// enumeration, isomorphism checks, chain detection, knowledge evaluation
// and fusion.  These back the library's own performance claims rather than
// a figure in the paper.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench/reporter.h"
#include "core/fusion.h"
#include "core/isomorphism.h"
#include "core/knowledge.h"
#include "core/random_system.h"
#include "core/theorems.h"
#include "protocols/token_bus.h"

namespace {

// prefix + std::to_string(i), built by appending: gcc 12 -O3 flags the
// `"lit" + std::string` form with a false -Werror=restrict positive.
std::string Label(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

using namespace hpl;

RandomSystem MakeSystem(int messages, std::uint64_t seed) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = messages;
  options.internal_events = 0;
  options.seed = seed;
  return RandomSystem(options);
}

void BM_SpaceEnumeration(benchmark::State& state) {
  const auto messages = static_cast<int>(state.range(0));
  RandomSystem system = MakeSystem(messages, 7);
  std::size_t size = 0;
  for (auto _ : state) {
    auto space = ComputationSpace::Enumerate(system, {.max_depth = 40});
    size = space.size();
    benchmark::DoNotOptimize(size);
  }
  state.counters["classes"] = static_cast<double>(size);
}
BENCHMARK(BM_SpaceEnumeration)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_ProjectionIsomorphism(benchmark::State& state) {
  const auto length = static_cast<int>(state.range(0));
  // Build two long computations differing at the tail.
  std::vector<Event> a, b;
  for (int i = 0; i < length; ++i) {
    a.push_back(Internal(i % 3, Label("e", i)));
    b.push_back(Internal(i % 3, Label("e", i)));
  }
  b.back().label = "different";
  const Computation x(std::move(a)), y(std::move(b));
  for (auto _ : state) {
    bool iso = IsomorphicWrt(x, y, ProcessSet{0, 1, 2});
    benchmark::DoNotOptimize(iso);
  }
}
BENCHMARK(BM_ProjectionIsomorphism)->Arg(64)->Arg(256)->Arg(1024);

Computation LongTrace(int messages) {
  RandomSystemOptions options;
  options.num_processes = 6;
  options.num_messages = messages;
  options.internal_events = 0;
  options.seed = 19;
  RandomSystem system(options);
  Computation z;
  for (;;) {
    auto enabled = system.EnabledEvents(z);
    if (enabled.empty()) break;
    z = z.Extended(enabled.front());
  }
  return z;
}

void BM_ChainDetectorBuild(benchmark::State& state) {
  const Computation z = LongTrace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ChainDetector detector(z, 6);
    benchmark::DoNotOptimize(&detector);
  }
  state.counters["events"] = static_cast<double>(z.size());
}
BENCHMARK(BM_ChainDetectorBuild)->Arg(32)->Arg(128)->Arg(512);

void BM_ChainQuery(benchmark::State& state) {
  const Computation z = LongTrace(static_cast<int>(state.range(0)));
  ChainDetector detector(z, 6);
  const std::vector<ProcessSet> stages{ProcessSet{0}, ProcessSet{1},
                                       ProcessSet{2}, ProcessSet{3}};
  for (auto _ : state) {
    bool has = detector.HasChain(stages);
    benchmark::DoNotOptimize(has);
  }
}
BENCHMARK(BM_ChainQuery)->Arg(32)->Arg(128)->Arg(512);

void BM_ChainQueryNaive(benchmark::State& state) {
  const Computation z = LongTrace(static_cast<int>(state.range(0)));
  const std::vector<ProcessSet> stages{ProcessSet{0}, ProcessSet{1},
                                       ProcessSet{2}, ProcessSet{3}};
  for (auto _ : state) {
    auto witness = FindChainNaive(z, 6, 0, stages);
    benchmark::DoNotOptimize(witness);
  }
}
BENCHMARK(BM_ChainQueryNaive)->Arg(32)->Arg(128);

void BM_KnowledgeNesting(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  RandomSystem system = MakeSystem(3, 23);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const Predicate b = Predicate::CountOnAtLeast(0, 1);
  std::vector<ProcessSet> chain;
  for (int i = 0; i < depth; ++i)
    chain.push_back(ProcessSet::Of(i % 3));
  auto formula = Formula::KnowsChain(chain, Formula::Atom(b));
  for (auto _ : state) {
    // Fresh evaluator each iteration: measures uncached evaluation.
    KnowledgeEvaluator eval(space);
    bool v = eval.Holds(formula, std::size_t{0});
    benchmark::DoNotOptimize(v);
  }
  state.counters["space"] = static_cast<double>(space.size());
}
BENCHMARK(BM_KnowledgeNesting)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_KnowledgeMemoized(benchmark::State& state) {
  RandomSystem system = MakeSystem(3, 23);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const Predicate b = Predicate::CountOnAtLeast(0, 1);
  auto formula = Formula::Knows(
      ProcessSet{1}, Formula::Knows(ProcessSet{0}, Formula::Atom(b)));
  KnowledgeEvaluator eval(space);
  eval.Holds(formula, std::size_t{0});  // warm the cache
  for (auto _ : state) {
    bool v = eval.Holds(formula, std::size_t{0});
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_KnowledgeMemoized);

void BM_CommonKnowledgeComponents(benchmark::State& state) {
  RandomSystem system = MakeSystem(static_cast<int>(state.range(0)), 29);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 40});
  auto ck = Formula::Common(ProcessSet{0, 1, 2},
                            Formula::Atom(Predicate::True()));
  for (auto _ : state) {
    KnowledgeEvaluator eval(space);
    bool v = eval.Holds(ck, std::size_t{0});
    benchmark::DoNotOptimize(v);
  }
  state.counters["space"] = static_cast<double>(space.size());
}
BENCHMARK(BM_CommonKnowledgeComponents)->Arg(3)->Arg(4);

void BM_FusionTheorem2(benchmark::State& state) {
  const Computation x({Send(0, 1, 0, "m")});
  Computation y = x;
  Computation z = x.Extended(Receive(1, 0, 0, "m"));
  for (int i = 0; i < state.range(0); ++i) {
    y = y.Extended(Internal(0, Label("a", i)));
    z = z.Extended(Internal(1, Label("b", i)));
  }
  for (auto _ : state) {
    auto fused = FuseTheorem2(x, y, z, ProcessSet{0}, 2);
    benchmark::DoNotOptimize(fused);
  }
}
BENCHMARK(BM_FusionTheorem2)->Arg(4)->Arg(32)->Arg(128);

void BM_CanonicalForm(benchmark::State& state) {
  const Computation z = LongTrace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto canon = z.Canonical();
    benchmark::DoNotOptimize(canon);
  }
  state.counters["events"] = static_cast<double>(z.size());
}
BENCHMARK(BM_CanonicalForm)->Arg(32)->Arg(128)->Arg(512);

// The two cold whole-space passes a served query can pay (EXPERIMENTS E31),
// on a 157,789-class token-bus space (8 processes, 18 passes), one thread.
const protocols::TokenBusSystem& TokenBus() {
  static const protocols::TokenBusSystem bus(8, 18);
  return bus;
}

ComputationSpace EnumerateTokenBus() {
  return ComputationSpace::Enumerate(TokenBus(),
                                     {.max_depth = 64, .num_threads = 1});
}

// First whole-space query of one atom on a fresh evaluator: the atom-plane
// load streams every class's computation along the splice chain.
void BM_AtomPlaneLoad(benchmark::State& state) {
  static const ComputationSpace space = EnumerateTokenBus();
  const FormulaPtr atom = Formula::Atom(TokenBus().HoldsToken(3));
  for (auto _ : state) {
    KnowledgeEvaluator eval(space, {.num_threads = 1});
    const std::vector<std::uint8_t> verdicts = eval.HoldsAll(atom);
    benchmark::DoNotOptimize(verdicts.data());
  }
  state.counters["space"] = static_cast<double>(space.size());
}
BENCHMARK(BM_AtomPlaneLoad)->Unit(benchmark::kMillisecond);

// First EnsureGroupIndex of a 2- or 3-process group (processes 0, 2, 4):
// the id-order replay that hash-conses member [p]-class tuples into a
// [G]-table.  The cache has no eviction, so every iteration indexes a
// freshly enumerated space; enumeration and teardown run with the timer
// paused.
void BM_EnsureGroupIndex(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  ProcessSet g;
  for (int p = 0; p < members; ++p) g.Insert(static_cast<ProcessId>(2 * p));
  std::optional<ComputationSpace> space;
  std::size_t classes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    space.reset();
    space.emplace(EnumerateTokenBus());
    state.ResumeTiming();
    classes = space->EnsureGroupIndex(g).NumClasses();
    benchmark::DoNotOptimize(classes);
  }
  state.counters["space"] = static_cast<double>(space->size());
  state.counters["group_classes"] = static_cast<double>(classes);
}
BENCHMARK(BM_EnsureGroupIndex)
    ->Arg(2)
    ->Arg(3)
    ->Iterations(5)
    ->Unit(benchmark::kMillisecond);

double ToNanoseconds(double value, benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kNanosecond:
      return value;
    case benchmark::kMicrosecond:
      return value * 1e3;
    case benchmark::kMillisecond:
      return value * 1e6;
    case benchmark::kSecond:
      return value * 1e9;
  }
  return value;
}

// Failed/skipped run detection across google-benchmark versions: 1.8.0
// replaced Run::error_occurred with Run::skipped (an enum whose 0 value
// means "not skipped").
template <typename R>
bool RunFailed(const R& run) {
  if constexpr (requires { run.error_occurred; })
    return run.error_occurred;
  else if constexpr (requires { run.skipped; })
    return static_cast<int>(run.skipped) != 0;
  else
    return false;
}

// Console output as usual, plus capture of every iteration run into the
// repo's JSON reporter for the --json flag.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(hpl::bench::JsonReporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || RunFailed(run)) continue;
      hpl::bench::JsonResult result;
      result.name = run.benchmark_name();
      result.wall_ns = static_cast<std::int64_t>(
          ToNanoseconds(run.GetAdjustedRealTime(), run.time_unit));
      result.params.emplace_back("iterations",
                                 static_cast<double>(run.iterations));
      for (const auto& [name, counter] : run.counters) {
        result.params.emplace_back(name, counter.value);
        if (name == "classes" || name == "space")
          result.space_classes = static_cast<std::uint64_t>(counter.value);
      }
      result.classes_per_sec =
          hpl::bench::ClassesPerSec(result.space_classes, result.wall_ns);
      out_->Add(std::move(result));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  hpl::bench::JsonReporter* out_;
};

}  // namespace

int main(int argc, char** argv) {
  auto json_path = hpl::bench::ParseBenchArgs(argc, argv).json_path;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  hpl::bench::JsonReporter reporter("perf_micro");
  JsonCaptureReporter display(&reporter);
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  if (json_path.has_value() && !reporter.WriteFile(*json_path)) return 1;
  return 0;
}
