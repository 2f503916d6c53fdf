// Differential contract of the compiled kernel engine: with
// KnowledgeOptions::compiled_kernels on, every whole-space query must
// reproduce the paper's definitions (the independent ReferenceKnowledge
// oracle) byte for byte, as the interpreted engine must with kernels off —
// at 1 and 4 threads — on canonicalized, lockstep (literal interleaving),
// and crash-fault spaces; for single sweeps and fused SatisfyingSets
// batches; and across Refresh() after Deepen/Ingest, which must invalidate
// the kernel program cache — and over every StateView partition source
// against the oracle fed the same state abstraction, with and without the
// compile-time fold of atoms local by construction.  The profitability
// dispatch (a lone modal root with no pool stays on the lazy interpreter)
// is pinned by LoneModalRootStaysOnInterpreter.
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/computation.h"
#include "core/faults.h"
#include "core/knowledge.h"
#include "core/random_system.h"
#include "core/state_view.h"
#include "protocols/lockstep.h"
#include "protocols/token_bus.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

KnowledgeOptions Config(int threads, bool kernels) {
  return {.num_threads = threads, .compiled_kernels = kernels};
}

// The battery covers every op the compiler emits: deep pure-boolean DAGs
// (the fused pointwise mode), singleton and group modalities (kKnowSeg with
// each quantifier), multi-process Everyone (kEveryoneSeg), common knowledge
// (kCkComponent), compile-time local-formula folds (modal child constant on
// the operator's view), runtime constant folds (tautological children), and
// the empty-group compile refusal that falls back to the interpreter.
std::vector<FormulaPtr> KernelFormulas(const FormulaPtr& a,
                                       const FormulaPtr& b, ProcessSet all) {
  const ProcessSet pair = ProcessSet::Of(0).Union(ProcessSet::Of(1));
  const FormulaPtr deep_bool = Formula::Implies(
      Formula::And(a, Formula::Or(Formula::Not(b), a)),
      Formula::Or(Formula::And(Formula::Not(a), b),
                  Formula::Not(Formula::And(a, Formula::Not(b)))));
  return {
      a,
      deep_bool,
      Formula::Knows(ProcessSet::Of(0), a),
      Formula::Knows(pair, a),  // distributed knowledge: [G]-row
      Formula::Knows(all, deep_bool),
      Formula::Sure(ProcessSet::Of(1), b),
      Formula::Sure(pair, Formula::Not(a)),
      Formula::Possible(ProcessSet::Of(0), Formula::Not(a)),
      Formula::Possible(pair, Formula::And(a, b)),
      Formula::Everyone(pair, a),
      Formula::Everyone(all, Formula::Or(a, b)),
      Formula::Common(pair, a),
      Formula::Common(all, Formula::Or(a, Formula::Not(a))),  // const fold
      Formula::Knows(ProcessSet::Of(0), Formula::Or(a, Formula::Not(a))),
      // Local-formula folds: the child is constant on the operator's view.
      Formula::Knows(ProcessSet::Of(0), Formula::Common(pair, a)),
      Formula::Sure(pair, Formula::Knows(ProcessSet::Of(0), a)),
      Formula::Everyone(pair, Formula::Common(pair, b)),
      // Nested modal over boolean glue: kernels and interpreter interleave.
      Formula::Knows(ProcessSet::Of(1),
                     Formula::And(Formula::Knows(ProcessSet::Of(0), a),
                                  Formula::Not(b))),
      // Empty-group modal: the compiler refuses, the evaluator falls back.
      Formula::Knows(ProcessSet(), a),
      Formula::Possible(ProcessSet(), Formula::Not(b)),
  };
}

void ExpectKernelsMatchInterpreter(const ComputationSpace& space,
                                   const FormulaPtr& a, const FormulaPtr& b) {
  const auto battery = KernelFormulas(a, b, space.AllProcesses());
  ReferenceKnowledge reference(space);
  for (const int threads : {1, 4}) {
    KnowledgeEvaluator interpreted(space, Config(threads, false));
    KnowledgeEvaluator kernels(space, Config(threads, true));
    for (const FormulaPtr& f : battery) {
      const auto expected = reference.SatisfyingSet(f);
      ASSERT_EQ(interpreted.SatisfyingSet(f), expected)
          << "interpreted diverged: " << f->ToString()
          << " threads=" << threads;
      ASSERT_EQ(kernels.SatisfyingSet(f), expected)
          << "kernels diverged: " << f->ToString() << " threads=" << threads;
      ASSERT_EQ(kernels.HoldsAll(f), reference.HoldsAll(f)) << f->ToString();
    }
    // Locality/constancy decisions ride the same planes.
    for (KnowledgeEvaluator* eval : {&interpreted, &kernels}) {
      ASSERT_EQ(eval->IsConstant(battery[1]), reference.IsConstant(battery[1]));
      ASSERT_EQ(eval->IsLocalTo(a, ProcessSet::Of(0)),
                reference.IsLocalTo(a, ProcessSet::Of(0)));
    }
  }
}

TEST(KnowledgeKernelTest, CanonicalizedSpaceMatchesInterpreter) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.seed = 29;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {});
  ASSERT_GE(space.size(), 128u);
  ExpectKernelsMatchInterpreter(space,
                                Formula::Atom(Predicate::Sent(0)),
                                Formula::Atom(Predicate::Received(1)));
}

TEST(KnowledgeKernelTest, LockstepSpaceMatchesInterpreter) {
  protocols::LockstepSystem lockstep(3);
  EnumerationLimits limits;
  limits.canonicalize = false;  // literal interleavings
  const auto space = ComputationSpace::Enumerate(lockstep, limits);
  ExpectKernelsMatchInterpreter(
      space, Formula::Atom(Predicate::CountOnAtLeast(0, 2)),
      Formula::Atom(Predicate::CountOnAtLeast(1, 1)));
}

TEST(KnowledgeKernelTest, CrashFaultSpaceMatchesInterpreter) {
  protocols::TokenBusSystem bus(3, 2);
  const CrashFaultSystem faulty(bus, {.max_crashes = 1, .may_crash = {}});
  EnumerationLimits limits;
  limits.max_depth = 5;
  limits.allow_truncation = true;
  const auto space = ComputationSpace::Enumerate(faulty, limits);
  ExpectKernelsMatchInterpreter(space, Formula::Atom(bus.HoldsToken(0)),
                                Formula::Atom(bus.HoldsToken(1)));
}

TEST(KnowledgeKernelTest, FusedBatchesAreByteIdentical) {
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.seed = 31;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {});
  const auto batch =
      KernelFormulas(Formula::Atom(Predicate::Sent(0)),
                     Formula::Atom(Predicate::Received(0)),
                     space.AllProcesses());
  const std::span<const FormulaPtr> span(batch.data(), batch.size());
  ReferenceKnowledge reference(space);
  std::vector<std::vector<std::size_t>> expected;
  for (const FormulaPtr& f : batch)
    expected.push_back(reference.SatisfyingSet(f));
  for (const int threads : {1, 4}) {
    for (const bool use_kernels : {false, true}) {
      KnowledgeEvaluator eval(space, Config(threads, use_kernels));
      ASSERT_EQ(eval.SatisfyingSets(span), expected)
          << "threads=" << threads << " kernels=" << use_kernels;
      // A repeat batch hits completed planes and the program cache.
      ASSERT_EQ(eval.SatisfyingSets(span), expected);
    }
  }
}

TEST(KnowledgeKernelTest, PointwiseHoldsInterleavesWithKernelSweeps) {
  RandomSystemOptions options;
  options.seed = 5;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const FormulaPtr f = Formula::Knows(
      ProcessSet::Of(0),
      Formula::Or(Formula::Atom(Predicate::Sent(0)),
                  Formula::Atom(Predicate::Received(1))));
  ReferenceKnowledge reference(space);
  // 4 threads: a lone modal root compiles only with a worker pool (the
  // profitability dispatch keeps it on the interpreter otherwise).
  ASSERT_GE(space.size(), 128u);
  KnowledgeEvaluator kernels(space, Config(4, true));
  // Pointwise probes seed partial memo bits; the kernel sweep must respect
  // and complete them, and pointwise probes after it must hit the planes.
  for (const std::size_t id : {std::size_t{0}, space.size() / 2})
    ASSERT_EQ(kernels.Holds(f, id), reference.Holds(f, id));
  ASSERT_EQ(kernels.SatisfyingSet(f), reference.SatisfyingSet(f));
  EXPECT_EQ(kernels.MemoryUsage().kernel_programs, 1u);
  for (std::size_t id = 0; id < space.size(); ++id)
    ASSERT_EQ(kernels.Holds(f, id), reference.Holds(f, id)) << id;
}

TEST(KnowledgeKernelTest, StructurallyEqualFormulasShareOneProgram) {
  RandomSystemOptions options;
  options.seed = 11;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  // A two-root batch: a lone modal root without a worker pool would stay on
  // the lazy interpreter (profitability dispatch) and never compile.
  KnowledgeEvaluator eval(space, Config(1, true));
  // Two structurally equal roots built by different code paths: the
  // interner must collapse them onto one node, one sweep, one program.
  auto build = [] {
    return Formula::Knows(ProcessSet::Of(0),
                          Formula::And(Formula::Atom(Predicate::Sent(0)),
                                       Formula::Atom(Predicate::Received(1))));
  };
  const std::vector<FormulaPtr> batch = {
      build(), Formula::Atom(Predicate::Received(0))};
  const auto first =
      eval.SatisfyingSets(std::span<const FormulaPtr>(batch.data(), 2))[0];
  const auto stats_after_first = eval.MemoryUsage();
  ASSERT_GT(stats_after_first.kernel_programs, 0u);
  EXPECT_EQ(eval.SatisfyingSet(build()), first);
  const auto stats_after_second = eval.MemoryUsage();
  // The second sweep hit the completed plane: no new program was compiled.
  EXPECT_EQ(stats_after_second.kernel_programs,
            stats_after_first.kernel_programs);
  EXPECT_EQ(stats_after_second.kernel_ops, stats_after_first.kernel_ops);
}

// Refresh() after growth must drop compiled programs (the plane re-layout
// invalidates baked row/segment references) and keep verdicts identical to
// a fresh evaluator over the grown space.
TEST(KnowledgeKernelTest, RefreshAfterDeepenInvalidatesProgramCache) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  EnumerationLimits limits;
  limits.max_depth = 4;
  limits.allow_truncation = true;
  builder.Build(bus, limits);
  KnowledgeEvaluator eval(builder.space(), Config(1, true));
  const FormulaPtr f = Formula::Knows(
      ProcessSet::Of(0),
      Formula::Or(Formula::Atom(bus.HoldsToken(0)),
                  Formula::Atom(bus.HoldsToken(2))));
  // A two-root batch so the modal root compiles (see the profitability
  // dispatch); the cache-invalidation contract is batch-independent.
  const std::vector<FormulaPtr> batch = {f, Formula::Atom(bus.HoldsToken(1))};
  const std::span<const FormulaPtr> span(batch.data(), batch.size());
  eval.SatisfyingSets(span);
  ASSERT_GT(eval.MemoryUsage().kernel_programs, 0u);

  ASSERT_GT(builder.Deepen(1), 0u);
  eval.Refresh();
  EXPECT_EQ(eval.MemoryUsage().kernel_programs, 0u);

  KnowledgeEvaluator fresh(builder.space(), Config(1, true));
  ReferenceKnowledge reference(builder.space());
  const auto expected = reference.SatisfyingSet(f);
  EXPECT_EQ(eval.SatisfyingSets(span)[0], expected);
  EXPECT_EQ(fresh.SatisfyingSets(span)[0], expected);
  EXPECT_GT(eval.MemoryUsage().kernel_programs, 0u);  // recompiled
}

TEST(KnowledgeKernelTest, RefreshAfterIngestInvalidatesProgramCache) {
  protocols::TokenBusSystem bus(3, 2);
  SpaceBuilder builder;
  EnumerationLimits limits;
  limits.max_depth = 3;
  limits.allow_truncation = true;
  builder.Build(bus, limits);
  KnowledgeEvaluator eval(builder.space(), Config(1, true));
  const FormulaPtr f =
      Formula::Everyone(ProcessSet::Of(0).Union(ProcessSet::Of(1)),
                        Formula::Atom(bus.HoldsToken(0)));
  const std::vector<FormulaPtr> batch = {f, Formula::Atom(bus.HoldsToken(1))};
  const std::span<const FormulaPtr> span(batch.data(), batch.size());
  eval.SatisfyingSets(span);
  ASSERT_GT(eval.MemoryUsage().kernel_programs, 0u);

  // Splice the system's lexicographically-first run, two levels past the
  // built depth, into the space.
  std::vector<Event> events;
  while (events.size() < 5) {
    const auto enabled =
        bus.EnabledEvents(Computation::TrustedFromEvents(events));
    if (enabled.empty()) break;
    events.push_back(enabled.front());
  }
  ASSERT_GT(builder.Ingest(std::span<const Event>(events)), 0u);

  eval.Refresh();
  EXPECT_EQ(eval.MemoryUsage().kernel_programs, 0u);
  ReferenceKnowledge reference(builder.space());
  EXPECT_EQ(eval.SatisfyingSets(span)[0], reference.SatisfyingSet(f));
  EXPECT_GT(eval.MemoryUsage().kernel_programs, 0u);  // recompiled
}

// State-based knowledge (paper Section 6) runs through the same engine: a
// StateView is only another partition source.  Every abstraction's view
// must reproduce the oracle fed that abstraction — CK, group K/E and both
// folds included — in both engines at 1 and 4 threads, and the lossless
// FullHistory view must answer byte-identically to the space's own
// partitions.
TEST(KnowledgeKernelTest, StateViewsMatchReference) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.seed = 29;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {});
  ASSERT_GE(space.size(), 128u);  // the worker-pool threshold
  const auto battery = KernelFormulas(Formula::Atom(Predicate::Sent(0)),
                                      Formula::Atom(Predicate::Received(1)),
                                      space.AllProcesses());
  const std::span<const FormulaPtr> span(battery.data(), battery.size());
  const ProcessSet pair{0, 1};
  for (const StateAbstraction& abstraction :
       {StateAbstraction::FullHistory(), StateAbstraction::EventCount(),
        StateAbstraction::LabelBag(), StateAbstraction::LastEvent()}) {
    const StateView view(space, abstraction);
    ReferenceKnowledge reference(space, abstraction);
    std::vector<std::vector<std::size_t>> expected;
    for (const FormulaPtr& f : battery)
      expected.push_back(reference.SatisfyingSet(f));
    for (const int threads : {1, 4}) {
      for (const bool use_kernels : {false, true}) {
        KnowledgeEvaluator eval(view, Config(threads, use_kernels));
        for (std::size_t k = 0; k < battery.size(); ++k)
          ASSERT_EQ(eval.SatisfyingSet(battery[k]), expected[k])
              << abstraction.name() << ": " << battery[k]->ToString()
              << " threads=" << threads << " kernels=" << use_kernels;
        KnowledgeEvaluator fused(view, Config(threads, use_kernels));
        ASSERT_EQ(fused.SatisfyingSets(span), expected)
            << abstraction.name() << " threads=" << threads
            << " kernels=" << use_kernels;
        for (std::size_t id = 0; id < space.size(); ++id)
          ASSERT_EQ(eval.CommonComponent(pair, id),
                    reference.CommonComponent(pair, id))
              << abstraction.name() << " component of " << id;
      }
    }
  }
  const StateView full(space, StateAbstraction::FullHistory());
  KnowledgeEvaluator by_view(full);
  KnowledgeEvaluator by_space(space);
  EXPECT_EQ(by_view.SatisfyingSets(span), by_space.SatisfyingSets(span));
}

// Atoms local by construction fold at compile time: K{P} b and M{P} b
// become b, and Sure{P} b becomes true, whenever b is local to a process in
// P.  The folded programs must match the oracle and read no tier row.  Over
// a StateView the fold is off — a state partition is coarser than [p] —
// and the same formulas must still match the oracle fed the abstraction.
TEST(KnowledgeKernelTest, LocalAtomFoldsMatchReference) {
  protocols::TokenBusSystem bus(/*num_processes=*/4, /*passes=*/8);
  const auto space = ComputationSpace::Enumerate(bus);
  ASSERT_GE(space.size(), 128u);  // the worker-pool threshold
  const FormulaPtr a = Formula::Atom(bus.HoldsToken(1));
  const FormulaPtr b = Formula::Atom(Predicate::CountOnAtLeast(2, 2));
  const std::vector<FormulaPtr> folded = {
      Formula::Knows(ProcessSet{1}, a),
      Formula::Possible(ProcessSet{1}, Formula::Not(a)),
      Formula::Sure(ProcessSet{1}, a),
      Formula::Knows(ProcessSet{0, 1}, a),  // [G] refines [1]
      Formula::Sure(ProcessSet{1, 2}, Formula::And(a, b)),
      Formula::Everyone(ProcessSet{2}, Formula::Or(b, Formula::Not(b))),
      Formula::Knows(ProcessSet{2}, Formula::Implies(b, Formula::Not(b))),
  };
  const std::span<const FormulaPtr> span(folded.data(), folded.size());
  ReferenceKnowledge reference(space);
  std::vector<std::vector<std::size_t>> expected;
  for (const FormulaPtr& f : folded)
    expected.push_back(reference.SatisfyingSet(f));
  // The fold is visible: K{1} a is a, and K{0} a (not local) is not.
  ASSERT_EQ(expected[0], reference.SatisfyingSet(a));
  ASSERT_NE(reference.SatisfyingSet(Formula::Knows(ProcessSet{0}, a)),
            reference.SatisfyingSet(a));
  for (const int threads : {1, 4}) {
    KnowledgeEvaluator eval(space, Config(threads, true));
    ASSERT_EQ(eval.SatisfyingSets(span), expected) << threads;
    const auto stats = eval.MemoryUsage();
    EXPECT_EQ(stats.kernel_programs, 1u);
    EXPECT_EQ(stats.bucket_entries, 0u);  // no quantifier swept a bucket
    EXPECT_EQ(stats.group_entries, 0u);
    for (std::size_t k = 0; k < folded.size(); ++k) {
      KnowledgeEvaluator single(space, Config(threads, true));
      ASSERT_EQ(single.SatisfyingSet(folded[k]), expected[k])
          << folded[k]->ToString() << " threads=" << threads;
    }
  }
  for (const StateAbstraction& abstraction :
       {StateAbstraction::LastEvent(), StateAbstraction::EventCount()}) {
    const StateView view(space, abstraction);
    ReferenceKnowledge by_state(space, abstraction);
    for (const int threads : {1, 4}) {
      KnowledgeEvaluator eval(view, Config(threads, true));
      for (const FormulaPtr& f : folded)
        ASSERT_EQ(eval.SatisfyingSet(f), by_state.SatisfyingSet(f))
            << abstraction.name() << ": " << f->ToString()
            << " threads=" << threads;
    }
  }
  // The last event of process 2 does not tell its event count, so K{2} b
  // under that abstraction is not b: the state fold would be wrong.
  ReferenceKnowledge last_event(space, StateAbstraction::LastEvent());
  EXPECT_NE(last_event.SatisfyingSet(Formula::Knows(ProcessSet{2}, b)),
            reference.SatisfyingSet(b));
}

// The profitability dispatch: with no worker pool, a lone modal root stays on
// the lazy interpreter (no program compiles), while pure-boolean roots,
// fused batches, and sweeps with a worker pool use the kernel.
TEST(KnowledgeKernelTest, LoneModalRootStaysOnInterpreter) {
  RandomSystemOptions options;
  options.seed = 17;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const FormulaPtr atom = Formula::Atom(Predicate::Sent(0));
  const FormulaPtr modal = Formula::Knows(ProcessSet::Of(0), atom);

  KnowledgeEvaluator lazy(space, Config(1, true));
  lazy.SatisfyingSet(modal);
  EXPECT_EQ(lazy.MemoryUsage().kernel_programs, 0u);

  KnowledgeEvaluator boolean(space, Config(1, true));
  boolean.SatisfyingSet(Formula::And(atom, Formula::Not(atom)));
  EXPECT_EQ(boolean.MemoryUsage().kernel_programs, 1u);

  KnowledgeEvaluator fused(space, Config(1, true));
  const std::vector<FormulaPtr> batch = {modal,
                                         Formula::Sure(ProcessSet::Of(1), atom)};
  fused.SatisfyingSets(std::span<const FormulaPtr>(batch.data(), batch.size()));
  EXPECT_EQ(fused.MemoryUsage().kernel_programs, 1u);

  ASSERT_GE(space.size(), 128u);  // the worker-pool threshold
  KnowledgeEvaluator pooled(space, Config(4, true));
  pooled.SatisfyingSet(modal);
  EXPECT_EQ(pooled.MemoryUsage().kernel_programs, 1u);

  ReferenceKnowledge reference(space);
  EXPECT_EQ(lazy.SatisfyingSet(modal), reference.SatisfyingSet(modal));
  EXPECT_EQ(pooled.SatisfyingSet(modal), reference.SatisfyingSet(modal));
}

}  // namespace
}  // namespace hpl
