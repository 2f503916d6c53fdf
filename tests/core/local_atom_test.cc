// Atoms local by construction (Predicate::OnProjection): a predicate that
// sees only p's projection is constant on [p]-classes, so the kernels call
// it once per [p]-class, on projections streamed along the space's
// projection trie, and scatter the class verdicts to the ids.
//
// The perfbench oracle evaluates the same new predicates, so it cannot catch
// a wrong rewrite: the built-in local atoms are checked here against the
// whole-computation bodies they had before, kept verbatim, at every class of
// a token-bus, a random and a crash-fault space.  The counting tests pin the
// one-call-per-class contract across Deepen + Refresh, and a Deepen that
// throws must leave local-atom verdicts those of the fresh space.
#include <atomic>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/faults.h"
#include "core/knowledge.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "protocols/token_bus.h"

namespace hpl {
namespace {

// TokenBusSystem::HoldsToken as a whole-computation predicate, verbatim.
Predicate WholeTokenAt(ProcessId p) {
  return hpl::Predicate(
      "token_at_p" + std::to_string(p), [p](const hpl::Computation& x) {
        bool in_flight = false;
        hpl::ProcessId holder = 0;
        for (const hpl::Event& e : x.events()) {
          if (e.IsSend()) in_flight = true;
          if (e.IsReceive()) {
            in_flight = false;
            holder = e.process;
          }
        }
        return !in_flight && holder == p;
      });
}

// Predicate::CountOnAtLeast as a whole-computation predicate, verbatim.
Predicate WholeCountOnAtLeast(ProcessId p, int k) {
  return Predicate(
      "count(p" + std::to_string(p) + ")>=" + std::to_string(k),
      [p, k](const Computation& x) { return x.CountOn(p) >= k; });
}

// Predicate::DidInternal as a whole-computation predicate, its body
// verbatim.  The name is built before the label moves into the lambda: the
// old constructor built both in one call, whose argument order gcc
// evaluates right to left, so every label was named "did(pN,)".
Predicate WholeDidInternal(ProcessId p, std::string label) {
  std::string name = "did(p" + std::to_string(p) + "," + label + ")";
  return Predicate(
      std::move(name),
      [p, label = std::move(label)](const Computation& x) {
        for (const Event& e : x.events())
          if (e.process == p && e.IsInternal() && e.label == label)
            return true;
        return false;
      });
}

// `local` must agree with `whole` at every class: evaluated on the
// materialized computation, and as a whole-space plane from the class pass
// at 1 and 2 threads.  Separate evaluators: atoms are keyed by name.
void ExpectSameVerdicts(const ComputationSpace& space, const Predicate& local,
                        const Predicate& whole) {
  ASSERT_NE(local.local_process(), kNoProcess) << local.name();
  ASSERT_EQ(local.name(), whole.name());
  std::vector<std::size_t> expected;
  for (std::size_t id = 0; id < space.size(); ++id) {
    const Computation x = space.At(id);
    const bool want = whole.Eval(x);
    ASSERT_EQ(local.Eval(x), want) << local.name() << " at class " << id;
    if (want) expected.push_back(id);
  }
  for (const int threads : {1, 2}) {
    KnowledgeEvaluator eval(space, {.num_threads = threads});
    EXPECT_EQ(eval.SatisfyingSet(Formula::Atom(local)), expected)
        << local.name() << " threads=" << threads;
  }
}

TEST(LocalAtomTest, HoldsTokenMatchesTheWholeComputationPredicate) {
  const protocols::TokenBusSystem bus(/*num_processes=*/6, /*passes=*/12);
  const auto space = ComputationSpace::Enumerate(bus);
  ASSERT_FALSE(space.truncated());
  for (ProcessId p = 0; p < 6; ++p) {
    EXPECT_EQ(bus.HoldsToken(p).local_process(), p);
    ExpectSameVerdicts(space, bus.HoldsToken(p), WholeTokenAt(p));
  }
}

// Every internal label the space's computations carry, per process.
std::vector<std::set<std::string>> InternalLabels(
    const ComputationSpace& space) {
  std::vector<std::set<std::string>> labels(
      static_cast<std::size_t>(space.num_processes()));
  for (std::size_t id = 0; id < space.size(); ++id) {
    const Computation x = space.At(id);
    for (const Event& e : x.events())
      if (e.IsInternal())
        labels[static_cast<std::size_t>(e.process)].insert(e.label);
  }
  return labels;
}

void ExpectBuiltinsMatch(const ComputationSpace& space) {
  const auto labels = InternalLabels(space);
  // A process outside the system has an empty projection everywhere.
  for (ProcessId p = 0; p <= space.num_processes(); ++p) {
    for (const int k : {0, 1, 2, 4})
      ExpectSameVerdicts(space, Predicate::CountOnAtLeast(p, k),
                         WholeCountOnAtLeast(p, k));
    // Every process's labels under every process: a label of q names no
    // event of p.
    for (const auto& of_q : labels)
      for (const std::string& label : of_q)
        ExpectSameVerdicts(space, Predicate::DidInternal(p, label),
                           WholeDidInternal(p, label));
  }
}

TEST(LocalAtomTest, CountAndDidInternalMatchTheirWholeComputationBodies) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.internal_events = 2;
  options.seed = 29;
  const RandomSystem random(options);
  ExpectBuiltinsMatch(ComputationSpace::Enumerate(random));

  const protocols::TokenBusSystem bus(/*num_processes=*/3, /*passes=*/3);
  const CrashFaultSystem faulty(bus, {.max_crashes = 1, .may_crash = {}});
  const auto crashes = ComputationSpace::Enumerate(faulty);
  ASSERT_FALSE(InternalLabels(crashes)[1].empty());  // "crash" events
  ExpectBuiltinsMatch(crashes);
}

EnumerationLimits Capped(int depth, int threads) {
  EnumerationLimits limits;
  limits.max_depth = depth;
  limits.allow_truncation = true;
  limits.num_threads = threads;
  return limits;
}

TEST(LocalAtomTest, ClassPassCallsThePredicateOncePerClass) {
  // Once per [p]-class on a fresh space; after Deepen + Refresh every old
  // class's representative is known, so only the newly minted [p]-classes
  // call it; a repeat calls it never.  Process 2 of this bus has enough
  // classes that the two-thread pass shards them.
  const protocols::TokenBusSystem bus(/*num_processes=*/6, /*passes=*/12);
  const Predicate holds = bus.HoldsToken(2);
  std::atomic<std::size_t> calls{0};
  const Predicate counted = Predicate::OnProjection(
      2, "counted_token_at_p2", [&](std::span<const Event> projection) {
        calls.fetch_add(1);
        return holds.EvalProjection(projection);
      });
  // A pointwise root: the evaluator always lowers it to a kernel program.
  const FormulaPtr f = Formula::Not(Formula::Atom(counted));
  for (const int threads : {1, 2}) {
    SpaceBuilder builder;
    builder.Build(bus, Capped(20, threads));
    const auto classes = [&] {
      return builder.space().PartitionOf(ProcessSet{2}).NumClasses();
    };
    const std::size_t old_classes = classes();
    ASSERT_GT(old_classes, 128u);
    calls = 0;
    KnowledgeEvaluator eval(builder.space(), {.num_threads = threads});
    (void)eval.SatisfyingSet(f);
    EXPECT_EQ(calls.load(), old_classes) << threads;

    ASSERT_GT(builder.Deepen(1), 0u);
    eval.Refresh();
    ASSERT_GT(classes(), old_classes);
    calls = 0;
    const auto after = eval.SatisfyingSet(f);
    EXPECT_EQ(calls.load(), classes() - old_classes) << threads;
    calls = 0;
    (void)eval.SatisfyingSet(f);
    EXPECT_EQ(calls.load(), 0u) << threads;

    KnowledgeEvaluator fresh(
        builder.space(), {.num_threads = 1, .compiled_kernels = false});
    EXPECT_EQ(after, fresh.SatisfyingSet(f)) << threads;
  }
}

std::string BuilderBytes(const SpaceBuilder& builder) {
  std::ostringstream out;
  SaveSpaceBuilderSnapshot(builder, out);
  return out.str();
}

TEST(LocalAtomTest, DeepenThatThrowsLeavesTheFreshVerdicts) {
  // SpaceBuilderTest.DeepenThatThrowsIsANoOp's cases: a capped builder
  // reloaded under stricter limits mints part of a level, then throws — at
  // the depth cap (resident or spilling), or on the class budget.  The
  // projection tries built before the throw must still describe the parked
  // space: local-atom queries, before and after, equal a fresh space's.
  const protocols::TokenBusSystem bus(/*num_processes=*/3, /*passes=*/3);
  const auto reference = ComputationSpace::Enumerate(bus, Capped(3, 1));
  std::vector<FormulaPtr> formulas;
  for (ProcessId p = 0; p < 3; ++p) {
    const FormulaPtr atom = Formula::Atom(bus.HoldsToken(p));
    formulas.push_back(atom);
    formulas.push_back(Formula::Knows(ProcessSet{(p + 1) % 3}, atom));
    formulas.push_back(
        Formula::Atom(Predicate::CountOnAtLeast(p, 2)));
  }
  const std::span<const FormulaPtr> batch(formulas.data(), formulas.size());
  KnowledgeEvaluator reference_eval(reference, {.num_threads = 1});
  const auto expected = reference_eval.SatisfyingSets(batch);

  for (const int threads : {1, 4}) {
    SpaceBuilder capped;
    capped.Build(bus, Capped(3, threads));
    const std::string parked = BuilderBytes(capped);
    EnumerationLimits at_cap = Capped(3, threads);
    at_cap.allow_truncation = false;
    EnumerationLimits budget = Capped(3, threads);
    budget.max_classes = capped.space().size() + 1;
    EnumerationLimits spilled = at_cap;
    spilled.segments.segment_shift = 2;
    spilled.segments.residency_budget_bytes = 256;
    for (const EnumerationLimits& strict : {at_cap, budget, spilled}) {
      std::istringstream in(parked);
      SpaceBuilder builder = LoadSpaceBuilderSnapshot(bus, in, strict);
      KnowledgeEvaluator eval(builder.space(), {.num_threads = threads});
      EXPECT_EQ(eval.SatisfyingSets(batch), expected) << threads;
      EXPECT_THROW(builder.Deepen(1), ModelError);
      KnowledgeEvaluator after(builder.space(), {.num_threads = threads});
      EXPECT_EQ(after.SatisfyingSets(batch), expected) << threads;
    }
  }
}

}  // namespace
}  // namespace hpl
