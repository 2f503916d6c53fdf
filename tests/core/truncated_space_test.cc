// Knowledge queries over truncated spaces: enumeration with
// `allow_truncation = true` stops at max_depth and records the fact, and
// every knowledge query must still answer — the verdicts are approximations
// over the enumerated prefix (the quantifier domain is cut off), which is
// exactly why `truncated()` must stay surfaced on the space the evaluator
// quantifies over (the CLI prints a WARNING from the same bit; pinned by
// the integration.cli_truncation_warning ctest).
#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

// An unbounded system: every process can always take another internal step,
// so any finite space is a truncation.
LambdaSystem UnboundedSystem(int processes) {
  return LambdaSystem(
      processes,
      [processes](const Computation& x) {
        std::vector<Event> out;
        for (ProcessId p = 0; p < processes; ++p)
          out.push_back(Internal(p, "tick" + std::to_string(x.CountOn(p))));
        return out;
      },
      "unbounded");
}

TEST(TruncatedSpaceTest, TruncationIsSurfacedAndQueriesStillAnswer) {
  const LambdaSystem system = UnboundedSystem(3);
  const auto space = ComputationSpace::Enumerate(
      system, {.max_depth = 6, .allow_truncation = true});
  ASSERT_TRUE(space.truncated());
  ASSERT_GT(space.size(), 50u);

  KnowledgeEvaluator eval(space);
  const Predicate ticked = Predicate::CountOnAtLeast(0, 1);
  const FormulaPtr knows =
      Formula::Knows(ProcessSet{1}, Formula::Atom(ticked));
  // Approximate verdicts, but well-defined ones: the full sweep completes
  // and stays consistent with pointwise evaluation.
  const auto sat = eval.SatisfyingSet(knows);
  for (std::size_t id : sat) EXPECT_TRUE(eval.Holds(knows, id));
  // The evaluator's space still carries the truncation bit for callers that
  // need to qualify the answers (the CLI warning reads exactly this).
  EXPECT_TRUE(eval.space().truncated());
}

TEST(TruncatedSpaceTest, TruncatedVerdictsAreApproximations) {
  // The same query on a deeper truncation can flip: p1 "knows" p0 ticked at
  // the frontier only because the refuting longer computations were cut
  // off.  This documents why truncated verdicts must be treated as
  // approximations.
  const LambdaSystem system = UnboundedSystem(2);
  const auto shallow = ComputationSpace::Enumerate(
      system, {.max_depth = 2, .allow_truncation = true});
  const auto deeper = ComputationSpace::Enumerate(
      system, {.max_depth = 8, .allow_truncation = true});
  ASSERT_TRUE(shallow.truncated());
  ASSERT_TRUE(deeper.truncated());

  KnowledgeEvaluator shallow_eval(shallow);
  KnowledgeEvaluator deeper_eval(deeper);
  // "p1 knows p0 has ticked at most twice": in the shallow space every
  // computation p1 cannot distinguish from <p0.tick p0.tick> has <= 2 ticks
  // — the refuting longer computations were cut off — so K holds; the
  // deeper space keeps those refuters and K fails.
  const FormulaPtr knows = Formula::Knows(
      ProcessSet{1},
      Formula::Not(Formula::Atom(Predicate::CountOnAtLeast(0, 3))));
  const Computation two_ticks(
      {Internal(0, "tick0"), Internal(0, "tick1")});
  EXPECT_TRUE(shallow_eval.Holds(knows, shallow.RequireIndex(two_ticks)));
  EXPECT_FALSE(deeper_eval.Holds(knows, deeper.RequireIndex(two_ticks)));
}

TEST(TruncatedSpaceTest, TruncatedSpacesAreThreadAndMemoInvariant) {
  // Approximate or not, the determinism contracts hold on truncated spaces
  // too: thread counts and the engine do not change verdicts, which match
  // the definitional oracle over the same prefix.
  const LambdaSystem system = UnboundedSystem(3);
  const auto space = ComputationSpace::Enumerate(
      system, {.max_depth = 8, .allow_truncation = true});
  ASSERT_TRUE(space.truncated());
  ASSERT_GE(space.size(), 128u);  // parallel threshold

  const FormulaPtr f = Formula::Everyone(
      space.AllProcesses(), Formula::Atom(Predicate::CountOnAtLeast(1, 1)));
  ReferenceKnowledge reference(space);
  const auto expected = reference.SatisfyingSet(f);
  for (int threads : {1, 4}) {
    for (bool kernels : {false, true}) {
      KnowledgeEvaluator eval(
          space, {.num_threads = threads, .compiled_kernels = kernels});
      ASSERT_EQ(eval.SatisfyingSet(f), expected)
          << threads << " threads, kernels=" << kernels;
    }
  }
}

}  // namespace
}  // namespace hpl
