// Determinism contract of the range-sharded knowledge kernels: every
// KnowledgeOptions::num_threads value must reproduce the
// sequential verdicts byte for byte — satisfying sets, batch Holds,
// locality and constancy checks, and common-knowledge component labels —
// on both a canonicalized space and a lockstep (non-canonicalized) one,
// including re-entrant evaluation where whole-space sweeps interleave with
// pointwise Holds() probes over a shared formula DAG.
#include <gtest/gtest.h>

#include <vector>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "protocols/lockstep.h"

namespace hpl {
namespace {

std::vector<FormulaPtr> TestFormulas(const ComputationSpace& space,
                                     const Predicate& atom) {
  const ProcessSet all = space.AllProcesses();
  FormulaPtr a = Formula::Atom(atom);
  return {
      a,
      Formula::Knows(ProcessSet{0}, a),
      Formula::Knows(ProcessSet{1}, Formula::Knows(ProcessSet{0}, a)),
      Formula::Knows(all, a),
      Formula::Sure(ProcessSet{1}, a),
      Formula::Common(all, a),
      Formula::Common(ProcessSet{0, 1}, a),
      Formula::Everyone(all, a),
      Formula::Possible(ProcessSet{0}, Formula::Not(a)),
      Formula::Implies(Formula::Knows(ProcessSet{0}, a),
                       Formula::Everyone(all, a)),
  };
}

void ExpectIdenticalAnswers(const ComputationSpace& space,
                            const Predicate& atom, int threads) {
  KnowledgeEvaluator sequential(space, {.num_threads = 1});
  KnowledgeEvaluator parallel(space, {.num_threads = threads});

  for (const FormulaPtr& f : TestFormulas(space, atom)) {
    ASSERT_EQ(sequential.SatisfyingSet(f), parallel.SatisfyingSet(f))
        << f->ToString() << " at " << threads << " threads";
    ASSERT_EQ(sequential.HoldsAll(f), parallel.HoldsAll(f)) << f->ToString();
    for (ProcessId p = 0; p < space.num_processes(); ++p)
      ASSERT_EQ(sequential.IsLocalTo(f, ProcessSet::Of(p)),
                parallel.IsLocalTo(f, ProcessSet::Of(p)))
          << f->ToString() << " local to p" << p;
    ASSERT_EQ(sequential.IsConstant(f), parallel.IsConstant(f))
        << f->ToString();
  }

  const std::vector<ProcessSet> groups = {
      space.AllProcesses(), ProcessSet{0, 1}, ProcessSet::Of(0)};
  for (const ProcessSet& g : groups)
    for (std::size_t id = 0; id < space.size(); ++id)
      ASSERT_EQ(sequential.CommonComponent(g, id),
                parallel.CommonComponent(g, id))
          << g.ToString() << " component of " << id;
}

TEST(KnowledgeParallelTest, CanonicalizedSpaceIsThreadCountInvariant) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  ASSERT_GT(space.size(), 500u);  // large enough to take the parallel path
  for (int threads : {2, 4})
    ExpectIdenticalAnswers(space, Predicate::CountOnAtLeast(0, 2), threads);
}

TEST(KnowledgeParallelTest, LockstepSpaceIsThreadCountInvariant) {
  // Lockstep keeps literal interleavings (canonicalize = false), so bucket
  // shapes — and therefore the parallel sweeps — differ structurally from
  // the canonicalized case.
  protocols::LockstepSystem system(8);
  EnumerationLimits limits;
  limits.max_depth = 42;
  limits.canonicalize = false;
  const auto space = ComputationSpace::Enumerate(system, limits);
  ASSERT_GE(space.size(), 128u);  // parallel threshold
  ExpectIdenticalAnswers(space, system.Crashed(), 4);
}

TEST(KnowledgeParallelTest, AutoThreadCountMatchesSequential) {
  RandomSystemOptions options;
  options.seed = 11;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator sequential(space, {.num_threads = 1});
  KnowledgeEvaluator automatic(space);  // num_threads = 0: hardware
  const FormulaPtr f = Formula::Knows(
      ProcessSet{0}, Formula::Atom(Predicate::CountOnAtLeast(1, 1)));
  EXPECT_EQ(sequential.SatisfyingSet(f), automatic.SatisfyingSet(f));
}

TEST(KnowledgeParallelTest, ReentrantNestedEvaluationSharesPlanes) {
  // Whole-space parallel sweeps interleaved with pointwise Holds() over a
  // shared DAG: the memo planes filled by one query must serve the next,
  // whichever engine answered first, with verdicts unchanged throughout.
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.seed = 9;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  ASSERT_GT(space.size(), 500u);

  KnowledgeEvaluator sequential(space, {.num_threads = 1});
  KnowledgeEvaluator parallel(space, {.num_threads = 4});

  const FormulaPtr atom = Formula::Atom(Predicate::CountOnAtLeast(0, 2));
  const FormulaPtr inner = Formula::Knows(ProcessSet{0}, atom);
  const FormulaPtr outer = Formula::Knows(ProcessSet{1}, inner);
  const FormulaPtr deepest =
      Formula::Common(space.AllProcesses(), Formula::Or(outer, inner));

  // 1. Sweep the middle of the DAG.
  ASSERT_EQ(sequential.SatisfyingSet(outer), parallel.SatisfyingSet(outer));
  // 2. Pointwise probes on the shared inner node (hits the filled planes).
  for (std::size_t id = 0; id < space.size(); id += 97)
    ASSERT_EQ(sequential.Holds(inner, id), parallel.Holds(inner, id));
  // 3. A deeper formula re-entering the same nodes from above.
  ASSERT_EQ(sequential.SatisfyingSet(deepest),
            parallel.SatisfyingSet(deepest));
  // 4. Re-running a completed sweep is a no-op with identical output.
  ASSERT_EQ(sequential.SatisfyingSet(outer), parallel.SatisfyingSet(outer));
  // Whole-space sweeps memoize at least everything the lazy recursion did.
  EXPECT_GE(parallel.memo_size(), sequential.memo_size());
}

TEST(KnowledgeParallelTest, MemoSizeCountsFullPlanesExactly) {
  RandomSystemOptions options;
  options.seed = 3;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  ASSERT_GE(space.size(), 128u);
  KnowledgeEvaluator eval(space, {.num_threads = 4});
  EXPECT_EQ(eval.memo_size(), 0u);
  const FormulaPtr f = Formula::Knows(
      ProcessSet{0}, Formula::Atom(Predicate::CountOnAtLeast(0, 1)));
  eval.SatisfyingSet(f);
  // A whole-space sweep memoizes the top node at every class; the atom is
  // memoized wherever the lazy bucket sweeps demanded it.
  const std::size_t after_sweep = eval.memo_size();
  EXPECT_GE(after_sweep, space.size());
  EXPECT_LE(after_sweep, 2 * space.size());
  // Re-running the sweep hits the merged shared planes: nothing new.
  eval.SatisfyingSet(f);
  EXPECT_EQ(eval.memo_size(), after_sweep);
}

}  // namespace
}  // namespace hpl
