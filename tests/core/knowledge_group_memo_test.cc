// Correctness contract of the [G]-class memo tier: for multi-process
// Knows / Sure / Possible the quantifier ranges exactly over the
// [G]-bucket, and Everyone's conjunction is constant on the [G]-class, so
// memoizing per (node, [G]-class) — and building CK components over
// contracted [G]-classes — must reproduce the paper's definitions byte for
// byte: satisfying sets, batch Holds, pointwise Holds, and CK component
// labels, checked against the independent ReferenceKnowledge oracle at 1
// and 4 worker threads, kernels off and on, on a canonicalized space and a
// lockstep (non-canonicalized) one, including nested
// Everyone(G, Knows(p, f)).
#include <gtest/gtest.h>

#include <vector>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "protocols/lockstep.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

std::vector<FormulaPtr> GroupTierFormulas(const ComputationSpace& space,
                                          const Predicate& atom) {
  const ProcessSet all = space.AllProcesses();
  const ProcessSet pair{0, 1};
  FormulaPtr a = Formula::Atom(atom);
  return {
      // The tier's direct targets: multi-process modalities ...
      Formula::Knows(pair, a),
      Formula::Knows(all, a),
      Formula::Sure(pair, a),
      Formula::Possible(pair, Formula::Not(a)),
      Formula::Everyone(pair, a),
      Formula::Everyone(all, a),
      // ... nested, so [G]-bucket sweeps trigger from inside other sweeps
      // (the issue's Everyone(G, Knows(p, f)) differential) ...
      Formula::Everyone(pair, Formula::Knows(ProcessSet{0}, a)),
      Formula::Knows(pair, Formula::Everyone(all, a)),
      Formula::Knows(ProcessSet{1}, Formula::Knows(pair, a)),
      Formula::Not(Formula::Knows(all, a)),
      // ... and mixed with singleton-tier and CK nodes, whose paths must
      // stay intact.
      Formula::Knows(ProcessSet{0}, a),
      Formula::Common(all, a),
      Formula::Implies(Formula::Knows(pair, a), Formula::Everyone(pair, a)),
  };
}

void ExpectGroupTierInvariant(const ComputationSpace& space,
                              const Predicate& atom) {
  ReferenceKnowledge reference(space);
  for (int threads : {1, 4}) {
    for (bool kernels : {false, true}) {
      KnowledgeEvaluator eval(
          space, {.num_threads = threads, .compiled_kernels = kernels});
      for (const FormulaPtr& f : GroupTierFormulas(space, atom)) {
        ASSERT_EQ(eval.SatisfyingSet(f), reference.SatisfyingSet(f))
            << f->ToString() << " at " << threads
            << " threads, kernels=" << kernels;
        ASSERT_EQ(eval.HoldsAll(f), reference.HoldsAll(f)) << f->ToString();
      }
      // Pointwise probes on a cold evaluator take the lazy interpreter.
      KnowledgeEvaluator cold(
          space, {.num_threads = threads, .compiled_kernels = kernels});
      for (const FormulaPtr& f : GroupTierFormulas(space, atom))
        for (std::size_t id = 0; id < space.size(); id += 17)
          ASSERT_EQ(cold.Holds(f, id), reference.Holds(f, id))
              << f->ToString() << " at " << id;
      // CK components: the [G]-contracted union-find must produce the
      // smallest-member labels of the reference union-find over
      // [p]-classes, for the full group and a pair.
      for (ProcessSet g : {space.AllProcesses(), ProcessSet{0, 1}})
        for (std::size_t id = 0; id < space.size(); ++id)
          ASSERT_EQ(eval.CommonComponent(g, id),
                    reference.CommonComponent(g, id))
              << "component of " << id << " at " << threads << " threads";
      // The tier actually engaged.
      EXPECT_GT(eval.MemoryUsage().group_entries, 0u);
      EXPECT_GT(cold.MemoryUsage().group_entries, 0u);
    }
  }
}

TEST(KnowledgeGroupMemoTest, CanonicalizedSpaceIsTierInvariant) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  ASSERT_GT(space.size(), 500u);  // large enough to take the parallel path
  ExpectGroupTierInvariant(space, Predicate::CountOnAtLeast(0, 2));
}

TEST(KnowledgeGroupMemoTest, LockstepSpaceIsTierInvariant) {
  protocols::LockstepSystem system(8);
  EnumerationLimits limits;
  limits.max_depth = 42;
  limits.canonicalize = false;
  const auto space = ComputationSpace::Enumerate(system, limits);
  ASSERT_GE(space.size(), 128u);  // parallel threshold
  ExpectGroupTierInvariant(space, system.Crashed());
}

TEST(KnowledgeGroupMemoTest, SequentialAndParallelEnginesAgreeWithTierOn) {
  // Sharded kernel passes must fill [G]-rows exactly like [p]-rows: the
  // 4-thread kernels, the 1-thread kernels, and the sequential interpreter
  // all match the reference.
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 7;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  ASSERT_GT(space.size(), 1000u);
  ReferenceKnowledge reference(space);
  KnowledgeEvaluator interpreted(
      space, {.num_threads = 1, .compiled_kernels = false});
  KnowledgeEvaluator seq(space, {.num_threads = 1});
  KnowledgeEvaluator par(space, {.num_threads = 4});
  const FormulaPtr atom = Formula::Atom(Predicate::CountOnAtLeast(0, 2));
  for (const FormulaPtr& f :
       {Formula::Knows(ProcessSet{0, 1, 2}, atom),
        Formula::Everyone(ProcessSet{1, 2, 3}, atom),
        Formula::Everyone(ProcessSet{0, 1},
                          Formula::Knows(ProcessSet{2}, atom))}) {
    const auto expected = reference.SatisfyingSet(f);
    ASSERT_EQ(interpreted.SatisfyingSet(f), expected) << f->ToString();
    ASSERT_EQ(seq.SatisfyingSet(f), expected) << f->ToString();
    ASSERT_EQ(par.SatisfyingSet(f), expected) << f->ToString();
  }
}

TEST(KnowledgeGroupMemoTest, GroupSweepsMemoizePerGroupClassNotPerMember) {
  // After one whole-space sweep of K{0,1} atom, the [G]-row holds exactly
  // one entry per [G]-class — the sum-of-squares -> linear collapse, now
  // for group modalities.
  RandomSystemOptions options;
  options.seed = 7;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space, {.num_threads = 1});
  const ProcessSet pair{0, 1};
  const FormulaPtr f =
      Formula::Knows(pair, Formula::Atom(Predicate::CountOnAtLeast(0, 1)));
  eval.SatisfyingSet(f);
  EXPECT_EQ(eval.MemoryUsage().group_entries,
            space.EnsureGroupIndex(pair).NumClasses());
}

TEST(KnowledgeGroupMemoTest, EvaluatorReusesAnEnsuredIndex) {
  // A space whose [G]-index was ensured before the evaluator existed (as
  // hpl_cli --group does) already owns it; the evaluator's tier must attach
  // to that table rather than build a second one, and verdicts must match
  // an evaluator that builds the index on first use.
  RandomSystemOptions options;
  options.seed = 5;
  RandomSystem system(options);
  const ProcessSet pair{0, 1};
  const auto pre_indexed =
      ComputationSpace::Enumerate(system, {.max_depth = 24});
  const auto lazy = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const Partition index = pre_indexed.EnsureGroupIndex(pair);
  const std::size_t index_bytes = pre_indexed.MemoryUsage().bytes_group_index;
  ASSERT_FALSE(lazy.HasGroupIndex(pair));
  KnowledgeEvaluator eval_pre(pre_indexed, {.num_threads = 1});
  KnowledgeEvaluator eval_lazy(lazy, {.num_threads = 1});
  const FormulaPtr f =
      Formula::Knows(pair, Formula::Atom(Predicate::CountOnAtLeast(0, 1)));
  EXPECT_EQ(eval_pre.SatisfyingSet(f), eval_lazy.SatisfyingSet(f));
  EXPECT_EQ(pre_indexed.EnsureGroupIndex(pair).Bucket(0).data(),
            index.Bucket(0).data());
  EXPECT_EQ(pre_indexed.MemoryUsage().bytes_group_index, index_bytes);
  EXPECT_TRUE(lazy.HasGroupIndex(pair));
}

}  // namespace
}  // namespace hpl
