// Correctness contract of the projection-class memo tier: for
// singleton-group Knows / Sure / Possible and for Everyone, the verdict is
// constant per [p]-bucket, so memoizing per (node, [p]-class) and sweeping
// each bucket once must reproduce the paper's definitions byte for byte —
// satisfying sets, batch Holds, pointwise Holds, and CK component labels,
// checked against the independent ReferenceKnowledge oracle — at 1 and 4
// worker threads, kernels off and on, on a canonicalized space and a
// lockstep (non-canonicalized) one.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "protocols/lockstep.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

std::vector<FormulaPtr> TierFormulas(const ComputationSpace& space,
                                     const Predicate& atom) {
  const ProcessSet all = space.AllProcesses();
  FormulaPtr a = Formula::Atom(atom);
  return {
      // The tier's direct targets: singleton-group modalities ...
      Formula::Knows(ProcessSet{0}, a),
      Formula::Sure(ProcessSet{1}, a),
      Formula::Possible(ProcessSet{0}, Formula::Not(a)),
      Formula::Everyone(all, a),
      // ... nested so bucket sweeps trigger from inside other sweeps ...
      Formula::Knows(ProcessSet{1}, Formula::Knows(ProcessSet{0}, a)),
      Formula::Everyone(all, Formula::Knows(ProcessSet{0}, a)),
      Formula::Not(Formula::Sure(ProcessSet{0}, a)),
      // ... and mixed with nodes this tier does not cover (multi-process
      // groups — the [G]-tier's domain, see KnowledgeGroupMemoTest —
      // and CK), which must keep their own paths intact.
      Formula::Knows(all, a),
      Formula::Common(all, a),
      Formula::Implies(Formula::Knows(ProcessSet{0}, a),
                       Formula::Everyone(all, a)),
  };
}

void ExpectTierInvariant(const ComputationSpace& space, const Predicate& atom) {
  ReferenceKnowledge reference(space);
  for (int threads : {1, 4}) {
    for (bool kernels : {false, true}) {
      KnowledgeEvaluator eval(
          space, {.num_threads = threads, .compiled_kernels = kernels});
      for (const FormulaPtr& f : TierFormulas(space, atom)) {
        ASSERT_EQ(eval.SatisfyingSet(f), reference.SatisfyingSet(f))
            << f->ToString() << " at " << threads
            << " threads, kernels=" << kernels;
        ASSERT_EQ(eval.HoldsAll(f), reference.HoldsAll(f)) << f->ToString();
      }
      // Pointwise probes on a cold evaluator take the lazy interpreter.
      KnowledgeEvaluator cold(
          space, {.num_threads = threads, .compiled_kernels = kernels});
      for (const FormulaPtr& f : TierFormulas(space, atom))
        for (std::size_t id = 0; id < space.size(); id += 17)
          ASSERT_EQ(cold.Holds(f, id), reference.Holds(f, id))
              << f->ToString() << " at " << id;
      const ProcessSet all = space.AllProcesses();
      for (std::size_t id = 0; id < space.size(); ++id)
        ASSERT_EQ(eval.CommonComponent(all, id),
                  reference.CommonComponent(all, id))
            << "component of " << id;
      // The tier actually engaged.
      EXPECT_GT(eval.MemoryUsage().bucket_entries, 0u);
      EXPECT_GT(cold.MemoryUsage().bucket_entries, 0u);
    }
  }
}

TEST(KnowledgeBucketMemoTest, CanonicalizedSpaceIsTierInvariant) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  ASSERT_GT(space.size(), 500u);  // large enough to take the parallel path
  ExpectTierInvariant(space, Predicate::CountOnAtLeast(0, 2));
}

TEST(KnowledgeBucketMemoTest, LockstepSpaceIsTierInvariant) {
  protocols::LockstepSystem system(8);
  EnumerationLimits limits;
  limits.max_depth = 42;
  limits.canonicalize = false;
  const auto space = ComputationSpace::Enumerate(system, limits);
  ASSERT_GE(space.size(), 128u);  // parallel threshold
  ExpectTierInvariant(space, system.Crashed());
}

TEST(KnowledgeBucketMemoTest, SingletonSweepsMemoizePerBucketNotPerMember) {
  // After one whole-space sweep of K{0} atom, the tier holds exactly one
  // entry per [0]-class — that is the sum-of-squares -> linear collapse.
  // The atom is local to process 1, not 0, so K{0} of it does not fold.
  RandomSystemOptions options;
  options.seed = 7;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space, {.num_threads = 1});
  const FormulaPtr f = Formula::Knows(
      ProcessSet{0}, Formula::Atom(Predicate::CountOnAtLeast(1, 1)));
  eval.SatisfyingSet(f);
  EXPECT_EQ(eval.MemoryUsage().bucket_entries,
            space.PartitionOf(ProcessSet{0}).NumClasses());
}

TEST(KnowledgeBucketMemoTest, MemoStatsSplitByTier) {
  RandomSystemOptions options;
  options.seed = 3;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space, {.num_threads = 1});
  EXPECT_EQ(eval.MemoryUsage().bytes_total, 0u);
  // A singleton modality fills [p]-tier rows; a multi-process Everyone owns
  // [G]-tier rows (its per-member conjunct rows).  One fused batch, so the
  // sweep lowers to one compiled kernel and the kernel tier is populated
  // alongside the projection tiers: the negation under the last root is
  // neither an atom nor a root, so it runs in a register plane.  The
  // singleton modalities are over process 1: the atom is local to process
  // 0, so K{0} of it would fold to the atom and fill no row.
  const FormulaPtr atom = Formula::Atom(Predicate::CountOnAtLeast(0, 1));
  const std::vector<FormulaPtr> batch = {
      Formula::Knows(ProcessSet{1}, atom),
      Formula::Everyone(space.AllProcesses(), atom),
      Formula::Knows(ProcessSet{1}, Formula::Not(atom))};
  eval.SatisfyingSets(std::span<const FormulaPtr>(batch.data(), batch.size()));
  const auto stats = eval.MemoryUsage();
  EXPECT_EQ(stats.dense_entries, eval.memo_size());
  EXPECT_GT(stats.bucket_entries, 0u);
  EXPECT_GT(stats.group_entries, 0u);
  EXPECT_GT(stats.bytes_dense, 0u);
  EXPECT_GT(stats.bytes_bucket, 0u);
  EXPECT_GT(stats.bytes_group, 0u);
  // Whole-space sweeps lower to compiled kernels by default, so the kernel
  // tier (programs compiled since the last Refresh, register planes) is
  // populated too.
  EXPECT_GT(stats.kernel_programs, 0u);
  EXPECT_GT(stats.kernel_ops, 0u);
  EXPECT_GT(stats.bytes_kernel, 0u);
  EXPECT_EQ(stats.bytes_total, stats.bytes_dense + stats.bytes_bucket +
                                   stats.bytes_group + stats.bytes_kernel);
}

}  // namespace
}  // namespace hpl
