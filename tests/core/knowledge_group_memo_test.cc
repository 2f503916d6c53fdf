// Correctness contract of the [G]-class memo tier: for multi-process
// Knows / Sure / Possible the quantifier ranges exactly over the
// [G]-bucket, so memoizing per (node, [G]-class) — and building CK
// components from the member [p]-classes alone — must reproduce the paper's
// definitions byte for byte: satisfying sets, batch Holds, pointwise Holds,
// and CK component labels, checked against the independent
// ReferenceKnowledge oracle at 1 and 4 worker threads, kernels off and on,
// on a canonicalized space and a lockstep (non-canonicalized) one,
// including nested Everyone(G, Knows(p, f)).  Everyone is a conjunction of
// per-member K{p}, so it must answer from its [p]-rows without ever
// building a [G]-table; neither may a CK query.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/faults.h"
#include "core/knowledge.h"
#include "core/random_system.h"
#include "core/space.h"
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
  // for group modalities.  The atom is local to process 2, outside the
  // group, so K{0,1} of it does not fold.
  RandomSystemOptions options;
  options.seed = 7;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space, {.num_threads = 1});
  const ProcessSet pair{0, 1};
  const FormulaPtr f =
      Formula::Knows(pair, Formula::Atom(Predicate::CountOnAtLeast(2, 1)));
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

TEST(KnowledgeGroupMemoTest, EveryoneBuildsNoGroupTable) {
  // E{G} f is the conjunction of K{p} f over p in G: every quantifier in it
  // ranges over one member's [p]-relation, so no query path — pointwise
  // interpreter, whole-space kernels or sequential pass, before or after
  // Deepen + Refresh — may materialize the space's [G]-table.
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  const ProcessSet pair{0, 1}, triple{0, 1, 2};
  const FormulaPtr a = Formula::Atom(Predicate::CountOnAtLeast(0, 2));
  const std::vector<FormulaPtr> formulas = {Formula::Everyone(pair, a),
                                            Formula::Everyone(triple, a)};
  for (int threads : {1, 4}) {
    for (bool kernels : {false, true}) {
      EnumerationLimits limits;
      limits.max_depth = 8;
      limits.allow_truncation = true;
      limits.num_threads = threads;
      SpaceBuilder builder;
      builder.Build(system, limits);
      KnowledgeEvaluator eval(
          builder.space(),
          {.num_threads = threads, .compiled_kernels = kernels});
      const auto expect_no_group_table = [&](const char* stage) {
        const ComputationSpace& space = builder.space();
        ASSERT_GE(space.size(), 128u) << stage;  // parallel threshold
        ReferenceKnowledge reference(space);
        for (const FormulaPtr& f : formulas) {
          // Pointwise first, so the interpreter runs on unmemoized ids.
          for (std::size_t id = 0; id < space.size(); id += 7)
            ASSERT_EQ(eval.Holds(f, id), reference.Holds(f, id))
                << f->ToString() << " at " << id << ", " << stage;
          ASSERT_EQ(eval.SatisfyingSet(f), reference.SatisfyingSet(f))
              << f->ToString() << ", " << stage;
          ASSERT_EQ(eval.HoldsAll(f), reference.HoldsAll(f))
              << f->ToString() << ", " << stage;
        }
        EXPECT_FALSE(space.HasGroupIndex(pair))
            << stage << " at " << threads << " threads, kernels=" << kernels;
        EXPECT_FALSE(space.HasGroupIndex(triple))
            << stage << " at " << threads << " threads, kernels=" << kernels;
      };
      expect_no_group_table("built");
      ASSERT_GT(builder.Deepen(1), 0u);
      eval.Refresh();
      expect_no_group_table("deepened");
    }
  }
}

TEST(KnowledgeGroupMemoTest, CommonComponentsMatchReferenceAndBuildNoGroupTable) {
  // CK components over |G| = 2 and 3 union the first member's [p]-classes
  // over the other members' buckets: the labels must be the oracle's
  // smallest members, on a random space and on its crash-fault extension,
  // before and after Deepen + Refresh, and no [G]-table may appear.
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.internal_events = 1;
  options.seed = 19;
  const RandomSystem base(options);
  const CrashFaultSystem faulty(base, {.max_crashes = 1, .may_crash = {}});
  const std::vector<ProcessSet> groups = {ProcessSet{0, 1}, ProcessSet{1, 2},
                                          ProcessSet{0, 1, 2}};
  for (const System* system : {static_cast<const System*>(&base),
                               static_cast<const System*>(&faulty)}) {
    SpaceBuilder builder;
    builder.Build(*system,
                  {.max_depth = 6, .allow_truncation = true, .num_threads = 1});
    KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
    for (const char* stage : {"built", "deepened"}) {
      const ComputationSpace& space = builder.space();
      ASSERT_GT(space.size(), 50u) << system->Name() << " " << stage;
      ReferenceKnowledge reference(space);
      for (const ProcessSet g : groups) {
        for (std::size_t id = 0; id < space.size(); ++id)
          ASSERT_EQ(eval.CommonComponent(g, id),
                    reference.CommonComponent(g, id))
              << system->Name() << " " << g.ToString() << " id " << id
              << ", " << stage;
        EXPECT_FALSE(space.HasGroupIndex(g))
            << system->Name() << " " << g.ToString() << ", " << stage;
      }
      if (std::string(stage) == "built") {
        ASSERT_GT(builder.Deepen(2), 0u);
        eval.Refresh();
      }
    }
  }
}

TEST(KnowledgeGroupMemoTest, MemoryUsageCountsCommonComponentTables) {
  // A multi-process CK component table holds a class and a member slot per
  // id, so it is at least 8 B per class, and bytes_total includes it.
  RandomSystemOptions options;
  options.seed = 7;
  RandomSystem system(options);
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space, {.num_threads = 1});
  EXPECT_EQ(eval.MemoryUsage().bytes_components, 0u);
  eval.SatisfyingSet(Formula::Common(
      ProcessSet{0, 1}, Formula::Atom(Predicate::CountOnAtLeast(0, 1))));
  const auto stats = eval.MemoryUsage();
  EXPECT_GE(stats.bytes_components, 8 * space.size());
  EXPECT_EQ(stats.bytes_total, stats.bytes_dense + stats.bytes_bucket +
                                   stats.bytes_group + stats.bytes_kernel +
                                   stats.bytes_components);
}

}  // namespace
}  // namespace hpl
