// Differential check of nested multi-process Knows against the
// definitional ReferenceKnowledge oracle.  The space is large enough that
// [G]-bucket sweeps of the outer modality recurse into sweeps of the inner
// one over buckets of 64+ members — a regression guard for re-entrancy bugs
// in the lazy interpreter's tier rows, which pointwise Holds exercises.
#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

TEST(KnowledgeNestedTest, NestedMultiProcessKnowsMatchesBruteForce) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  ASSERT_GT(space.size(), 500u);

  // Confirm the sweeps are large: some multi-process bucket pair where the
  // smallest bucket has >= 64 members.
  bool big_bucket = false;
  for (std::size_t id = 0; id < space.size() && !big_bucket; ++id) {
    std::size_t smallest = SIZE_MAX;
    for (ProcessId p : {1, 2}) {
      const Partition part = space.PartitionOf(ProcessSet::Of(p));
      smallest = std::min(smallest, part.Bucket(part.ClassOf(id)).size());
    }
    big_bucket = smallest >= 64;
  }
  ASSERT_TRUE(big_bucket) << "space too small for large bucket sweeps";

  const Predicate inner_atom = Predicate::CountOnAtLeast(1, 2);
  const Predicate outer_atom = Predicate::CountOnAtLeast(0, 1);
  KnowledgeEvaluator eval(space);
  auto formula = Formula::Knows(
      ProcessSet{0, 1},
      Formula::And(
          Formula::Knows(ProcessSet{1, 2}, Formula::Atom(inner_atom)),
          Formula::Atom(outer_atom)));
  const std::vector<bool> expected =
      ReferenceKnowledge(space).Verdicts(formula);
  for (std::size_t id = 0; id < space.size(); ++id)
    ASSERT_EQ(eval.Holds(formula, id), expected[id]) << "class " << id;

  // Same sweep again: everything must now come from the memo, unchanged.
  for (std::size_t id = 0; id < space.size(); ++id)
    ASSERT_EQ(eval.Holds(formula, id), expected[id]) << "memoized " << id;
}

TEST(KnowledgeNestedTest, VerdictsAreEvaluationOrderInvariant) {
  // Regression: the word-parallel iteration once used a shared scratch
  // buffer that re-entrant Eval calls overwrote, so a warm evaluator (its
  // memo seeded by earlier queries) could disagree with a cold one.  Needs
  // a space big enough (~31k classes) that nested evaluation recurses while
  // an outer bitset iteration is mid-flight across many words.
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 6;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 56});
  ASSERT_GT(space.size(), 30000u);

  auto formula = Formula::Knows(
      ProcessSet{0, 1},
      Formula::And(
          Formula::Knows(ProcessSet{1, 2},
                         Formula::Atom(Predicate::CountOnAtLeast(1, 2))),
          Formula::Atom(Predicate::CountOnAtLeast(0, 1))));
  KnowledgeEvaluator warm(space);
  for (std::size_t id = 0; id < space.size(); id += 97) {
    KnowledgeEvaluator cold(space);
    ASSERT_EQ(warm.Holds(formula, id), cold.Holds(formula, id))
        << "order-dependent verdict at class " << id;
  }
}

TEST(KnowledgeNestedTest, NestedSureAndPossibleMatchDefinitions) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.seed = 42;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 32});
  const Predicate atom = Predicate::CountOnAtLeast(1, 2);
  KnowledgeEvaluator eval(space);

  // Sure{P} f == K{P} f || K{P} !f and Possible{P} f == !K{P} !f, with the
  // inner operator running through the same related-set iteration.
  auto f = Formula::Knows(ProcessSet{1, 2}, Formula::Atom(atom));
  auto sure = Formula::Sure(ProcessSet{0, 1}, f);
  auto possible = Formula::Possible(ProcessSet{0, 1}, f);
  auto k_f = Formula::Knows(ProcessSet{0, 1}, f);
  auto k_not_f = Formula::Knows(ProcessSet{0, 1}, Formula::Not(f));
  for (std::size_t id = 0; id < space.size(); ++id) {
    ASSERT_EQ(eval.Holds(sure, id),
              eval.Holds(k_f, id) || eval.Holds(k_not_f, id))
        << "Sure at " << id;
    ASSERT_EQ(eval.Holds(possible, id), !eval.Holds(k_not_f, id))
        << "Possible at " << id;
  }
}

}  // namespace
}  // namespace hpl
