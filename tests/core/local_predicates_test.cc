// Local predicates (paper Section 4.2): the eight listed facts, Lemma 3,
// and the common-knowledge corollaries.
#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/random_system.h"

namespace hpl {
namespace {

// Fixture: a 3-process random-scripted system plus a predicate local to p0
// ("p0 performed its first internal event").
class LocalPredicateTest : public ::testing::Test {
 protected:
  LocalPredicateTest()
      : system_([] {
          RandomSystemOptions options;
          options.num_processes = 3;
          options.num_messages = 3;
          options.internal_events = 1;
          options.seed = 21;
          return RandomSystem(options);
        }()),
        space_(ComputationSpace::Enumerate(system_, {.max_depth = 24})),
        eval_(space_),
        b_(Predicate::CountOnAtLeast(0, 1)) {}

  RandomSystem system_;
  ComputationSpace space_;
  KnowledgeEvaluator eval_;
  Predicate b_;  // local to p0: depends only on p0's projection
};

TEST_F(LocalPredicateTest, BIsLocalToItsOwner) {
  EXPECT_TRUE(eval_.IsLocalTo(b_, ProcessSet{0}));
  EXPECT_TRUE(eval_.IsLocalTo(b_, ProcessSet{0, 1}));  // superset still sure
  EXPECT_FALSE(eval_.IsLocalTo(b_, ProcessSet{1}));
  EXPECT_FALSE(eval_.IsLocalTo(b_, ProcessSet{1, 2}));
}

TEST_F(LocalPredicateTest, Fact1IsomorphismPreservesLocalValues) {
  // (b local to P and x [P] y) implies b at x == b at y.
  const Partition p0 = space_.PartitionOf(ProcessSet{0});
  for (std::size_t a = 0; a < space_.size(); a += 3)
    for (std::uint32_t y : p0.Bucket(p0.ClassOf(a)))
      EXPECT_EQ(b_.Eval(space_.At(a)), b_.Eval(space_.At(y)));
}

TEST_F(LocalPredicateTest, Fact2LocalTruthIsKnown) {
  // b local to P implies (b == P knows b).
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_EQ(b_.Eval(space_.At(id)),
              eval_.Knows(ProcessSet{0}, b_, id))
        << id;
}

TEST_F(LocalPredicateTest, Fact3NegationStaysLocal) {
  EXPECT_TRUE(eval_.IsLocalTo(!b_, ProcessSet{0}));
}

TEST_F(LocalPredicateTest, Fact4KnowledgeOfLocalFactsCollapses) {
  // b local to P implies (Q knows b == Q knows P knows b).
  auto qb = Formula::Knows(ProcessSet{1}, Formula::Atom(b_));
  auto qpb = Formula::Knows(
      ProcessSet{1}, Formula::Knows(ProcessSet{0}, Formula::Atom(b_)));
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_EQ(eval_.Holds(qb, id), eval_.Holds(qpb, id)) << id;
}

TEST_F(LocalPredicateTest, Fact5KnowledgeIsLocalToKnower) {
  // (P knows b) is local to P.
  auto kb = Formula::Knows(ProcessSet{1}, Formula::Atom(b_));
  EXPECT_TRUE(eval_.IsLocalTo(kb, ProcessSet{1}));
  auto kb2 = Formula::Knows(ProcessSet{1, 2}, Formula::Atom(b_));
  EXPECT_TRUE(eval_.IsLocalTo(kb2, ProcessSet{1, 2}));
}

TEST_F(LocalPredicateTest, Fact7ConstantsAreLocalToEveryone) {
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(eval_.IsLocalTo(Predicate::True(), ProcessSet::Of(p)));
    EXPECT_TRUE(eval_.IsLocalTo(Predicate::False(), ProcessSet::Of(p)));
  }
}

TEST_F(LocalPredicateTest, Fact8SureIsLocal) {
  // (P sure b) is local to P — even for a predicate not itself local.
  const Predicate remote = Predicate::CountOnAtLeast(2, 1);
  auto sure = Formula::Sure(ProcessSet{1}, Formula::Atom(remote));
  EXPECT_TRUE(eval_.IsLocalTo(sure, ProcessSet{1}));
}

TEST_F(LocalPredicateTest, Lemma3DisjointLocalityForcesConstant) {
  // Our b is local to {0} and genuinely varies, so it must NOT be local to
  // any disjoint set (contrapositive of Lemma 3).
  ASSERT_FALSE(eval_.IsConstant(Formula::Atom(b_)));
  EXPECT_FALSE(eval_.IsLocalTo(b_, ProcessSet{1}));
  EXPECT_FALSE(eval_.IsLocalTo(b_, ProcessSet{2}));
  EXPECT_FALSE(eval_.IsLocalTo(b_, ProcessSet{1, 2}));
  // And a constant IS local to disjoint sets simultaneously.
  EXPECT_TRUE(eval_.IsLocalTo(Predicate::True(), ProcessSet{0}));
  EXPECT_TRUE(eval_.IsLocalTo(Predicate::True(), ProcessSet{1, 2}));
}

TEST_F(LocalPredicateTest, CommonKnowledgeOfConstantsHolds) {
  auto ck = Formula::Common(ProcessSet{0, 1, 2},
                            Formula::Atom(Predicate::True()));
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_TRUE(eval_.Holds(ck, id));
}

TEST_F(LocalPredicateTest, CommonKnowledgeCorollaryNeverGainedNorLost) {
  // "In a system with more than one process, for any predicate b,
  //  'b is common knowledge' is a constant."
  const ProcessSet all{0, 1, 2};
  const std::vector<Predicate> predicates = {
      b_, Predicate::CountOnAtLeast(1, 1), Predicate::Sent(0),
      Predicate::AllMessagesDelivered()};
  for (const Predicate& pred : predicates) {
    auto ck = Formula::Common(all, Formula::Atom(pred));
    EXPECT_TRUE(eval_.IsConstant(ck)) << pred.name();
    // In these connected systems the constant is in fact "false" for any
    // non-universal predicate...
    if (!eval_.Holds(ck, 0)) {
      for (std::size_t id = 0; id < space_.size(); ++id)
        EXPECT_FALSE(eval_.Holds(ck, id));
    }
  }
}

TEST_F(LocalPredicateTest, CommonComponentsPartition) {
  const ProcessSet g{0, 1};
  const std::uint32_t c0 = eval_.CommonComponent(g, 0);
  const Partition p0 = space_.PartitionOf(ProcessSet{0});
  bool found_other = false;
  for (std::size_t id = 0; id < space_.size(); ++id) {
    if (eval_.CommonComponent(g, id) != c0) found_other = true;
    // Same component as any [p]-neighbour, p in g.
    for (std::uint32_t y : p0.Bucket(p0.ClassOf(id)))
      EXPECT_EQ(eval_.CommonComponent(g, id), eval_.CommonComponent(g, y));
  }
  // This system's computations are all reachable from empty by
  // single-process steps, so everything collapses into one component.
  EXPECT_FALSE(found_other);
}

TEST_F(LocalPredicateTest, IdenticalKnowledgeCorollary) {
  // If disjoint P, Q had identical knowledge of b, P knows b would be
  // constant.  Here knowledge differs, so the corollary is vacuous; verify
  // instead on a constant predicate where it bites.
  auto p_knows = Formula::Knows(ProcessSet{0},
                                Formula::Atom(Predicate::True()));
  auto q_knows = Formula::Knows(ProcessSet{1},
                                Formula::Atom(Predicate::True()));
  bool identical = true;
  for (std::size_t id = 0; id < space_.size(); ++id)
    if (eval_.Holds(p_knows, id) != eval_.Holds(q_knows, id))
      identical = false;
  ASSERT_TRUE(identical);
  EXPECT_TRUE(eval_.IsConstant(p_knows));
}

}  // namespace
}  // namespace hpl
