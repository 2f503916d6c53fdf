// Group-knowledge operators: E{G} (everyone knows), M{P} (possibility),
// EveryoneIterated (E^k) and their relationship to K (distributed
// knowledge) and CK — the Halpern-Moses hierarchy the paper cites in
// Section 4.2.
#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "protocols/relay.h"
#include "protocols/token_bus.h"

namespace hpl {
namespace {

class GroupKnowledgeTest : public ::testing::Test {
 protected:
  GroupKnowledgeTest()
      : relay_(3),
        space_(ComputationSpace::Enumerate(relay_, {.max_depth = 10})),
        eval_(space_),
        fact_(relay_.Fact()),
        all_{0, 1, 2} {}

  protocols::RelaySystem relay_;
  ComputationSpace space_;
  KnowledgeEvaluator eval_;
  Predicate fact_;
  ProcessSet all_;
};

TEST_F(GroupKnowledgeTest, EveryoneIsConjunctionOfIndividuals) {
  auto everyone = Formula::Everyone(all_, Formula::Atom(fact_));
  for (std::size_t id = 0; id < space_.size(); ++id) {
    bool expected = true;
    all_.ForEach([&](ProcessId p) {
      if (!eval_.Knows(ProcessSet::Of(p), fact_, id)) expected = false;
    });
    EXPECT_EQ(eval_.Holds(everyone, id), expected) << id;
  }
}

TEST_F(GroupKnowledgeTest, DistributedKnowledgeIsWeakerThanEveryone) {
  // E{G} b implies K{G} b (if everyone individually knows, the joint view
  // certainly does), not conversely.
  auto everyone = Formula::Everyone(all_, Formula::Atom(fact_));
  auto distributed = Formula::Knows(all_, Formula::Atom(fact_));
  bool strict = false;
  for (std::size_t id = 0; id < space_.size(); ++id) {
    if (eval_.Holds(everyone, id)) {
      EXPECT_TRUE(eval_.Holds(distributed, id)) << id;
    }
    if (eval_.Holds(distributed, id) && !eval_.Holds(everyone, id))
      strict = true;
  }
  EXPECT_TRUE(strict) << "distributed knowledge should exceed E somewhere";
}

TEST_F(GroupKnowledgeTest, PossibilityIsDualOfKnowledge) {
  auto possible = Formula::Possible(ProcessSet{1}, Formula::Atom(fact_));
  auto dual = Formula::Not(
      Formula::Knows(ProcessSet{1}, Formula::Not(Formula::Atom(fact_))));
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_EQ(eval_.Holds(possible, id), eval_.Holds(dual, id)) << id;
}

TEST_F(GroupKnowledgeTest, EveryoneHierarchyIsDecreasing) {
  // E^{k+1} b implies E^k b; the satisfying sets shrink with k.
  std::size_t previous = space_.size() + 1;
  for (int k = 0; k <= 4; ++k) {
    auto ek = Formula::EveryoneIterated(all_, k, Formula::Atom(fact_));
    const auto sat = eval_.SatisfyingSet(ek);
    EXPECT_LE(sat.size(), previous) << "k=" << k;
    previous = sat.size();
  }
}

TEST_F(GroupKnowledgeTest, HierarchyConvergesAboveCommonKnowledge) {
  // CK implies E^k for every k; in this relay (fact not constant) CK is
  // identically false while small E^k levels are reachable.
  auto ck = Formula::Common(all_, Formula::Atom(fact_));
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_FALSE(eval_.Holds(ck, id)) << id;
  auto e1 = Formula::EveryoneIterated(all_, 1, Formula::Atom(fact_));
  EXPECT_FALSE(eval_.SatisfyingSet(e1).empty())
      << "E^1 should be attainable in the completed relay";
}

TEST(GroupKnowledgeDecayTest, EveryoneHierarchyReachesZeroOnTokenBus) {
  // On a 4-process token ring, "everyone knows, k deep" about the token's
  // position is attainable at k = 0 but empty by k = 4: the hierarchy
  // decays to the CK limit, which is empty for a non-constant fact.
  protocols::TokenBusSystem bus(4, 4);
  auto space = ComputationSpace::Enumerate(bus, {.max_depth = 10});
  KnowledgeEvaluator eval(space);
  const ProcessSet all{0, 1, 2, 3};
  const auto at0 = Formula::Atom(bus.HoldsToken(0));
  for (const FormulaPtr& b : {at0, Formula::Not(at0)}) {
    std::size_t previous = space.size() + 1;
    for (int k = 0; k <= 4; ++k) {
      const std::size_t count =
          eval.SatisfyingSet(Formula::EveryoneIterated(all, k, b)).size();
      EXPECT_LE(count, previous) << b->ToString() << " k=" << k;
      if (k == 0) {
        EXPECT_GT(count, 0u) << b->ToString();
      }
      if (k == 4) {
        EXPECT_EQ(count, 0u) << b->ToString();
      }
      previous = count;
    }
    EXPECT_TRUE(eval.SatisfyingSet(Formula::Common(all, b)).empty());
  }
}

TEST_F(GroupKnowledgeTest, ParserHandlesNewOperators) {
  const std::vector<Predicate> atoms{fact_};
  EXPECT_EQ(Formula::Parse("E{0,1} fact", atoms)->ToString(),
            "E{p0,p1} fact");
  EXPECT_EQ(Formula::Parse("M{2} !fact", atoms)->ToString(), "M{p2} !fact");
  EXPECT_EQ(Formula::Parse("E{0} M{1} fact", atoms)->ToString(),
            "E{p0} M{p1} fact");
}

TEST_F(GroupKnowledgeTest, ModalDepthCountsNewOperators) {
  auto f = Formula::Everyone(
      all_, Formula::Possible(ProcessSet{0}, Formula::Atom(fact_)));
  EXPECT_EQ(f->ModalDepth(), 2);
  EXPECT_EQ(Formula::EveryoneIterated(all_, 3, Formula::Atom(fact_))
                ->ModalDepth(),
            3);
}

TEST_F(GroupKnowledgeTest, ConstructorValidation) {
  EXPECT_THROW(Formula::Everyone(ProcessSet::Empty(), Formula::Atom(fact_)),
               ModelError);
  EXPECT_THROW(Formula::Everyone(all_, nullptr), ModelError);
  EXPECT_THROW(Formula::Possible(all_, nullptr), ModelError);
  EXPECT_THROW(
      Formula::EveryoneIterated(all_, -1, Formula::Atom(fact_)),
      ModelError);
}

// Possibility tracks Theorem 3's semantics: a receive can only rule
// computations out, so "M_P f" can flip true->false on a receive but a
// send can only flip it false->true... (dual of knowledge monotonicity).
TEST(GroupKnowledgePropertyTest, PossibilityMonotoneUnderSends) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.seed = 77;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space);
  const Predicate b = Predicate::CountOnAtLeast(2, 1);
  for (std::size_t id = 0; id < space.size(); id += 3) {
    for (const auto& succ : space.SuccessorsOf(id)) {
      if (!succ.event.IsSend()) continue;
      const ProcessSet p = ProcessSet::Of(succ.event.process);
      auto m = Formula::Possible(p, Formula::Atom(b));
      // After a send, previously-possible worlds remain possible.
      if (eval.Holds(m, id)) {
        EXPECT_TRUE(eval.Holds(m, succ.class_id))
            << space.At(id).ToString() << " + " << succ.event.ToString();
      }
    }
  }
}

}  // namespace
}  // namespace hpl
