// Belief from isomorphism + plausibility, and the paper's Discussion
// caveat: the knowledge-transfer results do NOT extend to belief.
#include "core/belief.h"

#include <gtest/gtest.h>

#include "core/random_system.h"
#include "core/system.h"

namespace hpl {
namespace {

// Ping system: p0 may send m0; p1 may receive it.
class BeliefTest : public ::testing::Test {
 protected:
  BeliefTest()
      : system_(
            2,
            [](const Computation& x) {
              std::vector<Event> out;
              if (x.CountOn(0) == 0) out.push_back(Send(0, 1, 0, "ping"));
              const Event recv = Receive(1, 0, 0, "ping");
              if (CanExtend(x, recv)) out.push_back(recv);
              return out;
            },
            "ping"),
        space_(ComputationSpace::Enumerate(system_)),
        eval_(space_),
        received_(Predicate::Received(0)),
        sent_(Predicate::Sent(0)),
        e_(space_.RequireIndex(Computation{})),
        s_(space_.RequireIndex(Computation({Send(0, 1, 0, "ping")}))),
        r_(space_.RequireIndex(Computation(
            {Send(0, 1, 0, "ping"), Receive(1, 0, 0, "ping")}))) {}

  LambdaSystem system_;
  ComputationSpace space_;
  KnowledgeEvaluator eval_;
  Predicate received_, sent_;
  std::size_t e_, s_, r_;
};

TEST_F(BeliefTest, UniformPlausibilityCollapsesToKnowledge) {
  BeliefEvaluator belief(space_, PlausibilityOrder::Uniform());
  for (std::size_t id = 0; id < space_.size(); ++id) {
    for (const ProcessSet p : {ProcessSet{0}, ProcessSet{1}}) {
      EXPECT_EQ(belief.Believes(p, sent_, id), eval_.Knows(p, sent_, id));
      EXPECT_EQ(belief.Believes(p, received_, id),
                eval_.Knows(p, received_, id));
    }
  }
}

TEST_F(BeliefTest, OptimisticSenderBelievesDelivery) {
  // Under MostAdvanced plausibility, after sending, p0's most-plausible
  // compatible world is the longest one — where the receive happened.
  BeliefEvaluator belief(space_, PlausibilityOrder::MostAdvanced());
  EXPECT_TRUE(belief.Believes(ProcessSet{0}, received_, s_));
  // But p0 does NOT know it (the in-flight world is compatible).
  EXPECT_FALSE(eval_.Knows(ProcessSet{0}, received_, s_));
  // And the belief is *wrong* at s: the message has not been received.
  EXPECT_FALSE(received_.Eval(space_.At(s_)));
}

TEST_F(BeliefTest, BeliefGainedBySend_TransferTheoremFails) {
  // Lemma 4 (knowledge): an event on P that is a send cannot GAIN P
  // knowledge of a predicate local to P̄.  For belief this fails: p0 gains
  // belief in "p1 received" by its own send.
  BeliefEvaluator belief(space_, PlausibilityOrder::MostAdvanced());
  ASSERT_TRUE(eval_.IsLocalTo(received_, ProcessSet{1}));
  EXPECT_FALSE(belief.Believes(ProcessSet{0}, received_, e_));  // before
  EXPECT_TRUE(belief.Believes(ProcessSet{0}, received_, s_));   // after send
  // No chain <p1 p0> exists in the suffix (only p0's send happened) —
  // knowledge gain would be impossible here (Theorem 5), belief gain is not.
}

TEST_F(BeliefTest, MinimalPendingIsPessimisticAboutOwnSends) {
  // Under MinimalPending, the most plausible world compatible with p0's
  // send is the one where the message has already been delivered (pending
  // count 0 beats 1).
  BeliefEvaluator belief(space_, PlausibilityOrder::MinimalPending());
  EXPECT_TRUE(belief.Believes(ProcessSet{0}, received_, s_));
  // At the empty computation, the most plausible world for p1 includes
  // both empty and the delivered world (both pending 0): belief in "sent"
  // must fail (not all most-plausible worlds agree).
  EXPECT_FALSE(belief.Believes(ProcessSet{1}, sent_, e_));
}

TEST_F(BeliefTest, KD45AxiomsHold) {
  for (const PlausibilityOrder& order :
       {PlausibilityOrder::Uniform(), PlausibilityOrder::MinimalPending(),
        PlausibilityOrder::MostAdvanced()}) {
    BeliefEvaluator belief(space_, order);
    const auto report = belief.CheckAxioms(eval_, {sent_, received_});
    EXPECT_EQ(report.consistency_violations, 0) << order.name();
    EXPECT_EQ(report.closure_violations, 0) << order.name();
    EXPECT_EQ(report.positive_introspection, 0) << order.name();
    EXPECT_EQ(report.negative_introspection, 0) << order.name();
    EXPECT_EQ(report.knowledge_implies_belief, 0) << order.name();
    EXPECT_GT(report.instances, 0);
  }
}

TEST(BeliefRandomSystemTest, KD45HoldsYetBeliefsErrAndGrowBySends) {
  // Over a random system: belief stays KD45 under every order, but under a
  // non-uniform order some beliefs are false and some are gained by the
  // believer's own send — both impossible for knowledge (Lemma 4), which
  // is why the Discussion says the transfer results do not carry over.
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.internal_events = 1;
  options.seed = 1801;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space);
  const std::vector<Predicate> predicates = {
      Predicate::CountOnAtLeast(0, 1), Predicate::Sent(0),
      Predicate::Received(0)};
  for (const PlausibilityOrder& order :
       {PlausibilityOrder::Uniform(), PlausibilityOrder::MinimalPending(),
        PlausibilityOrder::MostAdvanced()}) {
    BeliefEvaluator belief(space, order);
    const auto report = belief.CheckAxioms(eval, predicates);
    EXPECT_EQ(report.consistency_violations, 0) << order.name();
    EXPECT_EQ(report.closure_violations, 0) << order.name();
    EXPECT_EQ(report.positive_introspection, 0) << order.name();
    EXPECT_EQ(report.negative_introspection, 0) << order.name();
    EXPECT_EQ(report.knowledge_implies_belief, 0) << order.name();
    if (order.name() == "uniform") continue;
    int wrong = 0, send_gains = 0;
    for (std::size_t id = 0; id < space.size(); ++id) {
      const Computation x = space.At(id);
      for (ProcessId p = 0; p < 3; ++p)
        for (const Predicate& b : predicates)
          if (belief.Believes(ProcessSet::Of(p), b, id) && !b.Eval(x))
            ++wrong;
      for (const auto& succ : space.SuccessorsOf(id)) {
        if (!succ.event.IsSend()) continue;
        const ProcessSet p = ProcessSet::Of(succ.event.process);
        const Predicate remote = Predicate::Received(succ.event.message);
        if (!belief.Believes(p, remote, id) &&
            belief.Believes(p, remote, succ.class_id))
          ++send_gains;
      }
    }
    EXPECT_GT(wrong, 0) << order.name();
    EXPECT_GT(send_gains, 0) << order.name();
  }
}

TEST_F(BeliefTest, MostPlausibleSetsAreWithinTheClass) {
  BeliefEvaluator belief(space_, PlausibilityOrder::MostAdvanced());
  for (std::size_t id = 0; id < space_.size(); ++id) {
    for (const ProcessSet p : {ProcessSet{0}, ProcessSet{1}}) {
      for (std::size_t y : belief.MostPlausible(p, id))
        EXPECT_TRUE(space_.Isomorphic(id, y, p));
    }
  }
}

}  // namespace
}  // namespace hpl
