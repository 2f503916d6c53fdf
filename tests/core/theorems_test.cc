#include "core/theorems.h"

#include <gtest/gtest.h>

#include "core/random_system.h"

namespace hpl {
namespace {

// Shared fixture: the 2-process ping system with its 3-computation space.
class PingTheoremTest : public ::testing::Test {
 protected:
  PingTheoremTest()
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
        sent_(Predicate::Sent(0)),
        empty_{},
        sent_comp_({Send(0, 1, 0, "ping")}),
        done_({Send(0, 1, 0, "ping"), Receive(1, 0, 0, "ping")}) {}

  LambdaSystem system_;
  ComputationSpace space_;
  KnowledgeEvaluator eval_;
  Predicate sent_;
  Computation empty_, sent_comp_, done_;
};

TEST_F(PingTheoremTest, Theorem1ChainSide) {
  // empty <= done; the suffix contains the chain <p0 p1>.
  auto result =
      CheckTheorem1(space_, empty_, done_, {ProcessSet{0}, ProcessSet{1}});
  EXPECT_TRUE(result.holds());
  ASSERT_TRUE(result.chain.has_value());
}

TEST_F(PingTheoremTest, Theorem1IsomorphismSide) {
  // empty <= sent: no chain <p1 p0> in the suffix (only p0 acts), so the
  // composed isomorphism must hold.
  auto result = CheckTheorem1(space_, empty_, sent_comp_,
                              {ProcessSet{1}, ProcessSet{0}});
  EXPECT_TRUE(result.holds());
  EXPECT_TRUE(result.composed_isomorphic);
  EXPECT_FALSE(result.chain.has_value());
}

TEST_F(PingTheoremTest, Theorem3ReceiveShrinks) {
  auto result = CheckTheorem3(space_, sent_comp_,
                              Receive(1, 0, 0, "ping"), ProcessSet{1});
  EXPECT_TRUE(result.holds);
  EXPECT_LE(result.after_size, result.before_size);
}

TEST_F(PingTheoremTest, Theorem3SendGrows) {
  auto result =
      CheckTheorem3(space_, empty_, Send(0, 1, 0, "ping"), ProcessSet{0});
  EXPECT_TRUE(result.holds);
  EXPECT_GE(result.after_size, result.before_size);
}

TEST_F(PingTheoremTest, Theorem4KnowledgeAlongPath) {
  // p1 knows p0 knows sent at done; done [p1 p0] y forces p0 to know at y.
  auto result = CheckTheorem4(eval_, {ProcessSet{1}, ProcessSet{0}}, sent_,
                              done_, done_);
  EXPECT_TRUE(result.antecedent);
  EXPECT_TRUE(result.holds());
}

TEST_F(PingTheoremTest, Theorem4NegativeCorollary) {
  // !(p1 knows sent) at sent_comp; sent_comp [p1] empty... chain {p1}:
  // sent_comp [p1] y implies !(p1 knows sent) at y.
  auto result = CheckTheorem4Negative(eval_, {ProcessSet{1}}, sent_,
                                      sent_comp_, sent_comp_);
  EXPECT_TRUE(result.antecedent);
  EXPECT_TRUE(result.holds());
  // Nested: p0 knows !(p1 knows sent) fails at sent_comp (p0 considers the
  // delivered world possible), so the antecedent is false — vacuous truth.
  auto nested = CheckTheorem4Negative(
      eval_, {ProcessSet{0}, ProcessSet{1}}, sent_, sent_comp_, done_);
  EXPECT_FALSE(nested.antecedent);
  EXPECT_TRUE(nested.holds());
}

TEST_F(PingTheoremTest, Theorem4NegativeSweep) {
  // Exhaustive over this small space: no counterexamples for several
  // chains and predicates.
  const std::vector<std::vector<ProcessSet>> chains = {
      {ProcessSet{0}}, {ProcessSet{1}}, {ProcessSet{1}, ProcessSet{0}}};
  for (std::size_t a = 0; a < space_.size(); ++a) {
    for (std::size_t b = 0; b < space_.size(); ++b) {
      for (const auto& chain : chains) {
        auto result = CheckTheorem4Negative(eval_, chain, sent_,
                                            space_.At(a), space_.At(b));
        EXPECT_TRUE(result.holds()) << a << "," << b;
      }
    }
  }
}

TEST_F(PingTheoremTest, Lemma4ReceiveDoesNotLoseKnowledge) {
  auto result = CheckLemma4(eval_, ProcessSet{1}, sent_, sent_comp_,
                            Receive(1, 0, 0, "ping"));
  EXPECT_TRUE(result.holds);
  EXPECT_FALSE(result.knows_before);
  EXPECT_TRUE(result.knows_after);  // gained via receive: allowed
}

TEST_F(PingTheoremTest, Lemma4SendDoesNotGainKnowledge) {
  // b := "p1 received m0" is local to P̄ = {1}; p0's send must not create
  // knowledge of it.
  const Predicate received = Predicate::Received(0);
  auto result = CheckLemma4(eval_, ProcessSet{0}, received, empty_,
                            Send(0, 1, 0, "ping"));
  EXPECT_TRUE(result.holds);
  EXPECT_FALSE(result.knows_after);
}

TEST_F(PingTheoremTest, Theorem5GainRequiresChain) {
  // !(p1 knows sent) at empty; p1 knows sent at done => chain <p1... wait,
  // chain <Pn ... P1> = <p1> for n=1.
  auto result = CheckTheorem5(eval_, {ProcessSet{1}}, sent_, empty_, done_);
  EXPECT_TRUE(result.antecedent);
  EXPECT_TRUE(result.holds());
  // Nested version: P1 = {1}, P2 = {0}: p1 knows p0 knows sent at done;
  // !(p0 knows sent) at empty; chain <P2 P1> = <p0 p1> must exist.
  auto nested = CheckTheorem5(eval_, {ProcessSet{1}, ProcessSet{0}}, sent_,
                              empty_, done_);
  EXPECT_TRUE(nested.antecedent);
  ASSERT_TRUE(nested.holds());
}

TEST_F(PingTheoremTest, Theorem5VacuousWithoutGain) {
  // Knowledge not gained between sent and sent: antecedent false.
  auto result =
      CheckTheorem5(eval_, {ProcessSet{1}}, sent_, sent_comp_, sent_comp_);
  EXPECT_FALSE(result.antecedent);
  EXPECT_TRUE(result.holds());
}

TEST_F(PingTheoremTest, GainRequiresReceiveCorollary) {
  auto result =
      CheckGainRequiresReceive(eval_, ProcessSet{1}, sent_, empty_, done_);
  EXPECT_TRUE(result.antecedent);
  EXPECT_TRUE(result.holds());
  // Precondition enforcement: predicate must be local to P̄.
  EXPECT_THROW(CheckGainRequiresReceive(eval_, ProcessSet{1},
                                        Predicate::Received(0), empty_,
                                        done_),
               ModelError);
}

TEST_F(PingTheoremTest, ExtensionPrincipleHoldsOnSpace) {
  auto result = CheckExtensionPrinciple(space_);
  EXPECT_TRUE(result.holds) << result.violation;
  // Part 1 at the send from empty (only empty is [p0]-isomorphic to it)
  // and part 2 at the receive (only the full run is [p1]-isomorphic to it).
  EXPECT_EQ(result.instances_checked, 2u);
}

// Theorem 6 needs a system where knowledge can be *lost*.  Classic shape:
// q knows "p has not fired f yet" until p fires it.  We model: p0 may fire
// an internal event "f" but must first announce its *intention* to p1 —
// before the announcement arrives, p1 knows !f.
//
// Script: p0: send m0 "warn" to p1; then internal "f".
// b := "p0 fired f".  At empty, !b and p1 knows !b?  No: p1's view at
// empty is isomorphic to the computation where p0 already fired... f needs
// the warn first, and warn must be *received* before f?  In an async
// system p1 can never track p0 exactly (the tracking impossibility!), so
// for Theorem 6's antecedent we use P1 = P2 = {1} degenerate form or
// knowledge of *own* facts.  Simplest non-vacuous loss: b := "p1 has NOT
// received m0" is local to p1... then p1 always knows b's value; knowledge
// of b is lost only when b changes, via p1's own receive (a chain <p1>).
TEST_F(PingTheoremTest, Theorem6LossViaOwnEvent) {
  const Predicate not_received = !Predicate::Received(0);
  auto result = CheckTheorem6(eval_, {ProcessSet{1}}, not_received,
                              sent_comp_, done_);
  EXPECT_TRUE(result.antecedent);  // knew !received at x; !knows at y
  EXPECT_TRUE(result.holds());     // chain <p1> = p1 acted in between
}

// Knowledge loss across processes: p0 knows (at x) that p1 doesn't know
// sent; after the receive p0... still believes that?  x [p0] done, so p0
// cannot know "p1 knows sent" — i.e. "p0 knows !(p1 knows sent)" is LOST
// exactly never here (p0 keeps considering the in-flight computation
// possible).  Check that Theorem 6's antecedent is indeed false.
TEST_F(PingTheoremTest, SenderNeverLearnsDelivery) {
  auto k1 = Formula::Knows(ProcessSet{1}, Formula::Atom(sent_));
  auto k0_not_k1 = Formula::Knows(ProcessSet{0}, Formula::Not(k1));
  EXPECT_FALSE(eval_.Holds(k0_not_k1, space_.RequireIndex(sent_comp_)));
  EXPECT_FALSE(eval_.Holds(k0_not_k1, space_.RequireIndex(done_)));
}

// Randomized sweep of Theorems 4/5/6 over prefix pairs of a random system.
class TheoremSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TheoremSweepTest, NoCounterexamples) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.internal_events = 0;
  options.seed = GetParam();
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 16});
  KnowledgeEvaluator eval(space);

  const std::vector<Predicate> predicates = {
      Predicate::CountOnAtLeast(0, 1), Predicate::CountOnAtLeast(1, 1),
      Predicate::CountOnAtLeast(2, 1), Predicate::Sent(0),
      Predicate::Received(1), !Predicate::Received(0)};
  // Chains of every singleton (self-learning of local facts always fires
  // somewhere) plus nested cross-process patterns.
  const std::vector<std::vector<ProcessSet>> chains = {
      {ProcessSet{0}},
      {ProcessSet{1}},
      {ProcessSet{2}},
      {ProcessSet{1}, ProcessSet{0}},
      {ProcessSet{2}, ProcessSet{0}},
      {ProcessSet{0}, ProcessSet{1}, ProcessSet{2}},
  };

  int t5_live = 0, t6_live = 0;
  for (std::size_t yid = 0; yid < space.size(); yid += 5) {
    const Computation& y = space.At(yid);
    for (const std::size_t cut : {std::size_t{0}, y.size() / 2}) {
    const Computation x = y.Prefix(cut);
    for (const auto& predicate : predicates) {
      for (const auto& chain : chains) {
        auto gain = CheckTheorem5(eval, chain, predicate, x, y);
        ASSERT_TRUE(gain.holds())
            << "TH5 x=" << x.ToString() << " y=" << y.ToString();
        if (gain.antecedent) ++t5_live;
        auto loss = CheckTheorem6(eval, chain, predicate, x, y);
        ASSERT_TRUE(loss.holds())
            << "TH6 x=" << x.ToString() << " y=" << y.ToString();
        if (loss.antecedent) ++t6_live;
        // Theorem 4 along the identity path x [P...] x.
        auto t4 = CheckTheorem4(eval, chain, predicate, x, x);
        ASSERT_TRUE(t4.holds());
        // Sure variants ("Theorems 4-6 hold with knows replaced by sure").
        auto gain_sure = CheckTheorem5Sure(eval, chain, predicate, x, y);
        ASSERT_TRUE(gain_sure.holds())
            << "TH5-sure x=" << x.ToString() << " y=" << y.ToString();
        auto loss_sure = CheckTheorem6Sure(eval, chain, predicate, x, y);
        ASSERT_TRUE(loss_sure.holds())
            << "TH6-sure x=" << x.ToString() << " y=" << y.ToString();
      }
    }
    }
  }
  EXPECT_GT(t5_live, 0) << "sweep never exercised knowledge gain";
  // p1 knows "m0 not received" until its own receive destroys it.
  EXPECT_GT(t6_live, 0) << "sweep never exercised knowledge loss";
}

// Event-level claims at every (x, e) edge of a random space with internal
// events: Theorem 3 (a receive never grows the [P P̄]-set, a send never
// shrinks it, an internal event keeps it), Lemma 4 (an event on P never
// loses P's knowledge of a P̄-local fact on a receive nor gains it on a
// send) and the Principle of Computation Extension over all pairs.
TEST_P(TheoremSweepTest, EventLevelClaimsAtEveryEdge) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.internal_events = 1;
  options.seed = GetParam();
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space);

  int receive_shrinks = 0, send_grows = 0;
  for (std::size_t id = 0; id < space.size(); ++id) {
    const Computation& x = space.At(id);
    for (const auto& succ : space.SuccessorsOf(id)) {
      const Event& e = succ.event;
      const ProcessSet p = ProcessSet::Of(e.process);
      const auto t3 = CheckTheorem3(space, x, e, p);
      ASSERT_TRUE(t3.holds) << "x=" << x.ToString() << " e=" << e.ToString();
      if (e.IsReceive() && t3.after_size < t3.before_size) ++receive_shrinks;
      if (e.IsSend() && t3.after_size > t3.before_size) ++send_grows;
      const Predicate remote =
          Predicate::CountOnAtLeast((e.process + 1) % 3, 1);
      ASSERT_TRUE(CheckLemma4(eval, p, remote, x, e).holds)
          << "x=" << x.ToString() << " e=" << e.ToString();
    }
  }
  EXPECT_GT(receive_shrinks, 0);
  EXPECT_GT(send_grows, 0);

  const auto principle = CheckExtensionPrinciple(space);
  EXPECT_TRUE(principle.holds) << principle.violation;
  EXPECT_GT(principle.instances_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremSweepTest,
                         ::testing::Values(41, 42, 43, 44, 45));

}  // namespace
}  // namespace hpl
