#include "core/knowledge.h"

#include <algorithm>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "core/random_system.h"

namespace hpl {
namespace {

// Ping system: p0 sends m0 to p1.  Three computations:
//   e  (empty), s (<send>), r (<send recv>).
// Fact b = "m0 has been sent" is local to p0 and becomes known to p1 only
// after the receive.
class PingKnowledgeTest : public ::testing::Test {
 protected:
  PingKnowledgeTest()
      : system_(
            2,
            [](const Computation& x) {
              std::vector<Event> out;
              const Event send = Send(0, 1, 0, "ping");
              const Event recv = Receive(1, 0, 0, "ping");
              if (x.CountOn(0) == 0) out.push_back(send);
              if (CanExtend(x, recv)) out.push_back(recv);
              return out;
            },
            "ping"),
        space_(ComputationSpace::Enumerate(system_)),
        eval_(space_),
        sent_(Predicate::Sent(0)),
        e_(space_.RequireIndex(Computation{})),
        s_(space_.RequireIndex(Computation({Send(0, 1, 0, "ping")}))),
        r_(space_.RequireIndex(Computation(
            {Send(0, 1, 0, "ping"), Receive(1, 0, 0, "ping")}))) {}

  LambdaSystem system_;
  ComputationSpace space_;
  KnowledgeEvaluator eval_;
  Predicate sent_;
  std::size_t e_, s_, r_;
};

TEST_F(PingKnowledgeTest, SenderKnowsImmediately) {
  EXPECT_FALSE(eval_.Knows(ProcessSet{0}, sent_, e_));
  EXPECT_TRUE(eval_.Knows(ProcessSet{0}, sent_, s_));
  EXPECT_TRUE(eval_.Knows(ProcessSet{0}, sent_, r_));
}

TEST_F(PingKnowledgeTest, ReceiverKnowsOnlyAfterReceive) {
  EXPECT_FALSE(eval_.Knows(ProcessSet{1}, sent_, e_));
  // The send alone does not inform p1: s [p1] e and !sent at e.
  EXPECT_FALSE(eval_.Knows(ProcessSet{1}, sent_, s_));
  EXPECT_TRUE(eval_.Knows(ProcessSet{1}, sent_, r_));
}

TEST_F(PingKnowledgeTest, Fact4KnowledgeImpliesTruth) {
  // (P knows b) implies b — at every computation and for both processes.
  for (std::size_t id = 0; id < space_.size(); ++id) {
    for (ProcessId p = 0; p < 2; ++p) {
      if (eval_.Knows(ProcessSet::Of(p), sent_, id)) {
        EXPECT_TRUE(sent_.Eval(space_.At(id)));
      }
    }
  }
}

TEST_F(PingKnowledgeTest, Fact3MoreProcessesKnowMore) {
  // (P knows b) implies (P u Q knows b).
  for (std::size_t id = 0; id < space_.size(); ++id) {
    if (eval_.Knows(ProcessSet{1}, sent_, id)) {
      EXPECT_TRUE(eval_.Knows(ProcessSet{0, 1}, sent_, id));
    }
  }
  // And the union knows strictly earlier here: at s, {0,1} knows via p0.
  EXPECT_TRUE(eval_.Knows(ProcessSet{0, 1}, sent_, s_));
}

TEST_F(PingKnowledgeTest, Fact6ConjunctionDistribution) {
  const Predicate recv = Predicate::Received(0);
  auto k_and = Formula::Knows(
      ProcessSet{1},
      Formula::And(Formula::Atom(sent_), Formula::Atom(recv)));
  auto and_k = Formula::And(
      Formula::Knows(ProcessSet{1}, Formula::Atom(sent_)),
      Formula::Knows(ProcessSet{1}, Formula::Atom(recv)));
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_EQ(eval_.Holds(k_and, id), eval_.Holds(and_k, id)) << id;
}

TEST_F(PingKnowledgeTest, Fact10PositiveIntrospection) {
  // P knows P knows b == P knows b.
  auto kb = Formula::Knows(ProcessSet{1}, Formula::Atom(sent_));
  auto kkb = Formula::Knows(ProcessSet{1}, kb);
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_EQ(eval_.Holds(kb, id), eval_.Holds(kkb, id)) << id;
}

TEST_F(PingKnowledgeTest, Lemma2NegativeIntrospection) {
  // P knows !(P knows b) == !(P knows b).
  auto kb = Formula::Knows(ProcessSet{1}, Formula::Atom(sent_));
  auto lhs = Formula::Knows(ProcessSet{1}, Formula::Not(kb));
  auto rhs = Formula::Not(kb);
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_EQ(eval_.Holds(lhs, id), eval_.Holds(rhs, id)) << id;
}

TEST_F(PingKnowledgeTest, Fact12ConstantsAreKnown) {
  for (std::size_t id = 0; id < space_.size(); ++id) {
    EXPECT_TRUE(eval_.Knows(ProcessSet{0}, Predicate::True(), id));
    EXPECT_TRUE(eval_.Knows(ProcessSet{1}, Predicate::True(), id));
    EXPECT_FALSE(eval_.Knows(ProcessSet{1}, Predicate::False(), id));
  }
}

TEST_F(PingKnowledgeTest, NestedKnowledgeAcrossProcesses) {
  // After the receive, p1 knows that p0 knows "sent" (b is local to p0).
  auto nested = Formula::Knows(
      ProcessSet{1}, Formula::Knows(ProcessSet{0}, Formula::Atom(sent_)));
  EXPECT_FALSE(eval_.Holds(nested, s_));
  EXPECT_TRUE(eval_.Holds(nested, r_));
  // But p0 never learns whether p1 received: no channel back.
  auto back = Formula::Knows(
      ProcessSet{0},
      Formula::Knows(ProcessSet{1}, Formula::Atom(Predicate::Received(0))));
  EXPECT_FALSE(eval_.Holds(back, r_));
}

TEST_F(PingKnowledgeTest, SureAndUnsure) {
  // p1 is sure of "sent" exactly when it knows it (it can never know
  // !sent, since the empty computation is [p1]-isomorphic to s).
  EXPECT_FALSE(eval_.Sure(ProcessSet{1}, sent_, s_));
  EXPECT_TRUE(eval_.Sure(ProcessSet{1}, sent_, r_));
  // p1 IS sure at e?  At e: y ~[p1] e includes e (no send) and s (send) —
  // so values differ: unsure.
  EXPECT_FALSE(eval_.Sure(ProcessSet{1}, sent_, e_));
  // p0 is always sure: the predicate is local to p0.
  for (std::size_t id = 0; id < space_.size(); ++id)
    EXPECT_TRUE(eval_.Sure(ProcessSet{0}, sent_, id));
  EXPECT_TRUE(eval_.IsLocalTo(sent_, ProcessSet{0}));
  EXPECT_FALSE(eval_.IsLocalTo(sent_, ProcessSet{1}));
}

TEST_F(PingKnowledgeTest, SatisfyingSetAndHoldsByValue) {
  auto kb = Formula::Knows(ProcessSet{1}, Formula::Atom(sent_));
  const auto sat = eval_.SatisfyingSet(kb);
  EXPECT_EQ(sat, (std::vector<std::size_t>{r_}));
  EXPECT_TRUE(eval_.Holds(
      kb, Computation({Send(0, 1, 0, "ping"), Receive(1, 0, 0, "ping")})));
}

TEST_F(PingKnowledgeTest, GroupKnowledgeIsDistributedView) {
  // {p0, p1} as a set: x [{0,1}] y is full-projection equality, so the
  // group "knows" everything true in its joint view.
  EXPECT_TRUE(eval_.Knows(ProcessSet{0, 1}, sent_, s_));
  EXPECT_FALSE(eval_.Knows(ProcessSet{0, 1}, sent_, e_));
}

TEST_F(PingKnowledgeTest, GroupOutsideTheSystemIsANamedError) {
  // Every modal kind, singleton or not, pointwise or whole-space, rejects
  // a group naming a process the 2-process system lacks with a ModelError.
  const FormulaPtr b = Formula::Atom(sent_);
  for (const ProcessSet g : {ProcessSet{7}, ProcessSet{0, 7}}) {
    for (const FormulaPtr& f :
         {Formula::Knows(g, b), Formula::Possible(g, b), Formula::Sure(g, b),
          Formula::Everyone(g, b), Formula::Common(g, b)}) {
      EXPECT_THROW(eval_.Holds(f, s_), ModelError) << f->ToString();
      EXPECT_THROW(eval_.SatisfyingSet(Formula::And(b, f)), ModelError)
          << f->ToString();
    }
    EXPECT_THROW(eval_.CommonComponent(g, s_), ModelError) << g.ToString();
  }
  EXPECT_THROW(eval_.CommonComponent(ProcessSet{}, s_), ModelError);
  // A rejected group leaves the evaluator usable.
  EXPECT_TRUE(eval_.Knows(ProcessSet{0}, sent_, s_));
  EXPECT_EQ(eval_.SatisfyingSet(Formula::Knows(ProcessSet{1}, b)),
            std::vector<std::size_t>{r_});
}

// A class id at or past space().size() names no computation: every
// pointwise query rejects it with a ModelError naming the query, and the
// evaluator stays usable.
void ExpectOutOfRange(const std::function<void(std::size_t)>& query,
                      std::size_t size, const std::string& name) {
  for (const std::size_t id : {size, size + 70}) {
    try {
      query(id);
      ADD_FAILURE() << name << " accepted id " << id;
    } catch (const ModelError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(PingKnowledgeTest, HoldsRejectsIdOutsideTheSpace) {
  const FormulaPtr f = Formula::Knows(ProcessSet{1}, Formula::Atom(sent_));
  ExpectOutOfRange([&](std::size_t id) { eval_.Holds(f, id); },
                   space_.size(), "Holds");
  EXPECT_TRUE(eval_.Holds(f, r_));
}

TEST_F(PingKnowledgeTest, KnowsRejectsIdOutsideTheSpace) {
  ExpectOutOfRange(
      [&](std::size_t id) { eval_.Knows(ProcessSet{0}, sent_, id); },
      space_.size(), "Knows");
  EXPECT_TRUE(eval_.Knows(ProcessSet{0}, sent_, s_));
}

TEST_F(PingKnowledgeTest, SureRejectsIdOutsideTheSpace) {
  ExpectOutOfRange(
      [&](std::size_t id) { eval_.Sure(ProcessSet{1}, sent_, id); },
      space_.size(), "Sure");
  EXPECT_TRUE(eval_.Sure(ProcessSet{1}, sent_, r_));
}

TEST_F(PingKnowledgeTest, CommonComponentRejectsIdOutsideTheSpace) {
  for (const ProcessSet g : {ProcessSet{0}, ProcessSet{0, 1}})
    ExpectOutOfRange([&](std::size_t id) { eval_.CommonComponent(g, id); },
                     space_.size(), "CommonComponent");
  // e [1] s [0] r: one component, labeled by its smallest id.
  EXPECT_EQ(eval_.CommonComponent(ProcessSet{0, 1}, r_),
            std::min({e_, s_, r_}));
}

TEST(KnowledgeEvaluatorTest, MemoizationGrows) {
  RandomSystemOptions options;
  options.seed = 3;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space);
  EXPECT_EQ(eval.memo_size(), 0u);
  auto kb = Formula::Knows(ProcessSet{0},
                           Formula::Atom(Predicate::CountOnAtLeast(1, 1)));
  eval.Holds(kb, std::size_t{0});
  const std::size_t after_first = eval.memo_size();
  EXPECT_GT(after_first, 0u);
  eval.Holds(kb, std::size_t{0});  // cached: no growth
  EXPECT_EQ(eval.memo_size(), after_first);
}

TEST(KnowledgeEvaluatorTest, EmptySetKnowsOnlyUniversalTruths) {
  // [{ }] relates all computations, so "{} knows b" iff b holds everywhere.
  RandomSystemOptions options;
  options.seed = 4;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  KnowledgeEvaluator eval(space);
  EXPECT_TRUE(eval.Knows(ProcessSet::Empty(), Predicate::True(), 0));
  // "at least one event somewhere" fails at the empty computation.
  const Predicate some("some",
                       [](const Computation& x) { return !x.empty(); });
  EXPECT_FALSE(eval.Knows(ProcessSet::Empty(), some,
                          space.RequireIndex(Computation{})));
}

}  // namespace
}  // namespace hpl
