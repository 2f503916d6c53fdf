#include "protocols/relay.h"

#include <gtest/gtest.h>

#include "core/theorems.h"

namespace hpl::protocols {
namespace {

TEST(RelaySystemTest, ScriptsRunInOrder) {
  RelaySystem relay(3);
  hpl::Computation x;
  auto e0 = relay.EnabledEvents(x);
  ASSERT_EQ(e0.size(), 1u);
  EXPECT_EQ(e0[0], hpl::Internal(0, "fact"));
  x = x.Extended(e0[0]);
  auto e1 = relay.EnabledEvents(x);
  ASSERT_EQ(e1.size(), 1u);
  EXPECT_EQ(e1[0], hpl::Send(0, 1, 0, "relay"));
}

TEST(RelaySystemTest, SpaceIsFiniteAndComplete) {
  RelaySystem relay(4);
  auto space = hpl::ComputationSpace::Enumerate(relay, {.max_depth = 16});
  EXPECT_FALSE(space.truncated());
  // Maximal computation: fact + (n-1) send/recv pairs = 1 + 2*3 = 7 events.
  std::size_t max_len = 0;
  for (std::size_t id = 0; id < space.size(); ++id)
    max_len = std::max(max_len, space.LengthOf(id));
  EXPECT_EQ(max_len, 7u);
}

TEST(RelaySystemTest, KnowledgeDeepensHopByHop) {
  RelaySystem relay(4);
  auto space = hpl::ComputationSpace::Enumerate(relay, {.max_depth = 16});
  hpl::KnowledgeEvaluator eval(space);
  const auto fact = relay.Fact();

  // Build the full relay run.
  hpl::Computation x({hpl::Internal(0, "fact")});
  std::vector<hpl::Computation> after_hop{x};  // after_hop[k]: k hops done
  for (int hop = 0; hop < 3; ++hop) {
    x = x.Extended(hpl::Send(hop, hop + 1, hop, "relay"));
    x = x.Extended(hpl::Receive(hop + 1, hop, hop, "relay"));
    after_hop.push_back(x);
  }

  for (int hop = 0; hop <= 3; ++hop) {
    auto nested = hpl::Formula::KnowsChain(relay.NestedChain(hop),
                                           hpl::Formula::Atom(fact));
    // After `hop` hops the depth-(hop+1) nesting holds...
    EXPECT_TRUE(eval.Holds(nested, space.RequireIndex(after_hop[hop])))
        << "hop " << hop;
    // ...but one hop earlier it does not.
    if (hop > 0) {
      EXPECT_FALSE(
          eval.Holds(nested, space.RequireIndex(after_hop[hop - 1])))
          << "hop " << hop;
    }
  }
}

TEST(RelaySystemTest, TheoremFiveWitnessesTheRelayChain) {
  RelaySystem relay(3);
  auto space = hpl::ComputationSpace::Enumerate(relay, {.max_depth = 16});
  hpl::KnowledgeEvaluator eval(space);

  hpl::Computation full({hpl::Internal(0, "fact"), hpl::Send(0, 1, 0, "relay"),
                         hpl::Receive(1, 0, 0, "relay"),
                         hpl::Send(1, 2, 1, "relay"),
                         hpl::Receive(2, 1, 1, "relay")});
  // Gain of K{p2} K{p1} K{p0} fact from empty requires chain <p0 p1 p2>.
  auto result = hpl::CheckTheorem5(eval, relay.NestedChain(2), relay.Fact(),
                                   hpl::Computation{}, full);
  EXPECT_TRUE(result.antecedent);
  ASSERT_TRUE(result.holds());
  ASSERT_TRUE(result.chain.has_value());
  // The witness must march down the line.
  EXPECT_EQ(full.at((*result.chain)[0]).process, 0);
  EXPECT_EQ(full.at((*result.chain)[1]).process, 1);
  EXPECT_EQ(full.at((*result.chain)[2]).process, 2);
}

TEST(RelaySystemTest, MinimumMessagesForDepth) {
  // Depth-(k+1) nested knowledge first becomes true at a computation with
  // exactly k receives — one message per hop, the Theorem 5 minimum — and
  // Theorem 5 finds the chain <p0 ... pk> at that witness.
  for (int n : {4, 6}) {
    RelaySystem relay(n);
    auto space = hpl::ComputationSpace::Enumerate(relay, {.max_depth = 16});
    hpl::KnowledgeEvaluator eval(space);
    for (int hop = 1; hop < n; ++hop) {
      auto nested = hpl::Formula::KnowsChain(
          relay.NestedChain(hop), hpl::Formula::Atom(relay.Fact()));
      std::size_t min_receives = SIZE_MAX;
      std::size_t witness = 0;
      for (std::size_t id = 0; id < space.size(); ++id) {
        if (!eval.Holds(nested, id)) continue;
        std::size_t receives = 0;
        const hpl::Computation x = space.At(id);
        for (const hpl::Event& e : x.events())
          if (e.IsReceive()) ++receives;
        if (receives < min_receives) {
          min_receives = receives;
          witness = id;
        }
      }
      EXPECT_EQ(min_receives, static_cast<std::size_t>(hop))
          << "n " << n << " hop " << hop;
      EXPECT_TRUE(hpl::CheckTheorem5(eval, relay.NestedChain(hop),
                                     relay.Fact(), hpl::Computation{},
                                     space.At(witness))
                      .holds())
          << "n " << n << " hop " << hop;
    }
  }
}

TEST(RelaySystemTest, ValidatesConstructor) {
  EXPECT_THROW(RelaySystem(1), hpl::ModelError);
  RelaySystem relay(3);
  EXPECT_THROW(relay.NestedChain(5), hpl::ModelError);
  EXPECT_THROW(relay.NestedChain(-1), hpl::ModelError);
}

}  // namespace
}  // namespace hpl::protocols
