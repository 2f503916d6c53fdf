#include "protocols/tracker.h"

#include <gtest/gtest.h>

#include "core/knowledge.h"

namespace hpl::protocols {
namespace {

TEST(TrackerSystemTest, EnumeratesFiniteSpace) {
  TrackerSystem system(2);
  auto space = hpl::ComputationSpace::Enumerate(system, {.max_depth = 12});
  EXPECT_FALSE(space.truncated());
  EXPECT_GT(space.size(), 4u);
}

TEST(TrackerSystemTest, BitFollowsFlipParity) {
  TrackerSystem system(2);
  const auto bit = system.Bit();
  hpl::Computation x;
  EXPECT_FALSE(bit.Eval(x));
  x = x.Extended(hpl::Internal(1, "flip"));
  EXPECT_TRUE(bit.Eval(x));
  x = x.Extended(hpl::Send(1, 0, 0, "notify"));
  EXPECT_TRUE(bit.Eval(x));
  x = x.Extended(hpl::Internal(1, "flip"));
  EXPECT_FALSE(bit.Eval(x));
}

TEST(TrackerSystemTest, BitIsLocalToQ) {
  TrackerSystem system(2);
  auto space = hpl::ComputationSpace::Enumerate(system, {.max_depth = 12});
  hpl::KnowledgeEvaluator eval(space);
  EXPECT_TRUE(eval.IsLocalTo(system.Bit(), hpl::ProcessSet{1}));
  EXPECT_FALSE(eval.IsLocalTo(system.Bit(), hpl::ProcessSet{0}));
}

// The paper's tracking impossibility: "P must be unsure about the value of
// this predicate while it is undergoing change."  Formally: at every
// computation where q can still flip, !(p sure b).
TEST(TrackerSystemTest, ObserverUnsureWhileBitCanChange) {
  for (int flips : {3, 4}) {
    TrackerSystem system(flips);
    auto space = hpl::ComputationSpace::Enumerate(
        system, {.max_depth = 4 * flips + 4});
    hpl::KnowledgeEvaluator eval(space);
    auto sure = hpl::Formula::Sure(hpl::ProcessSet{0},
                                   hpl::Formula::Atom(system.Bit()));
    int changeable = 0;
    for (std::size_t id = 0; id < space.size(); ++id) {
      if (system.CanStillChange(space.At(id))) {
        EXPECT_FALSE(eval.Holds(sure, id)) << space.At(id).ToString();
        ++changeable;
      }
    }
    EXPECT_GT(changeable, 0) << flips;
  }
}

// The companion necessary condition: q may change b only when q knows that
// p is unsure of b.
TEST(TrackerSystemTest, ChangerKnowsObserverIsUnsure) {
  for (int flips : {3, 4}) {
    TrackerSystem system(flips);
    auto space = hpl::ComputationSpace::Enumerate(
        system, {.max_depth = 4 * flips + 4});
    hpl::KnowledgeEvaluator eval(space);
    auto p_unsure = hpl::Formula::Not(hpl::Formula::Sure(
        hpl::ProcessSet{0}, hpl::Formula::Atom(system.Bit())));
    auto q_knows_unsure = hpl::Formula::Knows(hpl::ProcessSet{1}, p_unsure);
    // At every computation where a flip is enabled, q knows p is unsure.
    int flip_points = 0;
    for (std::size_t id = 0; id < space.size(); ++id) {
      const auto enabled = system.EnabledEvents(space.At(id));
      for (const hpl::Event& e : enabled) {
        if (e.IsInternal() && e.label == "flip") {
          EXPECT_TRUE(eval.Holds(q_knows_unsure, id))
              << space.At(id).ToString();
          ++flip_points;
        }
      }
    }
    EXPECT_GT(flip_points, 0) << flips;
  }
}

// After all flips are exhausted and the last notification arrives, p can
// finally be sure.
TEST(TrackerSystemTest, ObserverSureAfterQuiescence) {
  TrackerSystem system(1);
  auto space = hpl::ComputationSpace::Enumerate(system, {.max_depth = 8});
  hpl::KnowledgeEvaluator eval(space);
  auto sure =
      hpl::Formula::Sure(hpl::ProcessSet{0}, hpl::Formula::Atom(system.Bit()));
  // The maximal computation: flip, notify, receive.
  const hpl::Computation full({hpl::Internal(1, "flip"),
                               hpl::Send(1, 0, 0, "notify"),
                               hpl::Receive(0, 1, 0, "notify")});
  EXPECT_TRUE(eval.Holds(sure, space.RequireIndex(full)));
}

TEST(TrackingScenarioTest, StalenessIsPositiveButBounded) {
  TrackingScenario scenario;
  scenario.num_flips = 15;
  scenario.flip_interval = 20;
  scenario.network.delay_base = 2;
  scenario.network.delay_jitter = 6;
  scenario.seed = 5;
  const auto result = RunTrackingScenario(scenario);
  EXPECT_EQ(result.flips, 15);
  EXPECT_EQ(result.notifications, 15u);
  // The paper: staleness cannot be zero while flips occur...
  EXPECT_GT(result.stale_time, 0);
  // ...but a prompt notifier keeps it a modest fraction of the run.
  EXPECT_LT(result.stale_fraction, 0.5);
  EXPECT_GT(result.total_time, 0);
}

TEST(TrackingScenarioTest, SlowerNetworkMeansMoreStaleness) {
  TrackingScenario fast;
  fast.seed = 9;
  fast.network.delay_base = 1;
  fast.network.delay_jitter = 2;
  TrackingScenario slow = fast;
  slow.network.delay_base = 15;
  const auto fast_result = RunTrackingScenario(fast);
  const auto slow_result = RunTrackingScenario(slow);
  EXPECT_GT(slow_result.stale_time, fast_result.stale_time);
}

TEST(TrackerSystemTest, NegativeFlipCountRejected) {
  EXPECT_THROW(TrackerSystem(-1), hpl::ModelError);
}

}  // namespace
}  // namespace hpl::protocols
