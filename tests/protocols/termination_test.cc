#include "protocols/termination.h"

#include <gtest/gtest.h>

namespace hpl::protocols {
namespace {

TerminationExperimentOptions Base(DetectorKind kind, std::uint64_t seed) {
  TerminationExperimentOptions options;
  options.detector = kind;
  options.num_processes = 6;
  options.workload.budget = 60;
  options.workload.fanout_max = 3;
  options.seed = seed;
  return options;
}

TEST(DijkstraScholtenTest, DetectsAndIsSafe) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto result =
        RunTerminationExperiment(Base(DetectorKind::kDijkstraScholten, seed));
    EXPECT_TRUE(result.announced) << "seed " << seed;
    EXPECT_TRUE(result.safe) << "seed " << seed;
  }
}

TEST(DijkstraScholtenTest, OverheadEqualsUnderlying) {
  // DS sends exactly one ack per work message: the paper's lower bound met
  // with equality.
  int nontrivial = 0;
  for (std::uint64_t seed : {10u, 11u, 12u}) {
    auto result =
        RunTerminationExperiment(Base(DetectorKind::kDijkstraScholten, seed));
    ASSERT_TRUE(result.announced);
    EXPECT_EQ(result.overhead_messages, result.underlying_messages)
        << "seed " << seed;
    if (result.underlying_messages > 0) {
      EXPECT_DOUBLE_EQ(result.overhead_ratio, 1.0);
      ++nontrivial;
    }
  }
  EXPECT_GT(nontrivial, 0) << "all sampled workloads were empty";
}

TEST(DijkstraScholtenTest, TrivialWorkloadAnnouncesImmediately) {
  auto options = Base(DetectorKind::kDijkstraScholten, 1);
  options.workload.budget = 0;
  auto result = RunTerminationExperiment(options);
  EXPECT_TRUE(result.announced);
  EXPECT_EQ(result.underlying_messages, 0u);
  EXPECT_EQ(result.overhead_messages, 0u);
}

TEST(SafraTest, DetectsAndIsSafe) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    auto result = RunTerminationExperiment(Base(DetectorKind::kSafra, seed));
    EXPECT_TRUE(result.announced) << "seed " << seed;
    EXPECT_TRUE(result.safe) << "seed " << seed;
    EXPECT_GE(result.probe_rounds, 1) << "seed " << seed;
  }
}

TEST(SafraTest, OverheadIsTokenHops) {
  auto options = Base(DetectorKind::kSafra, 7);
  options.num_processes = 5;
  auto result = RunTerminationExperiment(options);
  ASSERT_TRUE(result.announced);
  // Each round circulates the token through all 5 processes.
  EXPECT_EQ(result.overhead_messages,
            static_cast<std::size_t>(result.probe_rounds) * 5u);
}

TEST(SafraTest, FrequentProbingRaisesOverhead) {
  auto slow = Base(DetectorKind::kSafra, 9);
  slow.safra_probe_interval = 200;
  auto fast = Base(DetectorKind::kSafra, 9);
  fast.safra_probe_interval = 5;
  const auto slow_result = RunTerminationExperiment(slow);
  const auto fast_result = RunTerminationExperiment(fast);
  ASSERT_TRUE(slow_result.announced);
  ASSERT_TRUE(fast_result.announced);
  EXPECT_GE(fast_result.overhead_messages, slow_result.overhead_messages);
}

TEST(SafraTest, SlowSparseComputationCostsAtLeastM) {
  // The adversarial family behind Section 5's worst-case bound: slow
  // underlying traffic, one message at a time.  Each message blackens a
  // process and spoils the probe in flight, so an eager Safra pays more
  // overhead than there are underlying messages.
  for (int budget : {10, 25}) {
    TerminationExperimentOptions options;
    options.detector = DetectorKind::kSafra;
    options.num_processes = 4;
    options.workload.budget = budget;
    options.workload.fanout_max = 1;
    options.workload.fanout_zero_prob = 0.0;
    options.network.delay_base = 2;
    options.network.delay_jitter = 2;
    options.network.underlying_extra_delay = 150;
    options.safra_probe_interval = 15;
    options.seed = 777 + budget;
    const auto result = RunTerminationExperiment(options);
    ASSERT_TRUE(result.announced);
    EXPECT_TRUE(result.safe);
    EXPECT_EQ(result.underlying_messages, static_cast<std::size_t>(budget));
    EXPECT_GE(result.overhead_ratio, 1.0) << "budget " << budget;
  }
}

TEST(TerminationTest, WorkloadBudgetBoundsUnderlyingMessages) {
  for (int budget : {0, 5, 25, 80}) {
    auto options = Base(DetectorKind::kDijkstraScholten, 21);
    options.workload.budget = budget;
    auto result = RunTerminationExperiment(options);
    EXPECT_LE(result.underlying_messages, static_cast<std::size_t>(budget));
  }
}

TEST(TerminationTest, DetectionRequiresOverheadAfterQuiescence) {
  // Section 5's proof step: detecting termination is gaining knowledge of
  // a fact completed only at quiescence, so the final links of the
  // Theorem-5 chain — overhead messages — must form at/after it.
  for (DetectorKind kind :
       {DetectorKind::kDijkstraScholten, DetectorKind::kSafra}) {
    auto options = Base(kind, 61);
    options.workload.fanout_zero_prob = 0.0;  // guarantee M > 0
    const auto result = RunTerminationExperiment(options);
    ASSERT_TRUE(result.announced);
    ASSERT_GT(result.underlying_messages, 0u);
    EXPECT_GT(result.overhead_after_termination, 0u) << ToString(kind);
  }
}

TEST(TerminationTest, DeterministicGivenSeed) {
  const auto a = RunTerminationExperiment(Base(DetectorKind::kSafra, 33));
  const auto b = RunTerminationExperiment(Base(DetectorKind::kSafra, 33));
  EXPECT_EQ(a.underlying_messages, b.underlying_messages);
  EXPECT_EQ(a.overhead_messages, b.overhead_messages);
  EXPECT_EQ(a.announce_time, b.announce_time);
}

TEST(TerminationTest, LowerBoundShapeAcrossScales) {
  // The paper's Section 5 bound concerns worst-case computations; our
  // diffusing workloads already keep DS pinned at ratio 1.0 while Safra
  // varies with probe frequency.  Check the DS ratio is never below 1 and
  // announce ordering is always safe.
  for (int n : {3, 6, 10}) {
    for (std::uint64_t seed : {51u, 52u}) {
      auto options = Base(DetectorKind::kDijkstraScholten, seed);
      options.num_processes = n;
      auto result = RunTerminationExperiment(options);
      ASSERT_TRUE(result.announced);
      if (result.underlying_messages > 0) {
        EXPECT_GE(result.overhead_ratio, 1.0);
      }
      EXPECT_TRUE(result.safe);
    }
  }
}

}  // namespace
}  // namespace hpl::protocols
