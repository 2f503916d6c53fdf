// Synchronous rounds: time lets knowledge be gained without chains —
// the paper's Discussion caveat and the reason Section 5's failure-
// detection impossibility says "without time-outs".
#include "protocols/lockstep.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/knowledge.h"
#include "core/process_chain.h"

namespace hpl::protocols {
namespace {

TEST(LockstepTest, GeneratorFollowsRoundStructure) {
  LockstepSystem system(2);
  hpl::Computation x;
  auto e0 = system.EnabledEvents(x);
  ASSERT_EQ(e0.size(), 2u);  // heartbeat or crash
  EXPECT_TRUE(e0[0].IsSend());
  EXPECT_EQ(e0[1].label, "crash");
  // Alive branch forces delivery then the two ticks.
  x = x.Extended(e0[0]);
  auto e1 = system.EnabledEvents(x);
  ASSERT_EQ(e1.size(), 1u);
  EXPECT_TRUE(e1[0].IsReceive());
}

TEST(LockstepTest, CanonicalRunsAreComputationsOfTheSystem) {
  LockstepSystem system(3);
  auto space = hpl::ComputationSpace::Enumerate(system, {.max_depth = 16, .canonicalize = false});
  EXPECT_FALSE(space.truncated());
  EXPECT_TRUE(space.IndexOf(system.AliveRun(3)).has_value());
  for (int c = 0; c < 3; ++c)
    EXPECT_TRUE(space.IndexOf(system.CrashedRun(c, 3)).has_value()) << c;
  EXPECT_EQ(system.CompletedRounds(system.AliveRun(3)), 3);
}

TEST(LockstepTest, MonitorLearnsCrashFromSilence) {
  LockstepSystem system(3);
  auto space = hpl::ComputationSpace::Enumerate(system, {.max_depth = 16, .canonicalize = false});
  hpl::KnowledgeEvaluator eval(space);
  const hpl::Predicate crashed = system.Crashed();
  ASSERT_TRUE(eval.IsLocalTo(crashed, hpl::ProcessSet{1}));

  // q crashes before round 1; after p's round-1 tick (no heartbeat seen),
  // p knows q crashed.
  const hpl::Computation y = system.CrashedRun(/*crash_round=*/1, 2);
  EXPECT_TRUE(eval.Knows(hpl::ProcessSet{0}, crashed,
                         space.RequireIndex(y)));
  // While heartbeats flow, p does not know "crashed" (q may still be
  // alive — and may also have crashed just after its last heartbeat, so p
  // knows neither way).
  const hpl::Computation alive = system.AliveRun(2);
  EXPECT_FALSE(eval.Knows(hpl::ProcessSet{0}, crashed,
                          space.RequireIndex(alive)));
}

TEST(LockstepTest, KnowledgeGainWithoutChain_TheoremFiveFails) {
  // The headline contrast: knowledge of "q crashed" (local to q) is
  // gained by p across an interval containing NO chain <q p>.
  LockstepSystem system(3);
  auto space = hpl::ComputationSpace::Enumerate(system, {.max_depth = 16, .canonicalize = false});
  hpl::KnowledgeEvaluator eval(space);
  const hpl::Predicate crashed = system.Crashed();

  // Every crash round of a 2- and a 3-round run is learned without a chain.
  for (const auto& [crash_round, total_rounds] :
       {std::pair{1, 2}, std::pair{0, 3}, std::pair{1, 3}, std::pair{2, 3}}) {
    const hpl::Computation y = system.CrashedRun(crash_round, total_rounds);
    // x: the prefix ending right before the crash event.
    std::size_t crash_at = 0;
    for (std::size_t i = 0; i < y.size(); ++i)
      if (y.at(i).label == "crash") crash_at = i;
    const hpl::Computation x = y.Prefix(crash_at);

    ASSERT_FALSE(eval.Knows(hpl::ProcessSet{0}, crashed,
                            space.RequireIndex(x)));
    ASSERT_TRUE(eval.Knows(hpl::ProcessSet{0}, crashed,
                           space.RequireIndex(y)));
    // Theorem 5 would demand a chain <q p> in (x, y); there is none.
    hpl::ChainDetector detector(y, 2, x.size());
    EXPECT_FALSE(detector.HasChain({hpl::ProcessSet{1}, hpl::ProcessSet{0}}))
        << "synchrony transferred knowledge without a message chain, crash "
           "round "
        << crash_round << " of " << total_rounds;
  }
}

TEST(LockstepTest, AsynchronousCounterpartCannotLearn) {
  // Sanity contrast within the same codebase: in the *asynchronous* crash
  // model (Section 5's failure detection without time-outs) p never knows.  Here we only confirm the
  // lockstep system genuinely needs its synchrony: drop the round
  // structure by allowing silent rounds for an alive q, and the knowledge
  // disappears.
  hpl::LambdaSystem loose(
      2,
      [](const hpl::Computation& x) {
        // q may send hb or stay silent each "round", crashed or not; no
        // delivery deadline.  (Crash still possible.)
        std::vector<hpl::Event> out;
        bool crashed = false;
        int q_acts = 0;
        for (const hpl::Event& e : x.events()) {
          if (e.process == 1 && !e.IsReceive()) {
            if (e.label == "crash") crashed = true;
            ++q_acts;
          }
        }
        if (q_acts < 3 && !crashed) {
          out.push_back(hpl::Send(1, 0, q_acts, "hb"));
          out.push_back(hpl::Internal(1, "silent"));
          out.push_back(hpl::Internal(1, "crash"));
        }
        for (const hpl::Event& e : x.events())
          if (e.IsSend()) {
            hpl::Event recv = hpl::Receive(0, 1, e.message, e.label);
            if (hpl::CanExtend(x, recv)) out.push_back(recv);
          }
        return out;
      },
      "loose");
  auto space = hpl::ComputationSpace::Enumerate(loose, {.max_depth = 12});
  hpl::KnowledgeEvaluator eval(space);
  const hpl::Predicate crashed("crashed", [](const hpl::Computation& x) {
    for (const hpl::Event& e : x.events())
      if (e.process == 1 && e.IsInternal() && e.label == "crash")
        return true;
    return false;
  });
  for (std::size_t id = 0; id < space.size(); ++id)
    EXPECT_FALSE(eval.Knows(hpl::ProcessSet{0}, crashed, id))
        << space.At(id).ToString();
}

TEST(LockstepTest, ConstructorValidation) {
  EXPECT_THROW(LockstepSystem(0), hpl::ModelError);
}

}  // namespace
}  // namespace hpl::protocols
