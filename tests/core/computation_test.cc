#include "core/computation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "core/random_system.h"

namespace hpl {
namespace {

Computation PingPong() {
  // p0 sends m0 to p1; p1 replies m1; interleaved with internals.
  return Computation({
      Internal(0, "start"),
      Send(0, 1, 0, "ping"),
      Receive(1, 0, 0, "ping"),
      Send(1, 0, 1, "pong"),
      Receive(0, 1, 1, "pong"),
      Internal(1, "done"),
  });
}

TEST(ComputationTest, EmptyIsValid) {
  const Computation c;
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.ActiveProcesses().IsEmpty());
}

TEST(ComputationTest, ValidSequenceAccepted) {
  const Computation c = PingPong();
  EXPECT_EQ(c.size(), 6u);
  EXPECT_EQ(c.ActiveProcesses(), (ProcessSet{0, 1}));
}

TEST(ComputationTest, ReceiveBeforeSendRejected) {
  EXPECT_THROW(Computation({Receive(1, 0, 0, "x"), Send(0, 1, 0, "x")}),
               ModelError);
}

TEST(ComputationTest, ReceiveWithoutSendRejected) {
  EXPECT_THROW(Computation({Receive(1, 0, 99, "x")}), ModelError);
}

TEST(ComputationTest, DuplicateSendRejected) {
  EXPECT_THROW(Computation({Send(0, 1, 0, "x"), Send(0, 2, 0, "x")}),
               ModelError);
}

TEST(ComputationTest, DuplicateReceiveRejected) {
  EXPECT_THROW(Computation({Send(0, 1, 0, "x"), Receive(1, 0, 0, "x"),
                            Receive(1, 0, 0, "x")}),
               ModelError);
}

TEST(ComputationTest, MismatchedEndpointsRejected) {
  // Send targets p1 but p2 receives.
  EXPECT_THROW(Computation({Send(0, 1, 0, "x"), Receive(2, 0, 0, "x")}),
               ModelError);
}

TEST(ComputationTest, MismatchedLabelRejected) {
  EXPECT_THROW(Computation({Send(0, 1, 0, "x"), Receive(1, 0, 0, "y")}),
               ModelError);
}

TEST(ComputationTest, SelfSendRejected) {
  EXPECT_THROW(Computation({Send(0, 0, 0, "x")}), ModelError);
}

TEST(ComputationTest, ProjectionSelectsProcessEvents) {
  const Computation c = PingPong();
  const auto p0 = c.Projection(0);
  ASSERT_EQ(p0.size(), 3u);
  EXPECT_EQ(p0[0], Internal(0, "start"));
  EXPECT_EQ(p0[1], Send(0, 1, 0, "ping"));
  EXPECT_EQ(p0[2], Receive(0, 1, 1, "pong"));
  EXPECT_EQ(c.Projection(7).size(), 0u);
  EXPECT_EQ(c.CountOn(0), 3);
  EXPECT_EQ(c.CountOn(1), 3);
  EXPECT_EQ(c.CountOn(5), 0);
}

TEST(ComputationTest, ProjectionOnSetPreservesOrder) {
  const Computation c = PingPong();
  const auto both = c.ProjectionOnSet(ProcessSet{0, 1});
  EXPECT_EQ(both, c.events());
  const auto none = c.ProjectionOnSet(ProcessSet::Empty());
  EXPECT_TRUE(none.empty());
}

TEST(ComputationTest, PrefixRelation) {
  const Computation c = PingPong();
  const Computation p = c.Prefix(3);
  EXPECT_TRUE(p.IsPrefixOf(c));
  EXPECT_FALSE(c.IsPrefixOf(p));
  EXPECT_TRUE(Computation().IsPrefixOf(c));  // null <= z for all z
  EXPECT_TRUE(c.IsPrefixOf(c));
  // Prefix closure: every prefix of a computation is a computation.
  for (std::size_t n = 0; n <= c.size(); ++n)
    EXPECT_NO_THROW(Computation(std::vector<Event>(
        c.events().begin(), c.events().begin() + n)));
}

TEST(ComputationTest, SuffixAfter) {
  const Computation c = PingPong();
  const Computation x = c.Prefix(2);
  const auto suffix = c.SuffixAfter(x);
  ASSERT_EQ(suffix.size(), 4u);
  EXPECT_EQ(suffix[0], Receive(1, 0, 0, "ping"));
  EXPECT_THROW(c.SuffixAfter(Computation({Internal(5, "z")})), ModelError);
}

TEST(ComputationTest, ExtendedValidates) {
  const Computation c;
  const Computation c1 = c.Extended(Send(0, 1, 0, "x"));
  EXPECT_EQ(c1.size(), 1u);
  EXPECT_THROW(c1.Extended(Send(0, 1, 0, "x")), ModelError);
  EXPECT_NO_THROW(c1.Extended(Receive(1, 0, 0, "x")));
}

TEST(ComputationTest, ConcatValidatesWholeSequence) {
  const Computation x({Send(0, 1, 0, "x")});
  const std::vector<Event> good{Receive(1, 0, 0, "x")};
  EXPECT_EQ(x.Concat(good).size(), 2u);
  const std::vector<Event> bad{Receive(1, 0, 5, "x")};
  EXPECT_THROW(x.Concat(bad), ModelError);
}

TEST(ComputationTest, PermutationDetection) {
  // Two independent internal events commute.
  const Computation a({Internal(0, "x"), Internal(1, "y")});
  const Computation b({Internal(1, "y"), Internal(0, "x")});
  EXPECT_TRUE(a.IsPermutationOf(b));
  EXPECT_TRUE(a.IsPermutationOf(a));
  const Computation c({Internal(0, "x"), Internal(1, "z")});
  EXPECT_FALSE(a.IsPermutationOf(c));
  EXPECT_FALSE(a.IsPermutationOf(Computation({Internal(0, "x")})));
}

TEST(ComputationTest, CanonicalIsPermutationInvariant) {
  const Computation a({Internal(2, "c"), Internal(0, "a"), Internal(1, "b")});
  const Computation b({Internal(0, "a"), Internal(1, "b"), Internal(2, "c")});
  EXPECT_EQ(a.Canonical(), b.Canonical());
  EXPECT_EQ(a.CanonicalHash(), b.CanonicalHash());
}

TEST(ComputationTest, CanonicalRespectsMessageOrder) {
  // The receive cannot be canonicalized before its send even though the
  // receiver has a lower process id.
  const Computation c({Send(1, 0, 0, "x"), Receive(0, 1, 0, "x")});
  const Computation canon = c.Canonical();
  EXPECT_TRUE(canon.at(0).IsSend());
  EXPECT_TRUE(canon.at(1).IsReceive());
}

TEST(ComputationTest, CanonicalPreservesProjections) {
  const Computation c = PingPong();
  const Computation canon = c.Canonical();
  for (ProcessId p = 0; p < 2; ++p)
    EXPECT_EQ(c.Projection(p), canon.Projection(p));
  EXPECT_TRUE(c.IsPermutationOf(canon));
}

TEST(ComputationTest, ProjectionHashMatchesEquality) {
  const Computation a = PingPong();
  const Computation b = PingPong();
  EXPECT_EQ(a.ProjectionHash(0), b.ProjectionHash(0));
  const Computation c({Internal(0, "other")});
  EXPECT_NE(a.ProjectionHash(0), c.ProjectionHash(0));
}

TEST(ComputationTest, CorrespondingSend) {
  const Computation c = PingPong();
  EXPECT_EQ(c.CorrespondingSend(2), std::optional<std::size_t>{1});
  EXPECT_EQ(c.CorrespondingSend(4), std::optional<std::size_t>{3});
  EXPECT_EQ(c.CorrespondingSend(0), std::nullopt);  // internal
  EXPECT_EQ(c.CorrespondingSend(1), std::nullopt);  // send
}

TEST(ComputationTest, CanExtendDiagnostics) {
  std::string why;
  const Computation c({Send(0, 1, 0, "x")});
  EXPECT_FALSE(CanExtend(c, Send(2, 3, 0, "y"), &why));
  EXPECT_NE(why.find("twice"), std::string::npos);
  EXPECT_FALSE(CanExtend(c, Receive(1, 0, 1, "x"), &why));
  EXPECT_FALSE(CanExtend(c, Receive(2, 0, 0, "x"), &why));
  EXPECT_TRUE(CanExtend(c, Receive(1, 0, 0, "x"), &why));
}

TEST(ComputationTest, CanExtendEmptyComputation) {
  const Computation empty;
  std::string why;
  // Internal and send events are always admissible on the empty computation.
  EXPECT_TRUE(CanExtend(empty, Internal(0, "a"), &why));
  EXPECT_TRUE(CanExtend(empty, Send(0, 1, 0, "m"), &why));
  // A receive has no earlier send to pair with.
  EXPECT_FALSE(CanExtend(empty, Receive(1, 0, 0, "m"), &why));
  EXPECT_NE(why.find("send"), std::string::npos);
  // Malformed events are rejected regardless of the (empty) history.
  EXPECT_FALSE(CanExtend(empty, Send(0, 0, 0, "m"), &why));   // self-send
  EXPECT_FALSE(CanExtend(empty, Internal(-1, "a"), &why));    // bad process
  EXPECT_FALSE(CanExtend(empty, Internal(kMaxProcesses, "a"), &why));
}

TEST(ComputationTest, CanExtendMaximalComputation) {
  // "Maximal" for the message discipline: every sent message has already
  // been received, so no receive whatsoever can extend the computation.
  const Computation maximal({Send(0, 1, 0, "m"), Receive(1, 0, 0, "m"),
                             Send(1, 0, 1, "r"), Receive(0, 1, 1, "r")});
  std::string why;
  EXPECT_FALSE(CanExtend(maximal, Receive(1, 0, 0, "m"), &why));  // replay
  EXPECT_NE(why.find("twice"), std::string::npos);
  EXPECT_FALSE(CanExtend(maximal, Receive(0, 1, 1, "r"), &why));
  EXPECT_FALSE(CanExtend(maximal, Receive(1, 0, 2, "m"), &why));  // unknown id
  // Fresh sends and internal events still extend it — system computations
  // have no global maximum, only message-discipline saturation.
  EXPECT_TRUE(CanExtend(maximal, Send(0, 1, 2, "m2"), &why));
  EXPECT_TRUE(CanExtend(maximal, Internal(1, "done"), &why));
  // Re-sending an already-consumed message id is still a duplicate send.
  EXPECT_FALSE(CanExtend(maximal, Send(0, 1, 0, "m"), &why));
}

TEST(ComputationTest, CanExtendAgreesWithExtended) {
  const Computation c({Send(0, 1, 0, "m")});
  const Event good = Receive(1, 0, 0, "m");
  const Event bad = Receive(1, 0, 0, "wrong-label");
  ASSERT_TRUE(CanExtend(c, good, nullptr));
  EXPECT_NO_THROW(c.Extended(good));
  ASSERT_FALSE(CanExtend(c, bad, nullptr));
  EXPECT_THROW(c.Extended(bad), ModelError);
}

TEST(ComputationTest, ToStringRoundtrips) {
  const Computation c({Internal(0, "a"), Send(0, 1, 0, "m")});
  EXPECT_EQ(c.ToString(), "<p0.internal[a] p0.send(m0->p1)[m]>");
}

TEST(CanonicalExtendedTest, SplicesIntoGreedyEmissionPoint) {
  // canon = <s1 c r1>: p1 sends m1 and does an internal, then p0 receives —
  // the greedy scheduler parks r1 in sweep 1 because m1 is unsent when the
  // sweep-0 pointer passes p0.
  const Computation canon({Send(1, 0, 1, "m"), Internal(1, "c"),
                           Receive(0, 1, 1, "m")});
  ASSERT_EQ(canon, canon.Canonical());

  // A dependency-free event on a fresh process is emitted in sweep 0, i.e.
  // before r1 even though it is appended last.
  const Event fresh = Internal(2, "g");
  EXPECT_EQ(canon.CanonicalExtended(fresh),
            canon.Extended(fresh).Canonical());
  EXPECT_EQ(canon.CanonicalExtended(fresh).at(2), fresh);

  // An event depending on r1 lands after it (same sweep, same process).
  const Event after = Internal(0, "h");
  EXPECT_EQ(canon.CanonicalExtended(after),
            canon.Extended(after).Canonical());
  EXPECT_EQ(canon.CanonicalExtended(after).at(3), after);

  // A receive whose send sits on a higher process than the receiver: the
  // pointer has already passed p0 in the send's sweep, so it waits for the
  // next sweep.
  const Event recv = Receive(0, 1, 2, "x");
  const Computation with_send = canon.CanonicalExtended(Send(1, 0, 2, "x"));
  ASSERT_EQ(with_send, with_send.Canonical());
  EXPECT_EQ(with_send.CanonicalExtended(recv),
            with_send.Extended(recv).Canonical());
}

TEST(CanonicalExtendedTest, RejectsIllegalExtensions) {
  const Computation canon({Send(0, 1, 0, "m")});
  EXPECT_THROW(canon.CanonicalExtended(Send(1, 0, 0, "m")), ModelError);
  EXPECT_THROW(canon.CanonicalExtended(Receive(1, 0, 9, "m")), ModelError);
  EXPECT_THROW(Computation().CanonicalExtended(Send(0, 0, 1, "m")),
               ModelError);
}

TEST(CanonicalExtendedTest, MatchesFullRecanonicalizationOverEnumeration) {
  // BFS over a seeded random system from the empty computation, extending
  // canonical representatives by every enabled event: the incremental splice
  // must agree with from-scratch recanonicalization on every extension.
  // This is the exact call pattern of ComputationSpace::Enumerate, which
  // relies on CanonicalExtended for its hot loop.
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.internal_events = 1;
  options.seed = 7;
  const RandomSystem system(options);

  std::vector<Computation> frontier{Computation()};
  std::unordered_set<std::size_t> seen;
  std::size_t checked = 0;
  while (!frontier.empty()) {
    std::vector<Computation> next_frontier;
    for (const Computation& x : frontier) {
      for (const Event& e : system.EnabledEvents(x)) {
        const Computation fast = x.CanonicalExtended(e);
        const Computation slow = x.Extended(e).Canonical();
        ASSERT_EQ(fast, slow)
            << "extending " << x.ToString() << " by " << e.ToString();
        ++checked;
        if (seen.insert(fast.SequenceHash()).second)
          next_frontier.push_back(fast);
      }
    }
    frontier = std::move(next_frontier);
  }
  // The sweep should have crossed a few thousand distinct extensions.
  EXPECT_GT(checked, 2000u);
}

TEST(CanonicalExtendedTest, RowInsertPosMatchesTheCanonicalForm) {
  // The BFS computes splice positions with the range template over an
  // EventRow (interned ids into an event pool).  Over seeded random spaces,
  // for every member and every event it enables, that position must equal
  // Computation::CanonicalInsertPos, and the event must sit at exactly that
  // index of Canonical() of the extension; CanExtend must agree too.
  std::size_t checked = 0;
  for (const std::uint64_t seed : {3u, 7u, 11u, 42u}) {
    RandomSystemOptions options;
    options.num_processes = 3 + static_cast<int>(seed % 2);
    options.num_messages = 4;
    options.internal_events = 1;
    options.seed = seed;
    const RandomSystem system(options);

    std::vector<Event> pool;  // interned events; rows index it
    const auto intern = [&](const Event& e) {
      const auto it = std::find(pool.begin(), pool.end(), e);
      if (it != pool.end())
        return static_cast<std::uint32_t>(it - pool.begin());
      pool.push_back(e);
      return static_cast<std::uint32_t>(pool.size() - 1);
    };
    std::vector<Computation> frontier{Computation()};
    std::unordered_set<std::size_t> seen;
    std::vector<Event> enabled;
    while (!frontier.empty()) {
      std::vector<Computation> next_frontier;
      for (const Computation& x : frontier) {
        std::vector<std::uint32_t> ids;
        for (const Event& e : x.events()) ids.push_back(intern(e));
        const EventRow row(ids, pool);
        system.EnabledEventsAt(row, enabled);
        ASSERT_EQ(enabled, system.EnabledEvents(x)) << x.ToString();
        for (const Event& e : enabled) {
          ASSERT_TRUE(CanExtend(row, e))
              << x.ToString() << " + " << e.ToString();
          const std::size_t pos = CanonicalInsertPos(row, e);
          ASSERT_EQ(pos, x.CanonicalInsertPos(e))
              << x.ToString() << " + " << e.ToString();
          const Computation canon = x.Extended(e).Canonical();
          ASSERT_EQ(canon.at(pos), e) << x.ToString() << " + " << e.ToString();
          ASSERT_EQ(std::count(canon.events().begin(), canon.events().end(), e),
                    1);
          ++checked;
          if (seen.insert(canon.SequenceHash()).second)
            next_frontier.push_back(canon);
        }
        // Events the member does not enable are refused on the row with the
        // reason the Computation entry point gives.
        for (const Event& bad : {Send(0, 1, 0, "m0"), Receive(1, 0, 99, "x")}) {
          std::string why_row, why_x;
          ASSERT_EQ(CanExtend(row, bad, &why_row), CanExtend(x, bad, &why_x));
          ASSERT_EQ(why_row, why_x);
        }
      }
      frontier = std::move(next_frontier);
    }
  }
  EXPECT_GT(checked, 5000u);
}

}  // namespace
}  // namespace hpl
