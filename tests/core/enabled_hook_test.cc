// System::EnabledEventsAt, the row hook the space builder expands every
// frontier member through.  A system that overrides it must build the very
// space its EnabledEvents describes: every built-in system is enumerated
// once directly (its override, or the default adapter) and once wrapped in
// a LambdaSystem that forwards EnabledEvents (always the default adapter),
// and the builder snapshots must be byte-identical — full builds, capped
// builds deepened to completion, canonical and literal dedup, 1 and 4
// threads.  Events the hook emits are still checked: an illegal one is
// named, and a Deepen that meets it leaves the builder as it was.
#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/faults.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "core/space.h"
#include "core/system.h"
#include "protocols/lockstep.h"
#include "protocols/relay.h"
#include "protocols/token_bus.h"
#include "protocols/tracker.h"
#include "protocols/two_generals.h"

namespace hpl {
namespace {

std::string BuilderBytes(const SpaceBuilder& builder) {
  std::ostringstream out;
  SaveSpaceBuilderSnapshot(builder, out);
  return out.str();
}

EnumerationLimits Limits(int max_depth, int threads, bool canonicalize) {
  EnumerationLimits limits;
  limits.max_depth = max_depth;
  limits.allow_truncation = true;
  limits.canonicalize = canonicalize;
  limits.num_threads = threads;
  return limits;
}

// `system` seen only through EnabledEvents: the builder reaches it through
// the default adapter whatever `system` overrides.  Same name, so the
// snapshots agree byte for byte.
LambdaSystem Forwarding(const System& system) {
  return LambdaSystem(
      system.NumProcesses(),
      [&system](const Computation& x) { return system.EnabledEvents(x); },
      system.Name());
}

RandomSystem Random(std::uint64_t seed) {
  RandomSystemOptions options;
  options.seed = seed;
  return RandomSystem(options);
}

RandomSystem SmallRandom() {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 2;
  options.seed = 5;
  return RandomSystem(options);
}

// Deeper than any family's longest computation: builds complete.
constexpr int kFullDepth = 64;

struct Family {
  std::string name;
  const System* system;
  // False for lockstep: not closed under valid permutations, so it is only
  // enumerated with literal dedup (EnumerationLimits::canonicalize).
  bool permutation_closed = true;
};

class EnabledHookTest : public ::testing::Test {
 protected:
  EnabledHookTest()
      : bus_(4, 6),
        random7_(Random(7)),
        random42_(Random(42)),
        crash_base_(SmallRandom()),
        crash_(crash_base_, {.max_crashes = 1, .may_crash = {}}),
        relay_(5),
        tracker_(3),
        lockstep_(3),
        generals_(3),
        explicit_(3, {Computation({Send(0, 1, 0, "a"), Internal(2, "x"),
                                   Receive(1, 0, 0, "a"), Send(1, 2, 1, "b"),
                                   Receive(2, 1, 1, "b")}),
                      Computation({Internal(0, "y"), Internal(2, "x")})}) {}

  std::vector<Family> Families() const {
    return {{"token-bus", &bus_},       {"random:7", &random7_},
            {"random:42", &random42_},  {"crash-fault", &crash_},
            {"relay", &relay_},         {"tracker", &tracker_},
            {"lockstep", &lockstep_, false},
            {"two-generals", &generals_},
            {"explicit", &explicit_}};
  }

  protocols::TokenBusSystem bus_;
  RandomSystem random7_;
  RandomSystem random42_;
  RandomSystem crash_base_;
  CrashFaultSystem crash_;
  protocols::RelaySystem relay_;
  protocols::TrackerSystem tracker_;
  protocols::LockstepSystem lockstep_;
  protocols::TwoGeneralsSystem generals_;
  ExplicitSystem explicit_;
};

TEST_F(EnabledHookTest, OverrideAndAdapterBuildTheSameBytes) {
  for (const Family& family : Families()) {
    const LambdaSystem forwarding = Forwarding(*family.system);
    for (const bool canonicalize : {true, false}) {
      if (canonicalize && !family.permutation_closed) continue;
      for (const int threads : {1, 4}) {
        const std::string what = family.name + " canonicalize=" +
                                 std::to_string(canonicalize) +
                                 " threads=" + std::to_string(threads);
        SpaceBuilder direct;
        direct.Build(*family.system,
                     Limits(kFullDepth, threads, canonicalize));
        SpaceBuilder adapted;
        adapted.Build(forwarding, Limits(kFullDepth, threads, canonicalize));
        ASSERT_TRUE(direct.complete()) << what;
        EXPECT_GT(direct.space().size(), 5u) << what;
        EXPECT_EQ(BuilderBytes(direct), BuilderBytes(adapted)) << what;

        // Capped at half the full depth, then deepened level by level.
        const int cap = std::max(1, direct.built_depth() / 2);
        SpaceBuilder direct_steps;
        direct_steps.Build(*family.system,
                           Limits(cap, threads, canonicalize));
        SpaceBuilder adapted_steps;
        adapted_steps.Build(forwarding, Limits(cap, threads, canonicalize));
        EXPECT_EQ(BuilderBytes(direct_steps), BuilderBytes(adapted_steps))
            << what << " cap " << cap;
        while (!direct_steps.complete()) {
          const std::size_t added = direct_steps.Deepen(1);
          EXPECT_EQ(adapted_steps.Deepen(1), added) << what;
          ASSERT_EQ(BuilderBytes(direct_steps), BuilderBytes(adapted_steps))
              << what << " at depth " << direct_steps.built_depth();
        }
        EXPECT_TRUE(adapted_steps.complete()) << what;
        EXPECT_EQ(BuilderBytes(direct_steps), BuilderBytes(direct)) << what;
      }
    }
  }
}

TEST_F(EnabledHookTest, EveryClassAnswersAsEnabledEvents) {
  // The hook's contract, class by class: over an EventRow of the class's
  // events, the hook answers exactly EnabledEvents, in order.
  for (const Family& family : Families()) {
    const ComputationSpace space = ComputationSpace::Enumerate(
        *family.system, Limits(kFullDepth, 1, family.permutation_closed));
    std::vector<Event> got;
    std::vector<std::uint32_t> ids;
    for (std::size_t id = 0; id < space.size(); ++id) {
      const Computation x = space.At(id);
      ids.resize(x.size());
      std::iota(ids.begin(), ids.end(), 0u);
      family.system->EnabledEventsAt(EventRow(ids, x.events()), got);
      ASSERT_EQ(got, family.system->EnabledEvents(x))
          << family.name << " at " << x.ToString();
    }
  }
}

// Two processes: p0 sends m0, then both run internal events independently
// until depth `bad_depth`, where the hook's only event is an illegal one: a
// second send of m0, or a receive of a message never sent.
class IllegalAtDepthSystem : public System {
 public:
  enum class Fault { kDuplicateSend, kUnmatchedReceive };
  IllegalAtDepthSystem(Fault fault, std::size_t bad_depth)
      : fault_(fault), bad_depth_(bad_depth) {}

  int NumProcesses() const override { return 2; }
  std::vector<Event> EnabledEvents(const Computation& x) const override {
    std::vector<Event> out;
    Enabled(x.events(), out);
    return out;
  }
  void EnabledEventsAt(EventRow x, std::vector<Event>& out) const override {
    Enabled(x, out);
  }
  std::string Name() const override { return "illegal-at-depth"; }

 private:
  template <typename Events>
  void Enabled(const Events& x, std::vector<Event>& out) const {
    out.clear();
    if (x.size() == bad_depth_) {
      out.push_back(fault_ == Fault::kDuplicateSend ? Send(0, 1, 0, "m")
                                                    : Receive(1, 0, 7, "m"));
      return;
    }
    int on[2] = {0, 0};
    for (std::size_t i = 0; i < x.size(); ++i) ++on[x[i].process];
    if (on[0] == 0) {
      out.push_back(Send(0, 1, 0, "m"));
      return;
    }
    out.push_back(Internal(0, "a" + std::to_string(on[0])));
    out.push_back(Internal(1, "b" + std::to_string(on[1])));
  }

  Fault fault_;
  std::size_t bad_depth_;
};

TEST(EnabledHookIllegalTest, IllegalEventsFromTheHookAreNamed) {
  constexpr std::size_t kBad = 4;
  const struct {
    IllegalAtDepthSystem::Fault fault;
    std::string why;
  } cases[] = {
      {IllegalAtDepthSystem::Fault::kDuplicateSend, "message sent twice"},
      {IllegalAtDepthSystem::Fault::kUnmatchedReceive,
       "receive without earlier send"},
  };
  for (const auto& c : cases) {
    const IllegalAtDepthSystem system(c.fault, kBad);
    for (const int threads : {1, 4}) {
      const std::string what = c.why + " threads=" + std::to_string(threads);
      const auto expect_named = [&](const auto& call) {
        try {
          call();
          ADD_FAILURE() << what << ": no throw";
        } catch (const ModelError& e) {
          const std::string msg = e.what();
          EXPECT_NE(msg.find("produced an illegal event"), std::string::npos)
              << what << ": " << msg;
          EXPECT_NE(msg.find(c.why), std::string::npos) << what << ": " << msg;
        }
      };

      // A fresh build runs into the event.
      expect_named([&] {
        SpaceBuilder builder;
        builder.Build(system, Limits(64, threads, true));
      });

      // A build parked at the bad depth asks the hook there only whether
      // the members are extendable; the Deepen that expands them throws
      // and leaves the builder's bytes as they were.
      SpaceBuilder capped;
      capped.Build(system, Limits(static_cast<int>(kBad), threads, true));
      ASSERT_FALSE(capped.complete()) << what;
      const std::string before = BuilderBytes(capped);
      expect_named([&] { capped.Deepen(1); });
      EXPECT_EQ(BuilderBytes(capped), before) << what;
      expect_named([&] { capped.Deepen(2); });
      EXPECT_EQ(BuilderBytes(capped), before) << what;
    }
  }
}

}  // namespace
}  // namespace hpl
