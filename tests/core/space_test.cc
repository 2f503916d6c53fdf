#include "core/space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/isomorphism.h"
#include "core/random_system.h"
#include "core/state_view.h"

namespace hpl {
namespace {

// A tiny deterministic system: p0 sends m0 to p1, p1 receives.
LambdaSystem PingSystem() {
  return LambdaSystem(
      2,
      [](const Computation& x) {
        std::vector<Event> out;
        const Event send = Send(0, 1, 0, "ping");
        const Event recv = Receive(1, 0, 0, "ping");
        if (CanExtend(x, send) && x.CountOn(0) == 0) out.push_back(send);
        if (CanExtend(x, recv)) out.push_back(recv);
        return out;
      },
      "ping");
}

TEST(SpaceTest, EnumeratesPingSystem) {
  auto space = ComputationSpace::Enumerate(PingSystem());
  // {empty, <send>, <send recv>}.
  EXPECT_EQ(space.size(), 3u);
  EXPECT_FALSE(space.truncated());
  EXPECT_EQ(space.system_name(), "ping");
}

TEST(SpaceTest, IndexOfFindsPermutations) {
  // Independent internals on two processes: 2 orders, 1 class.
  ExplicitSystem system(2, {Computation({Internal(0, "a"), Internal(1, "b")})});
  auto space = ComputationSpace::Enumerate(system);
  // Classes: {}, {a}, {b}, {ab} -> 4.
  EXPECT_EQ(space.size(), 4u);
  const Computation ab({Internal(0, "a"), Internal(1, "b")});
  const Computation ba({Internal(1, "b"), Internal(0, "a")});
  ASSERT_TRUE(space.IndexOf(ab).has_value());
  EXPECT_EQ(space.IndexOf(ab), space.IndexOf(ba));
  EXPECT_FALSE(space.IndexOf(Computation({Internal(0, "zzz")})).has_value());
  EXPECT_THROW(space.RequireIndex(Computation({Internal(0, "zzz")})),
               ModelError);
}

TEST(SpaceTest, CanonicalClassesQuotientTheRawInterleavings) {
  // [D]-canonical deduplication: the literal-interleaving space holds many
  // more sequences than there are classes, every sequence lands in a
  // class, and every class is some sequence's.
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 2;
  options.internal_events = 1;
  options.seed = 2101;
  RandomSystem system(options);
  auto canonical = ComputationSpace::Enumerate(system, {.max_depth = 40});
  auto raw = ComputationSpace::Enumerate(
      system, {.max_depth = 40, .canonicalize = false});
  EXPECT_GT(raw.size(), canonical.size());
  std::vector<bool> hit(canonical.size(), false);
  raw.ForEachComputation(
      0, raw.size(), [](std::size_t) { return true; },
      [&](std::size_t, const Computation& x) {
        const auto id = canonical.IndexOf(x);
        ASSERT_TRUE(id.has_value()) << x.ToString();
        hit[*id] = true;
      });
  EXPECT_EQ(std::count(hit.begin(), hit.end(), true),
            static_cast<std::ptrdiff_t>(canonical.size()));
}

TEST(SpaceTest, ProjectionClassesMatchIsomorphism) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.seed = 5;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  ASSERT_GT(space.size(), 10u);
  for (std::size_t a = 0; a < space.size(); a += 5) {
    for (std::size_t b = 0; b < space.size(); b += 7) {
      for (ProcessId p = 0; p < 3; ++p) {
        const Partition part = space.PartitionOf(ProcessSet::Of(p));
        const bool via_class = part.ClassOf(a) == part.ClassOf(b);
        const bool direct = IsomorphicWrt(space.At(a), space.At(b), p);
        ASSERT_EQ(via_class, direct) << a << "," << b << ",p" << p;
      }
    }
  }
}

TEST(SpaceTest, BucketsPartitionTheSpace) {
  RandomSystemOptions options;
  options.seed = 6;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  for (ProcessId p = 0; p < space.num_processes(); ++p) {
    const Partition part = space.PartitionOf(ProcessSet::Of(p));
    std::vector<bool> seen(space.size(), false);
    std::uint32_t max_class = 0;
    for (std::size_t id = 0; id < space.size(); ++id)
      max_class = std::max(max_class, part.ClassOf(id));
    ASSERT_EQ(part.NumClasses(), max_class + 1u);
    std::size_t total = 0;
    for (std::uint32_t cls = 0; cls <= max_class; ++cls) {
      for (std::uint32_t id : part.Bucket(cls)) {
        ASSERT_FALSE(seen[id]);
        seen[id] = true;
        ASSERT_EQ(part.ClassOf(id), cls);
        ++total;
      }
    }
    EXPECT_EQ(total, space.size());
  }
}

// Every id's bucket, read through the Partition view, is exactly the ids a
// pairwise scan relates: [P] by IsomorphicWrt on the space, equal state keys
// on every member on a StateView.  (E21(b): the [P]-relation sweep.)
TEST(SpaceTest, PartitionBucketsMatchScan) {
  RandomSystemOptions options;
  options.seed = 8;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  std::vector<Computation> all;
  space.ForEachComputation(
      0, space.size(), [](std::size_t) { return true; },
      [&](std::size_t, const Computation& x) { all.push_back(x); });
  const std::vector<ProcessSet> sets = {ProcessSet{0}, ProcessSet{1},
                                        ProcessSet{0, 1}, ProcessSet{0, 1, 2}};
  // ASSERTs that the bucket of every id is {y : related(id, y)}.
  const auto expect_buckets = [&](const Partition& part, ProcessSet set,
                                  const auto& related) {
    for (std::size_t id = 0; id < all.size(); ++id) {
      const auto bucket = part.Bucket(part.ClassOf(id));
      const std::vector<std::size_t> via_bucket(bucket.begin(), bucket.end());
      std::vector<std::size_t> via_scan;
      for (std::size_t y = 0; y < all.size(); ++y)
        if (related(id, y)) via_scan.push_back(y);
      ASSERT_EQ(via_bucket, via_scan)
          << "id=" << id << " set=" << set.ToString();
      ASSERT_EQ(part.Representative(part.ClassOf(id)), via_scan.front());
    }
  };
  for (const ProcessSet set : sets)
    expect_buckets(space.PartitionOf(set), set,
                   [&](std::size_t a, std::size_t b) {
                     return IsomorphicWrt(all[a], all[b], set);
                   });
  for (StateAbstraction abstraction :
       {StateAbstraction::FullHistory(), StateAbstraction::EventCount()}) {
    SCOPED_TRACE(abstraction.name());
    const StateView view(space, abstraction);
    std::vector<std::vector<std::string>> keys(all.size());
    for (std::size_t id = 0; id < all.size(); ++id)
      for (ProcessId p = 0; p < space.num_processes(); ++p)
        keys[id].push_back(abstraction.StateOf(p, all[id].Projection(p)));
    for (const ProcessSet set : sets)
      expect_buckets(view.PartitionOf(set), set,
                     [&](std::size_t a, std::size_t b) {
                       bool same = true;
                       set.ForEach([&](ProcessId p) {
                         same = same && keys[a][p] == keys[b][p];
                       });
                       return same;
                     });
  }
}

TEST(SpaceTest, ComposedRelationBasics) {
  auto space = ComputationSpace::Enumerate(PingSystem());
  const std::size_t empty_id = space.RequireIndex(Computation{});
  const std::size_t sent_id =
      space.RequireIndex(Computation({Send(0, 1, 0, "ping")}));
  const std::size_t done_id = space.RequireIndex(
      Computation({Send(0, 1, 0, "ping"), Receive(1, 0, 0, "ping")}));

  // empty [p1] sent (p1 has no events in either).
  EXPECT_TRUE(space.Isomorphic(empty_id, sent_id, ProcessSet{1}));
  // empty [p1 p0] done: empty [p1] sent... no wait, need y with
  // empty [p1] y and y [p0] done: y = sent works.
  EXPECT_TRUE(space.ComposedIsomorphic(empty_id, done_id,
                                       {ProcessSet{1}, ProcessSet{0}}));
  // But not via [p0 p1]: y with empty [p0] y has no send, and y [p1] done
  // needs the receive (hence the send) — impossible.
  EXPECT_FALSE(space.ComposedIsomorphic(empty_id, done_id,
                                        {ProcessSet{0}, ProcessSet{1}}));
}

TEST(SpaceTest, ComposedPathWitnessesTheRelation) {
  RandomSystemOptions options;
  options.seed = 9;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const std::vector<ProcessSet> stages{ProcessSet{0}, ProcessSet{1},
                                       ProcessSet{2}};
  int found = 0, absent = 0;
  for (std::size_t a = 0; a < space.size(); a += 7) {
    for (std::size_t b = 0; b < space.size(); b += 11) {
      const auto path = space.ComposedPath(a, b, stages);
      const bool related = space.ComposedIsomorphic(a, b, stages);
      ASSERT_EQ(!path.empty(), related) << a << "," << b;
      if (path.empty()) {
        ++absent;
        continue;
      }
      ++found;
      ASSERT_EQ(path.size(), stages.size() + 1);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      for (std::size_t i = 0; i < stages.size(); ++i)
        EXPECT_TRUE(space.Isomorphic(path[i], path[i + 1], stages[i]))
            << "step " << i;
    }
  }
  EXPECT_GT(found, 0);
  (void)absent;  // multi-stage relations may saturate the space
  // Single-stage paths must be exactly the [P]-relation, with genuine
  // non-members.
  int single_absent = 0;
  for (std::size_t b = 0; b < space.size(); ++b) {
    const auto path = space.ComposedPath(0, b, {ProcessSet{0}});
    EXPECT_EQ(!path.empty(), space.Isomorphic(0, b, ProcessSet{0}));
    if (path.empty()) ++single_absent;
  }
  EXPECT_GT(single_absent, 0);
}

TEST(SpaceTest, ComposedReachableGrowsWithStages) {
  RandomSystemOptions options;
  options.seed = 12;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const std::vector<ProcessSet> one{ProcessSet{0}};
  const std::vector<ProcessSet> two{ProcessSet{0}, ProcessSet{1}};
  for (std::size_t id = 0; id < space.size(); id += 17) {
    const auto r1 = space.ComposedReachable(id, one);
    const auto r2 = space.ComposedReachable(id, two);
    // Composing with another relation can only keep or grow the set
    // ([P][Q] includes y [Q] y = y for each y in [P]'s image).
    EXPECT_TRUE(std::includes(r2.begin(), r2.end(), r1.begin(), r1.end()));
  }
}

TEST(SpaceTest, IdempotenceProperty) {
  // Property 3 of the paper: [P P] = [P].
  RandomSystemOptions options;
  options.seed = 13;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const ProcessSet p{0, 2};
  for (std::size_t id = 0; id < space.size(); id += 13) {
    const auto once = space.ComposedReachable(id, {p});
    const auto twice = space.ComposedReachable(id, {p, p});
    EXPECT_EQ(once, twice);
  }
}

TEST(SpaceTest, InversionProperty) {
  // Property 5: x [P1 ... Pn] y == y [Pn ... P1] x.
  RandomSystemOptions options;
  options.seed = 14;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const std::vector<ProcessSet> fwd{ProcessSet{0}, ProcessSet{1, 2}};
  const std::vector<ProcessSet> rev{ProcessSet{1, 2}, ProcessSet{0}};
  for (std::size_t a = 0; a < space.size(); a += 23) {
    for (std::size_t b = 0; b < space.size(); b += 19) {
      EXPECT_EQ(space.ComposedIsomorphic(a, b, fwd),
                space.ComposedIsomorphic(b, a, rev));
    }
  }
}

TEST(SpaceTest, TruncationPolicy) {
  // An infinite system: p0 keeps doing internal events.
  LambdaSystem infinite(
      2,
      [](const Computation& x) {
        return std::vector<Event>{
            Internal(0, "tick" + std::to_string(x.size()))};
      },
      "infinite");
  EXPECT_THROW(
      ComputationSpace::Enumerate(infinite, {.max_depth = 5}),
      ModelError);
  auto space = ComputationSpace::Enumerate(
      infinite, {.max_depth = 5, .allow_truncation = true});
  EXPECT_TRUE(space.truncated());
  EXPECT_EQ(space.size(), 6u);  // lengths 0..5
}

TEST(SpaceTest, ClassBudgetEnforced) {
  RandomSystemOptions options;
  options.seed = 15;
  RandomSystem system(options);
  EXPECT_THROW(
      ComputationSpace::Enumerate(system, {.max_depth = 24, .max_classes = 3}),
      ModelError);
}

TEST(SpaceTest, RejectsProcessCountsTheStoreCannotHold) {
  // Projection rows are kMaxProcesses wide: a System reporting more (or no)
  // processes must be refused with its count named, before any row exists.
  for (const int n : {kMaxProcesses + 1, 0}) {
    const LambdaSystem system(
        n,
        [n](const Computation& x) {
          std::vector<Event> out;
          if (x.size() < 2) out.push_back(Internal(n - 1, "tick"));
          return out;
        },
        "wide");
    SpaceBuilder builder;
    try {
      builder.Build(system);
      ADD_FAILURE() << n << " processes enumerated";
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what())
                    .find("has " + std::to_string(n) + " processes"),
                std::string::npos)
          << error.what();
    }
    EXPECT_FALSE(builder.has_space());
  }
}

TEST(SpaceTest, SuccessorsAreOneEventExtensions) {
  auto space = ComputationSpace::Enumerate(PingSystem());
  const std::size_t empty_id = space.RequireIndex(Computation{});
  const auto& succ = space.SuccessorsOf(empty_id);
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0].event, Send(0, 1, 0, "ping"));
  EXPECT_EQ(space.At(succ[0].class_id).size(), 1u);
}

TEST(SpaceTest, IdsByLengthSorted) {
  RandomSystemOptions options;
  options.seed = 16;
  RandomSystem system(options);
  auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  const auto& ids = space.IdsByLength();
  ASSERT_EQ(ids.size(), space.size());
  for (std::size_t i = 1; i < ids.size(); ++i)
    EXPECT_LE(space.At(ids[i - 1]).size(), space.At(ids[i]).size());
}

}  // namespace
}  // namespace hpl
