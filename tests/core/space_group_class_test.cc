// Invariants of the [G]-class (group projection) layer
// (ComputationSpace::EnsureGroupIndex, read as a Partition):
//
//   * partition semantics — two computations share a [G]-class iff they
//     share the [p]-class of every member (the [G]-partition is the common
//     refinement of the member [p]-partitions);
//   * bucket containment — every [G]-bucket is a subset of each member's
//     [p]-bucket of its representative;
//   * |G| = 1 reduction — the lazily built singleton table coincides with
//     the [p]-columns PartitionOf({p}) reads;
//   * CSR shape — buckets are ascending, disjoint, and cover the space;
//   * numbering — class ids are the first-occurrence order of member
//     [p]-class tuples over ascending ids, the ids snapshots persist —
//     whichever cached subgroup a table refines from, on ingested,
//     budgeted and literal spaces, and after a snapshot round trip;
//   * the build reads only bucket CSRs, so it faults nothing in under a
//     residency budget;
//   * StateView's group partitions number state tuples the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/faults.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "core/space.h"
#include "core/state_view.h"
#include "protocols/lockstep.h"
#include "protocols/token_bus.h"

namespace hpl {
namespace {

std::vector<ProcessSet> TestGroups(int num_processes) {
  std::vector<ProcessSet> groups = {ProcessSet{0, 1},
                                    ProcessSet::All(num_processes)};
  if (num_processes >= 3) groups.push_back(ProcessSet{0, 2});
  if (num_processes >= 4) groups.push_back(ProcessSet{1, 2, 3});
  // Dedupe by mask ({0,1} == All(2) on two-process systems).
  std::vector<ProcessSet> unique;
  for (ProcessSet g : groups) {
    bool seen = false;
    for (ProcessSet u : unique)
      if (u.bits() == g.bits()) seen = true;
    if (!seen) unique.push_back(g);
  }
  return unique;
}

void ExpectRefinementInvariants(const ComputationSpace& space, ProcessSet g) {
  const Partition gi = space.EnsureGroupIndex(g);
  ASSERT_TRUE(space.HasGroupIndex(g));

  // Partition semantics against the brute-force definition.
  for (std::size_t a = 0; a < space.size(); ++a) {
    for (std::size_t b = a; b < space.size(); ++b) {
      bool all_members_agree = true;
      g.ForEach([&](ProcessId p) {
        const Partition member = space.PartitionOf(ProcessSet::Of(p));
        if (member.ClassOf(a) != member.ClassOf(b)) all_members_agree = false;
      });
      ASSERT_EQ(gi.ClassOf(a) == gi.ClassOf(b), all_members_agree)
          << "ids " << a << "," << b << " mask=" << g.bits();
    }
  }

  // CSR shape: ascending disjoint buckets covering [0, size()).
  std::vector<char> seen(space.size(), 0);
  std::size_t covered = 0;
  for (std::uint32_t cls = 0; cls < gi.NumClasses(); ++cls) {
    const auto bucket = gi.Bucket(cls);
    ASSERT_FALSE(bucket.empty()) << "empty [G]-bucket " << cls;
    EXPECT_EQ(bucket.front(), gi.Representative(cls));
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(bucket[i - 1], bucket[i]);
      }
      ASSERT_EQ(gi.ClassOf(bucket[i]), cls);
      ASSERT_FALSE(seen[bucket[i]]);
      seen[bucket[i]] = 1;
      ++covered;
    }
  }
  EXPECT_EQ(covered, space.size());

  // Bucket containment: [G]-bucket of x is a subset of every member
  // [p]-bucket of x.
  for (std::uint32_t cls = 0; cls < gi.NumClasses(); ++cls) {
    const auto bucket = gi.Bucket(cls);
    g.ForEach([&](ProcessId p) {
      const Partition member = space.PartitionOf(ProcessSet::Of(p));
      const auto pbucket = member.Bucket(member.ClassOf(bucket.front()));
      for (std::uint32_t y : bucket) {
        bool in_pbucket = false;
        for (std::uint32_t z : pbucket)
          if (z == y) in_pbucket = true;
        ASSERT_TRUE(in_pbucket)
            << "[G]-bucket member " << y << " missing from [p=" << int{p}
            << "]-bucket";
      }
    });
  }
}

void ExpectSingletonReduction(const ComputationSpace& space) {
  for (ProcessId p = 0; p < space.num_processes(); ++p) {
    const Partition gi = space.EnsureGroupIndex(ProcessSet::Of(p));
    const Partition columns = space.PartitionOf(ProcessSet::Of(p));
    ASSERT_EQ(gi.NumClasses(), columns.NumClasses());
    for (std::size_t id = 0; id < space.size(); ++id)
      ASSERT_EQ(gi.ClassOf(id), columns.ClassOf(id));
    for (std::uint32_t cls = 0; cls < gi.NumClasses(); ++cls) {
      const auto lazy = gi.Bucket(cls);
      const auto column = columns.Bucket(cls);
      ASSERT_EQ(std::vector<std::uint32_t>(lazy.begin(), lazy.end()),
                std::vector<std::uint32_t>(column.begin(), column.end()));
    }
  }
}

RandomSystem SmallRandomSystem() {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.internal_events = 1;
  options.seed = 11;
  return RandomSystem(options);
}

ComputationSpace SmallRandomSpace() {
  return ComputationSpace::Enumerate(SmallRandomSystem(), {.max_depth = 24});
}

// Every non-empty process set of the space.
std::vector<ProcessSet> AllGroups(const ComputationSpace& space) {
  std::vector<ProcessSet> groups;
  const std::uint64_t limit = std::uint64_t{1} << space.num_processes();
  for (std::uint64_t mask = 1; mask < limit; ++mask)
    groups.push_back(ProcessSet::FromBits(mask));
  return groups;
}

// Brute-force numbering: scan ids ascending and give each new tuple of
// member [p]-class ids the next [G]-class id.
void ExpectFirstOccurrenceNumbering(const ComputationSpace& space,
                                    const Partition& gi, ProcessSet g) {
  std::map<std::vector<std::uint32_t>, std::uint32_t> numbering;
  for (std::size_t id = 0; id < space.size(); ++id) {
    std::vector<std::uint32_t> tuple;
    g.ForEach([&](ProcessId p) {
      tuple.push_back(space.PartitionOf(ProcessSet::Of(p)).ClassOf(id));
    });
    const auto next = static_cast<std::uint32_t>(numbering.size());
    const auto [it, inserted] = numbering.emplace(std::move(tuple), next);
    ASSERT_EQ(gi.ClassOf(id), it->second)
        << "id " << id << " mask " << g.bits();
  }
  EXPECT_EQ(gi.NumClasses(), numbering.size()) << "mask " << g.bits();
}

TEST(SpaceGroupClassTest, RefinementMatchesBruteForceOnRandomSpace) {
  const auto space = SmallRandomSpace();
  ASSERT_GT(space.size(), 100u);
  for (ProcessSet g : TestGroups(space.num_processes()))
    ExpectRefinementInvariants(space, g);
}

TEST(SpaceGroupClassTest, RefinementMatchesBruteForceOnLockstepSpace) {
  protocols::LockstepSystem system(4);
  EnumerationLimits limits;
  limits.max_depth = 22;
  limits.canonicalize = false;
  const auto space = ComputationSpace::Enumerate(system, limits);
  ASSERT_GT(space.size(), 50u);
  for (ProcessSet g : TestGroups(space.num_processes()))
    ExpectRefinementInvariants(space, g);
}

TEST(SpaceGroupClassTest, ClassIdsAreFirstOccurrenceOfMemberTuples) {
  const auto space = SmallRandomSpace();
  for (ProcessSet g : AllGroups(space))
    ExpectFirstOccurrenceNumbering(space, space.EnsureGroupIndex(g), g);
}

TEST(SpaceGroupClassTest, ClassIdsAreFirstOccurrenceOnLockstepSpace) {
  protocols::LockstepSystem system(4);
  EnumerationLimits limits;
  limits.max_depth = 22;
  limits.canonicalize = false;
  const auto space = ComputationSpace::Enumerate(system, limits);
  for (ProcessSet g : AllGroups(space))
    ExpectFirstOccurrenceNumbering(space, space.EnsureGroupIndex(g), g);
}

TEST(SpaceGroupClassTest, ClassIdsStayFirstOccurrenceAfterDeepen) {
  // Deepen re-derives every cached table: the refreshed tables
  // must number the grown space exactly as a first build would.
  const RandomSystem system = SmallRandomSystem();
  SpaceBuilder builder;
  builder.Build(system,
                {.max_depth = 8, .allow_truncation = true, .num_threads = 1});
  const ComputationSpace& space = builder.space();
  for (ProcessSet g : AllGroups(space)) space.EnsureGroupIndex(g);
  const std::size_t before = space.size();
  ASSERT_GT(builder.Deepen(6), 0u);
  ASSERT_GT(space.size(), before);
  for (ProcessSet g : AllGroups(space)) {
    ASSERT_TRUE(space.HasGroupIndex(g)) << g.ToString();
    ExpectFirstOccurrenceNumbering(space, space.EnsureGroupIndex(g), g);
  }
}

// Same classes and the same buckets.
void ExpectSamePartition(const Partition& a, const Partition& b,
                         std::size_t n, const std::string& what) {
  ASSERT_EQ(a.NumClasses(), b.NumClasses()) << what;
  for (std::size_t id = 0; id < n; ++id)
    ASSERT_EQ(a.ClassOf(id), b.ClassOf(id)) << what << " id " << id;
  for (std::uint32_t c = 0; c < a.NumClasses(); ++c) {
    const auto x = a.Bucket(c);
    const auto y = b.Bucket(c);
    ASSERT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()))
        << what << " class " << c;
  }
}

TEST(SpaceGroupClassTest, ClassIdsStayFirstOccurrenceOnAnIngestedSpace) {
  // Two ingested runs put a length-3 class after a length-6 one, so ids
  // are out of length order; Ingest re-derives the cached tables, and
  // tables built afterwards number the same way.
  RandomSystemOptions options;
  options.seed = 7;
  const RandomSystem system(options);
  const auto walk = [&](std::uint32_t picks) {
    std::vector<Event> events;
    while (events.size() < 8) {
      const auto enabled =
          system.EnabledEvents(Computation::TrustedFromEvents(events));
      if (enabled.empty()) break;
      events.push_back((picks >> events.size()) & 1 ? enabled.back()
                                                    : enabled.front());
    }
    return events;
  };
  SpaceBuilder builder;
  builder.Build(system,
                {.max_depth = 2, .allow_truncation = true, .num_threads = 1});
  const ComputationSpace& space = builder.space();
  const std::vector<ProcessSet> groups = AllGroups(space);
  for (std::size_t i = 0; i < groups.size(); i += 2)
    space.EnsureGroupIndex(groups[i]);
  ASSERT_GT(builder.Ingest(std::span<const Event>(walk(0))), 0u);
  ASSERT_GT(builder.Ingest(std::span<const Event>(walk(0xff))), 0u);
  const auto by_length = space.IdsByLength();
  ASSERT_FALSE(std::is_sorted(by_length.begin(), by_length.end()));
  for (ProcessSet g : groups)
    ExpectFirstOccurrenceNumbering(space, space.EnsureGroupIndex(g), g);
}

TEST(SpaceGroupClassTest, BuildsFaultNothingInUnderABudget) {
  // Segments of 16 classes under a 4 KiB budget spill while the space is
  // built; the tables refine from the resident bucket CSRs alone.
  EnumerationLimits limits;
  limits.max_depth = 24;
  limits.segments.segment_shift = 4;
  limits.segments.residency_budget_bytes = 4096;
  const auto space = ComputationSpace::Enumerate(SmallRandomSystem(), limits);
  ASSERT_GT(space.SegmentStats().spill_writes, 0u);
  const std::uint64_t faults = space.SegmentStats().spill_faults;
  for (ProcessSet g : AllGroups(space)) space.EnsureGroupIndex(g);
  EXPECT_EQ(space.SegmentStats().spill_faults, faults);
  const auto resident = SmallRandomSpace();
  ASSERT_EQ(space.size(), resident.size());
  for (ProcessSet g : AllGroups(space)) {
    ExpectFirstOccurrenceNumbering(space, space.EnsureGroupIndex(g), g);
    ExpectSamePartition(space.EnsureGroupIndex(g),
                        resident.EnsureGroupIndex(g), space.size(),
                        g.ToString());
  }
}

TEST(SpaceGroupClassTest, ClassIdsAreFirstOccurrenceOnALiteralSpace) {
  EnumerationLimits limits;
  limits.max_depth = 7;
  limits.allow_truncation = true;
  limits.canonicalize = false;
  const auto space = ComputationSpace::Enumerate(SmallRandomSystem(), limits);
  ASSERT_GT(space.size(), 100u);
  for (ProcessSet g : AllGroups(space))
    ExpectFirstOccurrenceNumbering(space, space.EnsureGroupIndex(g), g);
}

TEST(SpaceGroupClassTest, ARefinementFromACachedSubgroupGivesTheSameIds) {
  // {0,1} then {0,1,2} refines the triple from the cached pair; {0,1,2}
  // alone refines from process 0's buckets.  Both number first occurrence.
  const auto stepped = SmallRandomSpace();
  const auto direct = SmallRandomSpace();
  const ProcessSet pair{0, 1}, triple{0, 1, 2};
  stepped.EnsureGroupIndex(pair);
  const Partition a = stepped.EnsureGroupIndex(triple);
  const Partition b = direct.EnsureGroupIndex(triple);
  ASSERT_FALSE(direct.HasGroupIndex(pair));
  ExpectSamePartition(a, b, stepped.size(), triple.ToString());
  ExpectFirstOccurrenceNumbering(stepped, a, triple);
}

TEST(SpaceGroupClassTest, GroupSnapshotsSaveIdenticallyAndReloadTheIds) {
  // Tables built in different orders (and so from different subgroups)
  // save byte-identically; a load, resident or under a budget, derives
  // tables equal to the saved space's.
  const auto forward = SmallRandomSpace();
  const auto backward = SmallRandomSpace();
  const std::vector<ProcessSet> groups = AllGroups(forward);
  for (ProcessSet g : groups) forward.EnsureGroupIndex(g);
  for (auto it = groups.rbegin(); it != groups.rend(); ++it)
    backward.EnsureGroupIndex(*it);
  std::ostringstream a, b;
  SaveSpaceSnapshot(forward, a);
  SaveSpaceSnapshot(backward, b);
  ASSERT_EQ(a.str(), b.str());
  SegmentOptions budget;
  budget.segment_shift = 4;
  budget.residency_budget_bytes = 4096;
  for (const SegmentOptions& segments : {SegmentOptions{}, budget}) {
    std::istringstream in(a.str());
    const ComputationSpace loaded = LoadSpaceSnapshot(in, segments);
    for (ProcessSet g : groups) {
      ASSERT_TRUE(loaded.HasGroupIndex(g)) << g.ToString();
      ExpectSamePartition(loaded.EnsureGroupIndex(g),
                          forward.EnsureGroupIndex(g), forward.size(),
                          g.ToString());
    }
  }
}

TEST(SpaceGroupClassTest, StateViewGroupsNumberStateTuplesByFirstOccurrence) {
  // A lossy abstraction, so state classes are coarser than [p]-classes;
  // the brute force keys on the state strings themselves.
  const auto space = SmallRandomSpace();
  const StateAbstraction abstraction = StateAbstraction::LabelBag();
  const StateView view(space, abstraction);
  ASSERT_FALSE(view.IsLossless());
  for (ProcessSet g : AllGroups(space)) {
    const Partition part = view.PartitionOf(g);
    std::map<std::vector<std::string>, std::uint32_t> numbering;
    for (std::size_t id = 0; id < space.size(); ++id) {
      const Computation x = space.At(id);
      std::vector<std::string> tuple;
      g.ForEach([&](ProcessId p) {
        tuple.push_back(abstraction.StateOf(p, x.Projection(p)));
      });
      const auto next = static_cast<std::uint32_t>(numbering.size());
      const auto [it, inserted] = numbering.emplace(std::move(tuple), next);
      ASSERT_EQ(part.ClassOf(id), it->second)
          << "id " << id << " mask " << g.bits();
    }
    EXPECT_EQ(part.NumClasses(), numbering.size()) << "mask " << g.bits();
  }
}

TEST(SpaceGroupClassTest, SingletonIndexReducesToProjectionColumns) {
  ExpectSingletonReduction(SmallRandomSpace());
}

TEST(SpaceGroupClassTest, FullGroupOnCanonicalSpaceIsDiscrete) {
  // On a canonicalized space, projections onto all processes determine the
  // [D]-class, so the [All]-partition is discrete.
  const auto space = SmallRandomSpace();
  const Partition gi = space.EnsureGroupIndex(space.AllProcesses());
  EXPECT_EQ(gi.NumClasses(), space.size());
}

// The refinement by every member in turn, never stopping early: what a
// table must equal whichever shortcut built it.
internal::PartitionTable FullRefinement(const ComputationSpace& space,
                                        ProcessSet g) {
  const std::size_t n = space.size();
  const ProcessSet first = ProcessSet::Of(g.First());
  internal::PartitionTable table;
  table.Refine(space.PartitionOf(first), space.PartitionOf(first), n);
  g.Minus(first).ForEach([&](ProcessId q) {
    internal::PartitionTable refined;
    refined.Refine(table.View(), space.PartitionOf(ProcessSet::Of(q)), n);
    table = std::move(refined);
  });
  return table;
}

// Builds every group's table, subgroups first (so larger groups refine
// from cached tables) or largest first, and checks each against the full
// refinement; returns how many groups had a strict subgroup that is
// already discrete, the case where the refinement stops early.
std::size_t ExpectTablesEqualTheFullRefinement(const ComputationSpace& space,
                                               bool subgroups_first,
                                               const std::string& what) {
  std::vector<ProcessSet> groups = AllGroups(space);
  if (!subgroups_first) std::reverse(groups.begin(), groups.end());
  for (ProcessSet g : groups) {
    const internal::PartitionTable full = FullRefinement(space, g);
    ExpectSamePartition(space.EnsureGroupIndex(g), full.View(), space.size(),
                        what + " " + g.ToString());
  }
  std::size_t early = 0;
  for (ProcessSet g : groups) {
    bool stops = false;
    for (ProcessSet h : groups)
      if (h.Size() < g.Size() && h.IsSubsetOf(g) &&
          space.EnsureGroupIndex(h).NumClasses() == space.size())
        stops = true;
    early += stops ? 1 : 0;
  }
  return early;
}

TEST(SpaceGroupClassTest, TablesStopRefiningOnceDiscreteYetEqualTheFull) {
  // A table with one class per id refines to itself, so the build stops
  // there; on random, crash-fault, literal and ingested spaces every table
  // still equals the refinement by every member.
  const RandomSystem random = SmallRandomSystem();
  RandomSystemOptions four;
  four.num_processes = 4;
  four.num_messages = 3;
  four.seed = 3;
  const RandomSystem random4(four);
  const CrashFaultSystem crash(random, {.max_crashes = 1, .may_crash = {}});
  std::vector<std::pair<std::string, std::unique_ptr<ComputationSpace>>>
      spaces;
  const auto add = [&](std::string name, ComputationSpace space) {
    spaces.emplace_back(std::move(name),
                        std::make_unique<ComputationSpace>(std::move(space)));
  };
  add("random", ComputationSpace::Enumerate(random, {.max_depth = 24}));
  add("random4", ComputationSpace::Enumerate(random4, {.max_depth = 24}));
  // Every token-bus event is a send or a receive, so the members other than
  // one already see all of it: a strict subgroup is discrete.
  add("tokenbus", ComputationSpace::Enumerate(protocols::TokenBusSystem(4, 2),
                                              {.max_depth = 24}));
  add("crash-fault",
      ComputationSpace::Enumerate(
          crash, {.max_depth = 6, .allow_truncation = true}));
  add("literal", ComputationSpace::Enumerate(
                     random, {.max_depth = 7,
                              .allow_truncation = true,
                              .canonicalize = false}));
  SpaceBuilder ingested;
  ingested.Build(random, {.max_depth = 2, .allow_truncation = true});
  for (std::uint32_t picks : {0u, 0xffu, 0x5au}) {
    std::vector<Event> events;
    while (events.size() < 10) {
      const auto enabled =
          random.EnabledEvents(Computation::TrustedFromEvents(events));
      if (enabled.empty()) break;
      events.push_back((picks >> (events.size() % 8)) & 1 ? enabled.back()
                                                          : enabled.front());
    }
    ingested.Ingest(std::span<const Event>(events));
  }
  add("ingested", std::move(ingested).Take());
  std::size_t early = 0;
  for (const auto& [name, space] : spaces) {
    // A second copy of the space, its tables built largest first.
    std::ostringstream out;
    SaveSpaceSnapshot(*space, out);
    std::istringstream in(out.str());
    const ComputationSpace copy = LoadSpaceSnapshot(in);
    early += ExpectTablesEqualTheFullRefinement(*space, true, name);
    ExpectTablesEqualTheFullRefinement(copy, false, name + " largest first");
  }
  EXPECT_GT(early, 0u);
}

TEST(SpaceGroupClassTest, GroupIndexIsCachedAndCountedInMemoryUsage) {
  const auto space = SmallRandomSpace();
  const std::size_t before = space.MemoryUsage().bytes_total;
  const Partition a = space.EnsureGroupIndex(ProcessSet{0, 1});
  const Partition b = space.EnsureGroupIndex(ProcessSet{0, 1});
  EXPECT_EQ(a.Bucket(0).data(), b.Bucket(0).data());  // cached, not rebuilt
  const auto after = space.MemoryUsage();
  EXPECT_GT(after.bytes_group_index, 0u);
  EXPECT_EQ(after.bytes_total, before + after.bytes_group_index);
}

TEST(SpaceGroupClassTest, RejectsEmptyAndOutOfRangeGroups) {
  const auto space = SmallRandomSpace();
  EXPECT_THROW(space.EnsureGroupIndex(ProcessSet::Empty()), ModelError);
  EXPECT_THROW(space.EnsureGroupIndex(ProcessSet{0, 5}), ModelError);
  // A rejected group leaves nothing behind in the cache.
  EXPECT_FALSE(space.HasGroupIndex(ProcessSet::Empty()));
  EXPECT_FALSE(space.HasGroupIndex(ProcessSet{0, 5}));
}

}  // namespace
}  // namespace hpl
