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
//     [p]-class tuples over ascending ids, the ids snapshots persist.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/random_system.h"
#include "core/space.h"
#include "protocols/lockstep.h"

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
  // Deepen re-replays every cached table in place: the refreshed tables
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
