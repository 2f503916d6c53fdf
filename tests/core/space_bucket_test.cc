// Incremental [p]-buckets: every SpaceBuilder Finalize (after Build,
// Deepen and Ingest) and every snapshot load extends each process's bucket
// CSR by the rows past the ids it already covers (ComputationSpace::
// BuildBuckets) instead of sorting every row again.
//
//   * differential — after every Deepen and Ingest, each [p]-partition's
//     offsets and ids equal a counting sort of the same rows from scratch
//     (and a fresh enumeration's), at 1 and 4 threads, resident and under
//     a 256 B budget with 4-row segments, on random, crash-fault and
//     literal spaces;
//   * a Deepen that throws leaves the buckets describing the parked space;
//   * residency — a Deepen reads no projection row of an id older than the
//     parked frontier, so a segment of such rows that was spilled before it
//     is still on disk after it, never faulted in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/faults.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "core/space.h"
#include "protocols/lockstep.h"
#include "protocols/token_bus.h"

namespace hpl {
namespace {

// A partition's CSR as its view lays it out: each bucket's start within
// the flat payload, the end, and the payload itself.
struct Csr {
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> ids;
  bool operator==(const Csr&) const = default;
};

Csr CsrOf(const Partition& part) {
  Csr csr;
  const std::uint32_t* base = part.Bucket(0).data();
  for (std::uint32_t c = 0; c < part.NumClasses(); ++c) {
    const auto bucket = part.Bucket(c);
    csr.offsets.push_back(static_cast<std::uint32_t>(bucket.data() - base));
    csr.ids.insert(csr.ids.end(), bucket.begin(), bucket.end());
  }
  csr.offsets.push_back(static_cast<std::uint32_t>(csr.ids.size()));
  return csr;
}

// The counting sort of every id by its class, from scratch.
Csr ScratchCsr(const Partition& part, std::size_t n) {
  internal::PartitionTable table;
  table.cls.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    table.cls[id] = part.ClassOf(id);
    EXPECT_LT(table.cls[id], part.NumClasses()) << "id " << id;
    if (table.cls[id] >= part.NumClasses()) return {};
  }
  table.Fill(part.NumClasses());
  return {table.offsets, table.ids};
}

std::vector<Csr> BucketsOf(const ComputationSpace& space) {
  std::vector<Csr> out;
  for (ProcessId p = 0; p < space.num_processes(); ++p)
    out.push_back(CsrOf(space.PartitionOf(ProcessSet::Of(p))));
  return out;
}

void ExpectBucketsFromScratch(const ComputationSpace& space,
                              const std::string& what) {
  for (ProcessId p = 0; p < space.num_processes(); ++p) {
    const Partition part = space.PartitionOf(ProcessSet::Of(p));
    EXPECT_TRUE(CsrOf(part) == ScratchCsr(part, space.size()))
        << what << " p" << int{p} << " at " << space.size() << " classes";
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

// One space family of the differential test: a system and the limits it
// enumerates under (literal spaces keep their interleavings).
struct Family {
  std::string name;
  const System* system;
  int cap;  // depth of the capped first build
  bool canonicalize;
};

std::vector<EnumerationLimits> Configs(const Family& family) {
  std::vector<EnumerationLimits> configs;
  for (const int threads : {1, 4}) {
    for (const bool spill : {false, true}) {
      EnumerationLimits limits;
      limits.max_depth = family.cap;
      limits.allow_truncation = true;
      limits.canonicalize = family.canonicalize;
      limits.num_threads = threads;
      if (spill) {
        limits.segments.segment_shift = 2;
        limits.segments.residency_budget_bytes = 256;
      }
      configs.push_back(limits);
    }
  }
  return configs;
}

std::string ConfigName(const Family& family, const EnumerationLimits& l) {
  return family.name + " threads=" + std::to_string(l.num_threads) +
         (l.segments.residency_budget_bytes != 0 ? " spilled" : " resident");
}

// A deterministic walk of `length` enabled events from the empty
// computation (shorter when the system stops), choosing by an LCG.
std::vector<Event> Walk(const System& system, std::uint64_t seed,
                        std::size_t length) {
  std::vector<Event> events;
  while (events.size() < length) {
    const auto enabled =
        system.EnabledEvents(Computation::TrustedFromEvents(events));
    if (enabled.empty()) break;
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    events.push_back(enabled[(seed >> 33) % enabled.size()]);
  }
  return events;
}

class SpaceBucketTest : public ::testing::Test {
 protected:
  SpaceBucketTest()
      : random_(SmallRandomSystem()),
        bus_(3, 2),
        crash_(bus_, {.max_crashes = 1, .may_crash = {}}),
        lockstep_(4) {}

  std::vector<Family> Families() const {
    return {{"random", &random_, 3, true},
            {"crash-fault", &crash_, 3, true},
            {"literal", &lockstep_, 6, false}};
  }

  RandomSystem random_;
  protocols::TokenBusSystem bus_;
  CrashFaultSystem crash_;
  protocols::LockstepSystem lockstep_;
};

TEST_F(SpaceBucketTest, EveryDeepenExtendsToTheScratchSort) {
  for (const Family& family : Families()) {
    for (const EnumerationLimits& limits : Configs(family)) {
      const std::string what = ConfigName(family, limits);
      SpaceBuilder builder;
      builder.Build(*family.system, limits);
      ExpectBucketsFromScratch(builder.space(), what + " build");
      int deepens = 0;
      while (builder.CanDeepen()) {
        const std::vector<Csr> before = BucketsOf(builder.space());
        const std::size_t n = builder.space().size();
        const std::size_t added = builder.Deepen(1);
        ++deepens;
        ExpectBucketsFromScratch(builder.space(),
                                 what + " deepen " + std::to_string(deepens));
        // Every old bucket is a prefix of its new bucket.
        const std::vector<Csr> after = BucketsOf(builder.space());
        for (std::size_t p = 0; p < after.size(); ++p) {
          const Csr& old = before[p];
          for (std::size_t c = 0; c + 1 < old.offsets.size(); ++c) {
            const auto* now = after[p].ids.data() + after[p].offsets[c];
            ASSERT_TRUE(std::equal(old.ids.data() + old.offsets[c],
                                   old.ids.data() + old.offsets[c + 1], now))
                << what << " p" << p << " class " << c;
          }
        }
        if (added == 0) {
          EXPECT_TRUE(after == before) << what;
        }
        ASSERT_EQ(builder.space().size(), n + added);
        // Bit-identical to a fresh enumeration at the same depth.
        EnumerationLimits fresh_limits = limits;
        fresh_limits.max_depth = builder.built_depth();
        const ComputationSpace fresh =
            ComputationSpace::Enumerate(*family.system, fresh_limits);
        EXPECT_TRUE(BucketsOf(fresh) == after) << what << " vs fresh";
      }
      EXPECT_GT(deepens, 1) << what;
      EXPECT_TRUE(builder.complete()) << what;
    }
  }
}

TEST_F(SpaceBucketTest, EveryIngestExtendsToTheScratchSort) {
  for (const Family& family : Families()) {
    for (const EnumerationLimits& limits : Configs(family)) {
      const std::string what = ConfigName(family, limits);
      SpaceBuilder builder;
      builder.Build(*family.system, limits);
      std::size_t minted = 0;
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const std::vector<Csr> before = BucketsOf(builder.space());
        const std::vector<Event> walk = Walk(
            *family.system, seed, static_cast<std::size_t>(family.cap) + 5);
        const std::size_t added =
            builder.Ingest(std::span<const Event>(walk));
        minted += added;
        ExpectBucketsFromScratch(builder.space(),
                                 what + " ingest " + std::to_string(seed));
        if (added == 0) {
          EXPECT_TRUE(BucketsOf(builder.space()) == before) << what;
        }
      }
      EXPECT_GT(minted, 0u) << what;
      // A load covers no id and extends from there to the same buckets.
      std::ostringstream out;
      SaveSpaceBuilderSnapshot(builder, out);
      std::istringstream in(out.str());
      const SpaceBuilder loaded =
          LoadSpaceBuilderSnapshot(*family.system, in, limits);
      EXPECT_TRUE(BucketsOf(loaded.space()) == BucketsOf(builder.space()))
          << what << " load";
    }
  }
}

TEST_F(SpaceBucketTest, ADeepenThatThrowsKeepsTheParkedBuckets) {
  for (const Family& family : Families()) {
    for (const EnumerationLimits& limits : Configs(family)) {
      const std::string what = ConfigName(family, limits);
      SpaceBuilder capped;
      capped.Build(*family.system, limits);
      ASSERT_TRUE(capped.CanDeepen()) << what;
      std::ostringstream out;
      SaveSpaceBuilderSnapshot(capped, out);
      // Reloaded without allow_truncation, the next level is still
      // extendable at its cap, so Deepen mints it and then throws.
      EnumerationLimits strict = limits;
      strict.allow_truncation = false;
      std::istringstream in(out.str());
      SpaceBuilder builder =
          LoadSpaceBuilderSnapshot(*family.system, in, strict);
      const std::vector<Csr> parked = BucketsOf(builder.space());
      EXPECT_THROW(builder.Deepen(1), ModelError) << what;
      EXPECT_TRUE(BucketsOf(builder.space()) == parked) << what;
      ExpectBucketsFromScratch(builder.space(), what + " after the throw");
    }
  }
}

TEST_F(SpaceBucketTest, DeepenFaultsNoProjectionSegmentBehindTheFrontier) {
  // 4-row segments under a 256 B budget: the levels behind the frontier
  // spill while the space grows.  No phase of a Deepen reads their
  // projection rows, so their segments stay on disk, never faulted.
  for (const Family& family : Families()) {
    for (const EnumerationLimits& limits : Configs(family)) {
      if (limits.segments.residency_budget_bytes == 0) continue;
      const std::string what = ConfigName(family, limits);
      SpaceBuilder builder;
      builder.Build(*family.system, limits);
      const ComputationSpace& space = builder.space();
      std::size_t checked = 0;
      while (builder.CanDeepen()) {
        // The parked frontier is the last level: the ids of the built
        // depth, which BFS order puts last.
        std::size_t frontier = space.size();
        while (frontier > 0 &&
               space.LengthOf(frontier - 1) ==
                   static_cast<std::size_t>(builder.built_depth()))
          --frontier;
        std::map<std::uint32_t, std::uint32_t> cold;  // index -> faults
        for (const auto& seg : space.SegmentResidency())
          if (seg.tag == "proj" &&
              seg.state == internal::SegmentState::kOnDisk &&
              (std::size_t{seg.index + 1} << limits.segments.segment_shift) <=
                  frontier)
            cold.emplace(seg.index, seg.faults);
        builder.Deepen(1);
        for (const auto& seg : space.SegmentResidency()) {
          const auto it = cold.find(seg.index);
          if (seg.tag != "proj" || it == cold.end()) continue;
          EXPECT_EQ(seg.state, internal::SegmentState::kOnDisk)
              << what << " proj segment " << seg.index;
          EXPECT_EQ(seg.faults, it->second)
              << what << " proj segment " << seg.index;
          ++checked;
        }
      }
      EXPECT_GT(checked, 0u) << what;
      ExpectBucketsFromScratch(space, what);
    }
  }
}

}  // namespace
}  // namespace hpl
