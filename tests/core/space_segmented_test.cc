// Out-of-core enumeration and sweeps, differentially against the resident
// store.  The contract: a space built under a residency budget — cold
// segments spilled behind the BFS frontier, faulted back on demand — is
// structurally IDENTICAL to the single-segment resident build (same class
// ids, canonical order, projections, buckets, successors), and knowledge
// verdicts over it match the independent ReferenceKnowledge oracle over the
// resident store for every engine configuration: compiled kernels on/off x
// 1 and 4 threads.  Snapshots round-trip through the v3 format (which
// carries the segment directory), load back under a budget, and attribute
// payload corruption to the named column.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "core/space.h"
#include "core/types.h"
#include "protocols/token_bus.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

RandomSystem MakeRandom(std::uint64_t seed) {
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.seed = seed;
  return RandomSystem(options);
}

// A small budget and tiny segments so even test-sized spaces spill.
SegmentOptions TinySegments() {
  SegmentOptions segments;
  segments.segment_shift = 4;
  segments.residency_budget_bytes = 4096;
  return segments;
}

void ExpectSameSpace(const ComputationSpace& a, const ComputationSpace& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_processes(), b.num_processes());
  for (std::size_t id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.LengthOf(id), b.LengthOf(id)) << id;
    EXPECT_TRUE(a.At(id) == b.At(id)) << id;
    const auto sa = a.SuccessorsOf(id);
    const auto sb = b.SuccessorsOf(id);
    ASSERT_EQ(sa.size(), sb.size()) << id;
    for (std::size_t k = 0; k < sa.size(); ++k) {
      EXPECT_EQ(sa[k].class_id, sb[k].class_id) << id;
      EXPECT_TRUE(sa[k].event == sb[k].event) << id;
    }
  }
  for (ProcessId p = 0; p < a.num_processes(); ++p) {
    const Partition pa = a.PartitionOf(ProcessSet::Of(p));
    const Partition pb = b.PartitionOf(ProcessSet::Of(p));
    for (std::size_t id = 0; id < a.size(); ++id)
      EXPECT_EQ(pa.ClassOf(id), pb.ClassOf(id)) << id;
    ASSERT_EQ(pa.NumClasses(), pb.NumClasses());
    for (std::size_t c = 0; c < pa.NumClasses(); ++c) {
      const auto ba = pa.Bucket(static_cast<std::uint32_t>(c));
      const auto bb = pb.Bucket(static_cast<std::uint32_t>(c));
      ASSERT_EQ(ba.size(), bb.size()) << c;
      for (std::size_t i = 0; i < ba.size(); ++i)
        EXPECT_EQ(ba[i], bb[i]) << c;
    }
  }
}

TEST(SpaceSegmentedTest, EnumerationMatchesResidentStore) {
  for (const int threads : {1, 4}) {
    RandomSystem system = MakeRandom(7);
    EnumerationLimits resident;
    resident.max_depth = 8;
    resident.allow_truncation = true;
    resident.num_threads = threads;
    const auto base = ComputationSpace::Enumerate(system, resident);

    EnumerationLimits budgeted = resident;
    budgeted.segments = TinySegments();
    const auto segmented = ComputationSpace::Enumerate(system, budgeted);

    ASSERT_TRUE(segmented.out_of_core());
    ExpectSameSpace(base, segmented);
    // The budget actually bit: the build spilled and/or the store still
    // holds spilled segments.
    const auto stats = segmented.SegmentStats();
    EXPECT_GT(stats.segments, 1u);
    EXPECT_GT(stats.spill_writes, 0u);
  }
}

TEST(SpaceSegmentedTest, SweepVerdictsMatchAcrossEngines) {
  RandomSystem system = MakeRandom(11);
  EnumerationLimits limits;
  limits.max_depth = 7;
  limits.allow_truncation = true;
  const auto base = ComputationSpace::Enumerate(system, limits);
  EnumerationLimits budgeted = limits;
  budgeted.segments = TinySegments();
  const auto segmented = ComputationSpace::Enumerate(system, budgeted);
  ASSERT_TRUE(segmented.out_of_core());

  const FormulaPtr atom = Formula::Atom(Predicate::Sent(0));
  const ProcessSet g = ProcessSet::Of(0).Union(ProcessSet::Of(1));
  const std::vector<FormulaPtr> formulas = {
      Formula::Knows(ProcessSet::Of(0), atom),
      Formula::Knows(g, atom),
      Formula::Everyone(g, atom),
      Formula::Common(g, atom),
      Formula::Not(Formula::Knows(ProcessSet::Of(1), Formula::Not(atom))),
  };

  // Reference verdicts: the definitional oracle over the resident store.
  ReferenceKnowledge ref(base);
  std::vector<std::vector<std::size_t>> expected;
  for (const FormulaPtr& f : formulas) expected.push_back(ref.SatisfyingSet(f));

  for (const bool kernels : {false, true})
    for (const int threads : {1, 4}) {
      KnowledgeOptions options;
      options.num_threads = threads;
      options.compiled_kernels = kernels;
      KnowledgeEvaluator eval(segmented, options);
      EXPECT_EQ(eval.SatisfyingSets(formulas), expected)
          << "kernels=" << kernels << " threads=" << threads;
    }
}

TEST(SpaceSegmentedTest, SegmentCursorCoversEveryClassOnce) {
  RandomSystem system = MakeRandom(3);
  EnumerationLimits limits;
  limits.max_depth = 6;
  limits.allow_truncation = true;
  limits.segments = TinySegments();
  const auto space = ComputationSpace::Enumerate(system, limits);

  std::vector<std::uint8_t> seen(space.size(), 0);
  for (auto cur = space.Classes(0, SIZE_MAX, /*trim_behind=*/true);
       cur.Valid(); cur.Next()) {
    EXPECT_LE(cur.end(), space.size());
    for (std::size_t id = cur.begin(); id < cur.end(); ++id) {
      EXPECT_EQ(seen[id], 0u);
      seen[id] = 1;
      // Pinned access while behind-the-cursor segments get trimmed.
      (void)space.LengthOf(id);
    }
  }
  for (std::size_t id = 0; id < space.size(); ++id) EXPECT_EQ(seen[id], 1u);

  // Sub-ranges respect both endpoints.
  std::size_t count = 0;
  for (auto cur = space.Classes(3, space.size() - 2); cur.Valid(); cur.Next())
    count += cur.end() - cur.begin();
  EXPECT_EQ(count, space.size() - 5);
}

TEST(SpaceSegmentedTest, MemoryUsageSplitsResidency) {
  RandomSystem system = MakeRandom(9);
  EnumerationLimits limits;
  limits.max_depth = 7;
  limits.allow_truncation = true;
  limits.segments = TinySegments();
  const auto space = ComputationSpace::Enumerate(system, limits);
  const auto usage = space.MemoryUsage();
  EXPECT_GT(usage.segments, 1u);
  EXPECT_GT(usage.bytes_resident, 0u);
  EXPECT_GT(usage.bytes_spilled, 0u);
  // The resident split respects the configured budget plus the documented
  // resident floor (event pool, buckets, group indexes stay in memory).
  EXPECT_GT(usage.bytes_total, 0u);
}

TEST(SpaceSegmentedTest, SnapshotV3RoundTripsUnderBudget) {
  RandomSystem system = MakeRandom(13);
  EnumerationLimits limits;
  limits.max_depth = 7;
  limits.allow_truncation = true;
  const auto fresh = ComputationSpace::Enumerate(system, limits);

  std::ostringstream out;
  SaveSpaceSnapshot(fresh, out);
  const std::string bytes = out.str();

  {
    std::istringstream in(bytes);
    const SpaceSnapshotInfo info = ReadSpaceSnapshotInfo(in);
    EXPECT_EQ(info.version, 3u);
    EXPECT_EQ(info.segment_columns, 7u);
    EXPECT_GT(info.segments, 0u);
    EXPECT_GT(info.segment_shift, 0u);
  }

  // Loaded fully resident.
  {
    std::istringstream in(bytes);
    const auto loaded = LoadSpaceSnapshot(in);
    EXPECT_FALSE(loaded.out_of_core());
    ExpectSameSpace(fresh, loaded);
  }
  // Loaded under a budget: same space, spilled store.
  {
    std::istringstream in(bytes);
    const auto loaded = LoadSpaceSnapshot(in, TinySegments());
    EXPECT_TRUE(loaded.out_of_core());
    EXPECT_GT(loaded.SegmentStats().spill_writes, 0u);
    ExpectSameSpace(fresh, loaded);
  }
  // An out-of-core space saves too, and the file is byte-identical to the
  // resident save.
  {
    EnumerationLimits budgeted = limits;
    budgeted.segments = TinySegments();
    const auto segmented = ComputationSpace::Enumerate(system, budgeted);
    std::ostringstream out2;
    SaveSpaceSnapshot(segmented, out2);
    EXPECT_EQ(out2.str(), bytes);
  }
}

TEST(SpaceSegmentedTest, SnapshotCorruptionNamesTheColumn) {
  RandomSystem system = MakeRandom(19);
  EnumerationLimits limits;
  limits.max_depth = 6;
  limits.allow_truncation = true;
  const auto fresh = ComputationSpace::Enumerate(system, limits);
  std::ostringstream out;
  SaveSpaceSnapshot(fresh, out);
  std::string bytes = out.str();

  // The last column before the trailing whole-file checksum is the
  // successor-event column; a flipped byte there must be attributed to it
  // by name (the per-column check fires before the trailing checksum).
  bytes[bytes.size() - 12] ^= 0x10;
  std::istringstream in(bytes);
  try {
    (void)LoadSpaceSnapshot(in);
    FAIL() << "expected ModelError naming column 'succe'";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("'succe'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpaceSegmentedTest, DeepenAndRefreshWorkOutOfCore) {
  protocols::TokenBusSystem bus(/*num_processes=*/4, /*passes=*/4);
  EnumerationLimits limits;
  limits.max_depth = 6;
  limits.allow_truncation = true;
  limits.segments = TinySegments();

  SpaceBuilder builder;
  builder.Build(bus, limits);
  KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
  const FormulaPtr f =
      Formula::Knows(ProcessSet::Of(0), Formula::Atom(bus.HoldsToken(0)));
  (void)eval.SatisfyingSet(f);

  builder.Deepen(2);
  eval.Refresh();
  const auto deepened = eval.SatisfyingSet(f);

  // Reference: a fresh resident enumeration at the deeper depth.
  EnumerationLimits reference;
  reference.max_depth = 8;
  reference.allow_truncation = true;
  const auto base = ComputationSpace::Enumerate(bus, reference);
  KnowledgeEvaluator ref(base, {.num_threads = 1});
  EXPECT_EQ(deepened, ref.SatisfyingSet(f));
  ExpectSameSpace(base, builder.space());
}

}  // namespace
}  // namespace hpl
