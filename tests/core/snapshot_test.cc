// Binary space snapshots (hpl-space-v3): round-trip invariants.
// (Builder snapshots — frontier round-trip, sealed loads, rejection of the
// retired versions 1 and 2 — are covered in space_builder_test.cc.)
//
// The contract under test is byte-identity — a loaded space must be
// indistinguishable from the freshly enumerated one: same class ids,
// canonical forms, hashes, projection classes, buckets, successors, group
// tables, and (within allocator slack) the same MemoryUsage(); knowledge
// verdicts evaluated against it must match the definitional oracle over the
// fresh space exactly, kernels on and off, at 1 and 4 threads.  Corrupt,
// truncated, or foreign files must be rejected with ModelError, never crash
// or silently load.
#include <cstdint>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "protocols/token_bus.h"
#include "protocols/tracker.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

ComputationSpace EnumerateRandom(std::uint64_t seed,
                                 const EnumerationLimits& limits = {}) {
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.seed = seed;
  RandomSystem system(options);
  return ComputationSpace::Enumerate(system, limits);
}

std::string SnapshotBytes(const ComputationSpace& space) {
  std::ostringstream out;
  SaveSpaceSnapshot(space, out);
  return out.str();
}

ComputationSpace LoadBytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return LoadSpaceSnapshot(in);
}

void ExpectStructurallyIdentical(const ComputationSpace& fresh,
                                 const ComputationSpace& loaded) {
  ASSERT_EQ(loaded.size(), fresh.size());
  EXPECT_EQ(loaded.num_processes(), fresh.num_processes());
  EXPECT_EQ(loaded.truncated(), fresh.truncated());
  EXPECT_EQ(loaded.system_name(), fresh.system_name());
  for (std::size_t id = 0; id < fresh.size(); ++id) {
    EXPECT_EQ(loaded.LengthOf(id), fresh.LengthOf(id)) << id;
    EXPECT_TRUE(loaded.At(id) == fresh.At(id)) << id;
    for (ProcessId p = 0; p < fresh.num_processes(); ++p)
      EXPECT_EQ(loaded.ProjectionClass(id, p), fresh.ProjectionClass(id, p))
          << id;
    // Successor CSR: same classes, same extending events, same order.
    const auto fresh_succ = fresh.SuccessorsOf(id);
    const auto loaded_succ = loaded.SuccessorsOf(id);
    ASSERT_EQ(loaded_succ.size(), fresh_succ.size()) << id;
    for (std::size_t k = 0; k < fresh_succ.size(); ++k) {
      EXPECT_EQ(loaded_succ[k].class_id, fresh_succ[k].class_id) << id;
      EXPECT_TRUE(loaded_succ[k].event == fresh_succ[k].event) << id;
    }
    // The canonical index answers IndexOf identically.
    EXPECT_EQ(loaded.IndexOf(fresh.At(id)), fresh.IndexOf(fresh.At(id)))
        << id;
  }
  for (ProcessId p = 0; p < fresh.num_processes(); ++p) {
    ASSERT_EQ(loaded.NumProjectionClasses(p), fresh.NumProjectionClasses(p));
    for (std::uint32_t cls = 0; cls < fresh.NumProjectionClasses(p); ++cls) {
      const auto a = fresh.Bucket(p, cls);
      const auto b = loaded.Bucket(p, cls);
      ASSERT_EQ(b.size(), a.size()) << p;
      for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(b[k], a[k]) << p;
    }
  }
}

TEST(SnapshotTest, RoundTripIsStructurallyIdentical) {
  const auto fresh = EnumerateRandom(7);
  const auto loaded = LoadBytes(SnapshotBytes(fresh));
  ExpectStructurallyIdentical(fresh, loaded);
}

TEST(SnapshotTest, RoundTripPreservesGroupIndexes) {
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.seed = 11;
  RandomSystem system(options);
  const auto fresh = ComputationSpace::Enumerate(system);
  const std::vector<ProcessSet> groups = {ProcessSet{0, 1}, ProcessSet{2, 3},
                                          ProcessSet{0, 1, 2}};
  for (ProcessSet g : groups) fresh.EnsureGroupIndex(g);

  const auto loaded = LoadBytes(SnapshotBytes(fresh));
  for (ProcessSet g : groups) {
    ASSERT_TRUE(loaded.HasGroupIndex(g)) << g.ToString();
    const auto& a = fresh.EnsureGroupIndex(g);
    const auto& b = loaded.EnsureGroupIndex(g);
    ASSERT_EQ(b.NumClasses(), a.NumClasses()) << g.ToString();
    for (std::size_t id = 0; id < fresh.size(); ++id)
      EXPECT_EQ(b.ClassOf(id), a.ClassOf(id)) << g.ToString();
    for (std::uint32_t cls = 0; cls < a.NumClasses(); ++cls) {
      const auto ba = a.Bucket(cls);
      const auto bb = b.Bucket(cls);
      ASSERT_EQ(bb.size(), ba.size());
      for (std::size_t k = 0; k < ba.size(); ++k) EXPECT_EQ(bb[k], ba[k]);
    }
  }
}

TEST(SnapshotTest, RoundTripPreservesTruncatedSpaces) {
  protocols::TrackerSystem system(/*flips=*/3);
  EnumerationLimits limits;
  limits.max_depth = 4;
  limits.allow_truncation = true;
  const auto fresh = ComputationSpace::Enumerate(system, limits);
  ASSERT_TRUE(fresh.truncated());
  const auto loaded = LoadBytes(SnapshotBytes(fresh));
  EXPECT_TRUE(loaded.truncated());
  ExpectStructurallyIdentical(fresh, loaded);
}

TEST(SnapshotTest, MemoryUsageMatchesWithinSlack) {
  const auto fresh = EnumerateRandom(3);
  const auto loaded = LoadBytes(SnapshotBytes(fresh));
  const auto a = fresh.MemoryUsage();
  const auto b = loaded.MemoryUsage();
  EXPECT_EQ(b.classes, a.classes);
  // Load reserves exact column sizes, so the footprint should match the
  // shrink_to_fit'ed fresh space up to allocator rounding.
  EXPECT_LE(b.bytes_total, a.bytes_total + a.bytes_total / 10);
  EXPECT_GE(b.bytes_total, a.bytes_total - a.bytes_total / 10);
}

TEST(SnapshotTest, InfoMatchesHeader) {
  const auto fresh = EnumerateRandom(5);
  fresh.EnsureGroupIndex(ProcessSet::Of(0).Union(ProcessSet::Of(1)));
  const std::string bytes = SnapshotBytes(fresh);
  std::istringstream in(bytes);
  const SpaceSnapshotInfo info = ReadSpaceSnapshotInfo(in);
  EXPECT_EQ(info.version, kSpaceSnapshotVersion);
  EXPECT_EQ(info.system_name, fresh.system_name());
  EXPECT_EQ(info.num_processes, fresh.num_processes());
  EXPECT_FALSE(info.truncated);
  EXPECT_TRUE(info.canonicalize);
  EXPECT_EQ(info.classes, fresh.size());
  EXPECT_EQ(info.group_indexes, 1u);
  // A bare save of a complete space records frontier state 1 (complete:
  // the BFS drained, so there is no parked level to carry).
  EXPECT_EQ(info.frontier, 1);
  EXPECT_EQ(info.frontier_begin, 0u);
}

TEST(SnapshotTest, InfoReportsFrontierMetadata) {
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.seed = 5;
  RandomSystem system(options);

  SpaceBuilder builder;
  EnumerationLimits limits;
  limits.max_depth = 3;
  limits.allow_truncation = true;
  builder.Build(system, limits);
  ASSERT_FALSE(builder.complete());

  std::ostringstream out;
  SaveSpaceBuilderSnapshot(builder, out);
  std::istringstream in(out.str());
  const SpaceSnapshotInfo info = ReadSpaceSnapshotInfo(in);
  EXPECT_EQ(info.version, kSpaceSnapshotVersion);
  EXPECT_EQ(info.frontier, 2);  // capped: loadable then deepenable
  EXPECT_EQ(info.built_depth, 3u);
  // The parked frontier is the last level: nonempty, and strictly inside
  // the id range.
  EXPECT_GT(info.frontier_begin, 0u);
  EXPECT_LT(info.frontier_begin, info.classes);
}

TEST(SnapshotTest, SaveIsDeterministic) {
  const auto a = EnumerateRandom(9);
  const auto b = EnumerateRandom(9);
  // Build the same group indexes in DIFFERENT orders: snapshots sort by
  // mask, so the bytes must still agree.
  const ProcessSet g01 = ProcessSet::Of(0).Union(ProcessSet::Of(1));
  const ProcessSet g23 = ProcessSet::Of(2).Union(ProcessSet::Of(3));
  a.EnsureGroupIndex(g01);
  a.EnsureGroupIndex(g23);
  b.EnsureGroupIndex(g23);
  b.EnsureGroupIndex(g01);
  EXPECT_EQ(SnapshotBytes(a), SnapshotBytes(b));
}

TEST(SnapshotTest, RejectsCorruptInput) {
  const auto fresh = EnumerateRandom(2);
  const std::string bytes = SnapshotBytes(fresh);

  // Bad magic.
  {
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(LoadBytes(bad), ModelError);
  }
  // Unsupported version.
  {
    std::string bad = bytes;
    bad[8] = 99;
    EXPECT_THROW(LoadBytes(bad), ModelError);
  }
  // Truncation at several depths: header, mid-columns, missing checksum.
  for (const std::size_t keep :
       {std::size_t{4}, std::size_t{20}, bytes.size() / 2,
        bytes.size() - 4}) {
    EXPECT_THROW(LoadBytes(bytes.substr(0, keep)), ModelError) << keep;
  }
  // A flipped payload byte must fail the checksum (pick one in the middle
  // of the columns, past the header).
  {
    std::string bad = bytes;
    bad[bytes.size() / 2] = static_cast<char>(bad[bytes.size() / 2] ^ 0x40);
    EXPECT_THROW(LoadBytes(bad), ModelError);
  }
  EXPECT_THROW(LoadSpaceSnapshot("/nonexistent/path.snap"), ModelError);
}

// A read-only buffer without seek support, like a pipe.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(SnapshotTest, LoadsFromAStreamThatCannotSeek) {
  const auto fresh = EnumerateRandom(3);
  UnseekableBuf buf(SnapshotBytes(fresh));
  std::istream in(&buf);
  ASSERT_EQ(in.tellg(), std::istream::pos_type(-1));
  ExpectStructurallyIdentical(fresh, LoadSpaceSnapshot(in));
}

TEST(SnapshotTest, RejectsACountTheInputCannotHold) {
  // pool_events = 2^32 passes the plausibility cap but would reserve
  // hundreds of GiB; the reader must refuse it against the bytes that
  // remain instead of dying in the allocator.
  const auto fresh = EnumerateRandom(2);
  std::string bytes = SnapshotBytes(fresh);
  // magic, version, processes, two flags, reserved u16, the length-prefixed
  // name, then the classes count.
  const std::size_t pool_at =
      8 + 4 + 4 + 1 + 1 + 2 + 4 + fresh.system_name().size() + 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[pool_at + i] = 0;
  bytes[pool_at + 4] = 1;  // little-endian 2^32
  std::istringstream header(bytes);
  EXPECT_EQ(ReadSpaceSnapshotInfo(header).pool_events, std::uint64_t{1} << 32);
  try {
    LoadBytes(bytes);
    FAIL() << "a 2^32-event pool loaded";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("pool_events"),
              std::string::npos)
        << error.what();
  }
  UnseekableBuf buf(bytes);
  std::istream unseekable(&buf);
  EXPECT_THROW(LoadSpaceSnapshot(unseekable), ModelError);
}

TEST(SnapshotTest, RejectsAnOutOfRangeSegmentShift) {
  // `snapshot info` prints 1 << segment_shift, so a corrupt shift must be
  // rejected when the header is read, not shifted.
  const auto fresh = EnumerateRandom(2);
  std::string bytes = SnapshotBytes(fresh);
  // magic, version, processes, two flags, reserved u16, the length-prefixed
  // name, three counts, frontier state, built depth, frontier begin.
  const std::size_t shift_at = 8 + 4 + 4 + 1 + 1 + 2 + 4 +
                               fresh.system_name().size() + 3 * 8 + 1 + 4 +
                               8;
  ASSERT_EQ(static_cast<unsigned char>(bytes[shift_at]),
            SegmentOptions{}.segment_shift);
  bytes[shift_at] = 40;
  std::istringstream in(bytes);
  EXPECT_THROW(ReadSpaceSnapshotInfo(in), ModelError);
  EXPECT_THROW(LoadBytes(bytes), ModelError);
}

// The tentpole invariant: knowledge verdicts on a loaded space are
// byte-identical to verdicts on the freshly enumerated space — for K, E,
// and CK formulas, kernels on and off, at 1 and 4 threads — and both match
// the independent ReferenceKnowledge oracle.
TEST(SnapshotTest, DifferentialSatisfyingSets) {
  protocols::TokenBusSystem bus(/*num_processes=*/4, /*passes=*/4);
  EnumerationLimits limits;
  limits.max_depth = 10;
  const auto fresh = ComputationSpace::Enumerate(bus, limits);
  const auto loaded = LoadBytes(SnapshotBytes(fresh));

  const FormulaPtr atom = Formula::Atom(bus.HoldsToken(0));
  const ProcessSet pair = ProcessSet::Of(0).Union(ProcessSet::Of(1));
  const std::vector<FormulaPtr> formulas = {
      Formula::Knows(ProcessSet::Of(0), atom),
      Formula::Knows(pair, atom),
      Formula::Everyone(pair, atom),
      Formula::Common(pair, atom),
      Formula::Possible(ProcessSet::Of(1), Formula::Not(atom)),
  };

  ReferenceKnowledge reference(fresh);
  for (const bool kernels : {false, true}) {
    for (const int threads : {1, 4}) {
      KnowledgeOptions options;
      options.num_threads = threads;
      options.compiled_kernels = kernels;
      KnowledgeEvaluator fresh_eval(fresh, options);
      KnowledgeEvaluator loaded_eval(loaded, options);
      for (const FormulaPtr& f : formulas) {
        const auto expected = reference.SatisfyingSet(f);
        EXPECT_EQ(loaded_eval.SatisfyingSet(f), expected)
            << f->ToString() << " kernels=" << kernels
            << " threads=" << threads;
        EXPECT_EQ(fresh_eval.SatisfyingSet(f), expected) << f->ToString();
      }
    }
  }
}

}  // namespace
}  // namespace hpl
