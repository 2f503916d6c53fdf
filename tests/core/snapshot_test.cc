// Binary space snapshots (hpl-space-v5): round-trip invariants.
// (Builder snapshots — frontier round-trip, sealed loads, rejection of the
// retired versions 1 to 4 — are covered in space_builder_test.cc.)
//
// The contract under test is byte-identity — a loaded space must be
// indistinguishable from the freshly enumerated one: same class ids,
// canonical forms, hashes, successors, the projection classes a load mints
// from the links, the buckets and group tables it derives from them (the
// file stores only the group masks), and (within allocator slack) the same
// MemoryUsage(); knowledge
// verdicts evaluated against it must match the definitional oracle over the
// fresh space exactly, kernels on and off, at 1 and 4 threads.  Corrupt,
// truncated, or foreign files must be rejected with ModelError, never crash
// or silently load — and so must files whose checksums hold but whose ids
// point outside their columns.  The saved bytes and the truncation messages
// are pinned.
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
#include "snapshot_bytes.h"

namespace hpl {
namespace {

namespace sb = snapshot_bytes;

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
    const Partition fresh_p = fresh.PartitionOf(ProcessSet::Of(p));
    const Partition loaded_p = loaded.PartitionOf(ProcessSet::Of(p));
    for (std::size_t id = 0; id < fresh.size(); ++id)
      EXPECT_EQ(loaded_p.ClassOf(id), fresh_p.ClassOf(id)) << id;
    ASSERT_EQ(loaded_p.NumClasses(), fresh_p.NumClasses());
    for (std::uint32_t cls = 0; cls < fresh_p.NumClasses(); ++cls) {
      const auto a = fresh_p.Bucket(cls);
      const auto b = loaded_p.Bucket(cls);
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
    const Partition a = fresh.EnsureGroupIndex(g);
    const Partition b = loaded.EnsureGroupIndex(g);
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

TEST(SnapshotTest, RejectsAFileWithoutTheRootClass) {
  // Every space holds the root, and a load mints the projection rows from
  // it, so a class count of 0 is refused as soon as the header is read.
  const auto fresh = EnumerateRandom(2);
  std::string bytes = SnapshotBytes(fresh);
  // magic, version, processes, two flags, reserved u16, the length-prefixed
  // name.
  const std::size_t classes_at =
      8 + 4 + 4 + 1 + 1 + 2 + 4 + fresh.system_name().size();
  for (std::size_t i = 0; i < 8; ++i) bytes[classes_at + i] = 0;
  std::istringstream header(bytes);
  ASSERT_EQ(ReadSpaceSnapshotInfo(header).classes, 0u);
  try {
    LoadBytes(bytes);
    FAIL() << "a file without classes loaded";
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("snapshot has no classes"),
              std::string::npos)
        << error.what();
  }
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

// --- Format pins -------------------------------------------------------------
//
// hpl-space-v5 bytes are a contract: files saved by earlier builds must load,
// and a rewrite of the I/O paths must not move a byte.  The lengths and
// FNV-1a digests below were derived from the v4 files of the same spaces
// (themselves cut from v3 files pinned from an element-by-element writer)
// by cutting out the projection column and its directory row, so they do
// not depend on the writer they check.

struct Pin {
  std::size_t length;
  std::uint64_t digest;
};

void ExpectPinned(const std::string& bytes, const Pin& pin, const char* what) {
  EXPECT_EQ(bytes.size(), pin.length) << what;
  EXPECT_EQ(sb::Fnv1a(bytes), pin.digest) << what;
}

TEST(SnapshotFormatTest, CompleteSpaceBytesArePinned) {
  protocols::TokenBusSystem bus(/*num_processes=*/4, /*passes=*/4);
  ExpectPinned(SnapshotBytes(ComputationSpace::Enumerate(bus)),
               {1592, 3742376582678808276ull}, "tokenbus(4,4)");
}

TEST(SnapshotFormatTest, CappedBuilderBytesArePinned) {
  protocols::TokenBusSystem bus(/*num_processes=*/4, /*passes=*/4);
  EnumerationLimits limits;
  limits.max_depth = 6;
  limits.allow_truncation = true;
  SpaceBuilder builder;
  builder.Build(bus, limits);
  std::ostringstream out;
  SaveSpaceBuilderSnapshot(builder, out);
  ExpectPinned(out.str(), {1076, 10783140252654968150ull},
               "tokenbus(4,4) capped at 6");
}

TEST(SnapshotFormatTest, GroupIndexBytesArePinned) {
  const auto space = EnumerateRandom(11);
  space.EnsureGroupIndex(ProcessSet{0, 1});
  space.EnsureGroupIndex(ProcessSet{2, 3});
  ExpectPinned(SnapshotBytes(space), {353982, 6138625375408145479ull},
               "random(11) + 2 groups");
}

// --- Truncation messages -----------------------------------------------------
//
// A file cut short names the field that holds its first missing byte.

std::string Truncated(std::string where) {
  return "LoadSpaceSnapshot: truncated snapshot (" + where + ")";
}

// The message a load of `bytes` cut to `keep` bytes throws.
std::string TruncationMessage(const std::string& bytes, std::size_t keep) {
  try {
    (void)LoadBytes(bytes.substr(0, keep));
  } catch (const ModelError& error) {
    return error.what();
  }
  return "(loaded)";
}

TEST(SnapshotFormatTest, TruncationNamesTheFieldOfTheFirstMissingByte) {
  const auto space = EnumerateRandom(11);
  space.EnsureGroupIndex(ProcessSet{0, 1});
  space.EnsureGroupIndex(ProcessSet{2, 3});
  const std::string bytes = SnapshotBytes(space);
  const sb::Layout l = sb::Parse(bytes);
  ASSERT_EQ(l.groups, 2u);
  // The last pool event: the pool's count is checked against the bytes
  // left before any event is read, so a cut in the first one would be
  // refused by that count.
  const std::size_t event = l.event_at.back();
  const std::size_t link = l.links.begin + 12;  // class 1
  std::vector<std::pair<std::size_t, std::string>> cuts = {
      {4, Truncated("magic")},
      {event + 1, Truncated("event process")},
      {event + 4, Truncated("event kind")},
      {event + 7, Truncated("event message")},
      {event + 14, Truncated("event peer")},
      {event + 18, Truncated("event label")},
      {link + 1, Truncated("link parent")},
      {link + 5, Truncated("link event")},
      {link + 9, Truncated("link pos")},
      {link + 11, Truncated("link length")},
      {l.canon_hash.begin + 11, Truncated("canon hash")},
      {l.canon_id.begin + 6, Truncated("canon id")},
      {l.succ_offsets.count_at + 1, Truncated("successor offsets")},
      {l.succ_offsets.payload.begin + 2, Truncated("successor offsets")},
      {l.succ_classes.payload.begin + 6, Truncated("successor classes")},
      {l.succ_events.count_at + 4, Truncated("successor events")},
      {l.succ_events.payload.begin + 1, Truncated("successor events")},
      {l.group_mask_at[0] + 3, Truncated("group mask")},
      {l.group_mask_at[1], Truncated("group mask")},
      {l.group_mask_at[1] + 7, Truncated("group mask")},
      {l.checksum_at + 3, Truncated("checksum")},
  };
  for (const auto& [keep, message] : cuts)
    EXPECT_EQ(TruncationMessage(bytes, keep), message) << "cut at " << keep;
}

TEST(SnapshotFormatTest, TruncationAtAChunkBoundaryNamesTheField) {
  // Enough classes that the segmented columns span several read chunks.
  const std::string bytes = SnapshotBytes(EnumerateRandom(11));
  const sb::Layout l = sb::Parse(bytes);
  ASSERT_GT(l.classes, 4096u + 1);
  const std::size_t chunk_end = l.links.begin + 4096 * 12;
  EXPECT_EQ(TruncationMessage(bytes, chunk_end - 1), Truncated("link length"));
  EXPECT_EQ(TruncationMessage(bytes, chunk_end), Truncated("link parent"));
  EXPECT_EQ(TruncationMessage(bytes, chunk_end + 8), Truncated("link pos"));
  EXPECT_EQ(TruncationMessage(bytes, l.canon_hash.begin + 4096 * 8 + 7),
            Truncated("canon hash"));
}

// --- Checksum-consistent defects ---------------------------------------------
//
// Each file below has valid directory and file checksums but carries an id
// that would send a query, Deepen or Ingest outside a column.  The loader
// must refuse it with a ModelError naming the defect.

// Token bus n=3, 3 passes, with the {0,1} [G]-table.
std::string SmallBusBytes() {
  protocols::TokenBusSystem bus(/*num_processes=*/3, /*passes=*/3);
  const auto space = ComputationSpace::Enumerate(bus);
  space.EnsureGroupIndex(ProcessSet{0, 1});
  return SnapshotBytes(space);
}

// Writes `value` over the `width` bytes at `at`, reseals the checksums and
// expects the load to fail naming `defect`.
void ExpectDefect(std::string bytes, std::size_t at, std::uint64_t value,
                  int width, const std::string& defect) {
  const sb::Layout layout = sb::Parse(bytes);
  sb::PutLe(bytes, at, value, width);
  sb::Reseal(bytes, layout);
  try {
    (void)LoadBytes(bytes);
    FAIL() << "loaded a file whose defect is: " << defect;
  } catch (const ModelError& error) {
    EXPECT_NE(std::string(error.what()).find(defect), std::string::npos)
        << error.what();
  }
}

TEST(SnapshotDefectTest, EventProcessOutsideTheSystem) {
  const std::string bytes = SmallBusBytes();
  const std::size_t at = sb::Parse(bytes).event_at[0];
  ExpectDefect(bytes, at, 99, 4, "names process 99 outside the system");
  ExpectDefect(bytes, at, static_cast<std::uint32_t>(-5), 4,
               "names process -5 outside the system");
}

TEST(SnapshotDefectTest, EventPeerOutsideTheSystem) {
  const std::string bytes = SmallBusBytes();
  const sb::Layout l = sb::Parse(bytes);
  // The first send or receive in the pool (kind byte after the process).
  std::size_t at = 0;
  for (const std::size_t e : l.event_at)
    if (bytes[e + 4] != static_cast<char>(EventKind::kInternal)) {
      at = e;
      break;
    }
  ASSERT_NE(at, 0u);
  ExpectDefect(bytes, at + 13, 7, 4, "names process 7 outside the system");
}

TEST(SnapshotDefectTest, RootWithALength) {
  const std::string bytes = SmallBusBytes();
  ExpectDefect(bytes, sb::Parse(bytes).links.begin + 10, 1, 2,
               "root class has length 1");
}

TEST(SnapshotDefectTest, LinkLengthNotOneMoreThanItsParent) {
  const std::string bytes = SmallBusBytes();
  ExpectDefect(bytes, sb::Parse(bytes).links.begin + 12 + 10, 5, 2,
               "class 1 (length 5, splice position 0) does not extend its "
               "parent class 0 (length 0) by one event");
}

TEST(SnapshotDefectTest, LinkSplicePositionPastItsParent) {
  const std::string bytes = SmallBusBytes();
  ExpectDefect(bytes, sb::Parse(bytes).links.begin + 12 + 8, 3, 2,
               "class 1 (length 1, splice position 3) does not extend");
}

TEST(SnapshotDefectTest, SuccessorOffsetsNotACsrPrefix) {
  const std::string bytes = SmallBusBytes();
  const sb::Layout l = sb::Parse(bytes);
  // Offsets 0 and 1 swapped into a descent that still ends at the payload
  // size.
  ExpectDefect(bytes, l.succ_offsets.payload.begin + 4, 0xffff, 4,
               "successor offsets do not start at 0 and ascend");
}

TEST(SnapshotDefectTest, SuccessorClassPastTheClasses) {
  const std::string bytes = SmallBusBytes();
  ExpectDefect(bytes, sb::Parse(bytes).succ_classes.payload.begin, 99, 4,
               "successor class 99 is out of range");
}

TEST(SnapshotDefectTest, SuccessorEventPastThePool) {
  const std::string bytes = SmallBusBytes();
  ExpectDefect(bytes, sb::Parse(bytes).succ_events.payload.begin, 99, 4,
               "successor event 99 is out of range");
}

TEST(SnapshotDefectTest, GroupMaskOutsideTheSystem) {
  const std::string bytes = SmallBusBytes();
  ExpectDefect(bytes, sb::Parse(bytes).group_mask_at[0], 1u << 10, 8,
               "group mask 1024 names no process or one outside the system");
}

TEST(SnapshotDefectTest, CappedFrontierOffTheBuiltDepth) {
  protocols::TokenBusSystem bus(/*num_processes=*/3, /*passes=*/3);
  EnumerationLimits limits;
  limits.max_depth = 4;
  limits.allow_truncation = true;
  SpaceBuilder builder;
  builder.Build(bus, limits);
  std::ostringstream out;
  SaveSpaceBuilderSnapshot(builder, out);
  const std::string bytes = out.str();
  ExpectDefect(bytes, sb::Parse(bytes).built_depth_at, 3, 4,
               "of length 4, not at the built depth 3");
}

TEST(SnapshotDefectTest, AChecksumErrorWinsOverTheDefect) {
  // Unsealed, the same out-of-range successor class is plain corruption.
  std::string bytes = SmallBusBytes();
  sb::PutLe(bytes, sb::Parse(bytes).succ_classes.payload.begin, 99, 4);
  try {
    (void)LoadBytes(bytes);
    FAIL() << "loaded a corrupt file";
  } catch (const ModelError& error) {
    EXPECT_EQ(std::string(error.what()),
              "LoadSpaceSnapshot: column 'succc' checksum mismatch (corrupt "
              "snapshot)");
  }
}

}  // namespace
}  // namespace hpl
