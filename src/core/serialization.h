// Serialization of computations and computation spaces.
//
// 1. Compact text serialization of computations, for CLI input, golden
//    files and debugging.
//
//    Grammar (whitespace-separated tokens, one per event):
//      send:      <from>'>'<to>':'<msg>[ '/'<label> ]      e.g.  0>1:0/ping
//      receive:   <at>'<'<from>':'<msg>[ '/'<label> ]      e.g.  1<0:0/ping
//      internal:  <proc>'.'<label>                          e.g.  2.crash
//    Labels may contain any characters except whitespace.  Parse validates
//    the result as a system computation — incrementally, so errors name the
//    offending token (1-based index and text); Format is its inverse.
//
// 2. Binary space snapshots (format `hpl-space-v3`): versioned,
//    little-endian save/load of the full columnar ComputationSpace — the
//    interned event pool, splice links, canonical-hash index, per-process
//    [p]-class tables, CSR successors and buckets, and every materialized
//    GroupIndex.  A loaded space is byte-identical to the one saved: same
//    class ids, canonical hashes, projection classes, buckets, successor
//    lists and group tables, so knowledge verdicts evaluated against it
//    match the freshly enumerated space exactly.  This is what lets
//    `hpl_cli serve` enumerate once and answer queries forever after.
//
//    The header records the SpaceBuilder frontier state (sealed /
//    complete / capped / ingested, the built depth, and where the parked
//    frontier level begins in the id range), so a snapshot saved from a
//    depth-capped build can be loaded back into a SpaceBuilder and
//    *deepened* — LoadSpaceBuilderSnapshot rehydrates the retained BFS
//    frontier from the splice links and resumes byte-identically to a
//    fresh enumeration at the larger depth.
//
//    It also carries the segment directory of the out-of-core store
//    (segment_store.h): the save-time segment geometry plus, per
//    segmented column, its tag, element count, segment count and an
//    FNV-1a checksum of its payload — so corruption is attributed to a
//    named column, not just "the file".  Loads rebuild the columns into
//    whatever segment geometry the caller passes (fully resident by
//    default), re-enforcing the residency budget column by column, so a
//    100M-class snapshot can be opened under a memory budget far below
//    its payload.
//
//    Layout: an 8-byte magic ("HPLSPACE"), a u32 format version, a header
//    (process count, flags, system name, summary counts, the frontier
//    fields and the segment directory), the columns in a fixed order, and
//    a trailing FNV-1a checksum of everything before it.  All integers are
//    explicit little-endian, so snapshots are portable across hosts.  Load
//    rejects bad magic, other versions (the pre-directory versions 1 and 2
//    with a message to re-save from the system), truncated files,
//    inconsistent column sizes, and checksum mismatches with a ModelError
//    naming the problem.
#ifndef HPL_CORE_SERIALIZATION_H_
#define HPL_CORE_SERIALIZATION_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/computation.h"
#include "core/space.h"

namespace hpl {

// Renders a computation in the token format above (events separated by
// single spaces).
std::string FormatComputation(const Computation& x);

// Parses the token format; throws ModelError on syntax errors or when the
// event sequence is not a valid computation.  Errors carry the 1-based
// index and text of the offending token.
Computation ParseComputation(const std::string& text);

// --- Binary space snapshots (hpl-space-v3) ---------------------------------

// The one snapshot format version this build writes and reads.
inline constexpr std::uint32_t kSpaceSnapshotVersion = 3;

// Header summary of a snapshot, readable without loading the columns.
struct SpaceSnapshotInfo {
  std::uint32_t version = 0;
  std::string system_name;
  int num_processes = 0;
  bool truncated = false;
  bool canonicalize = true;
  std::uint64_t classes = 0;       // [D]-classes in the space
  std::uint64_t pool_events = 0;   // interned event alphabet size
  std::uint64_t group_indexes = 0; // materialized [G]-class tables
  // Frontier fields: 0 = sealed (no frontier: query-only), 1 = complete
  // (BFS drained), 2 = capped (frontier parked at built_depth:
  // loadable-then-deepenable), 3 = ingested (spliced traces: Ingest
  // continues, Deepen refuses).
  std::uint8_t frontier = 0;
  std::uint32_t built_depth = 0;    // depth the level-synchronous BFS reached
  std::uint64_t frontier_begin = 0; // first class id of the parked frontier
  // Segment-directory fields:
  std::uint32_t segment_shift = 0;   // save-time log2 class rows per segment
  std::uint64_t segment_columns = 0; // segmented columns in the directory
  std::uint64_t segments = 0;        // total segments across those columns
};

// Writes the space as an hpl-space snapshot.  The stream overload writes
// to any binary ostream; the path overload creates/truncates the file and
// throws ModelError on I/O failure.  Group indexes are saved in ascending
// mask order, so identical spaces produce byte-identical snapshots.  A
// bare ComputationSpace carries no frontier, so these save as `complete`
// when the space is exhaustive and `sealed` when it was truncated;
// SaveSpaceBuilderSnapshot preserves a live frontier.
void SaveSpaceSnapshot(const ComputationSpace& space, std::ostream& out);
void SaveSpaceSnapshot(const ComputationSpace& space, const std::string& path);

// Writes the builder's space together with its live frontier state, so the
// returned file can be loaded with LoadSpaceBuilderSnapshot and deepened
// (or further ingested into) from exactly where this builder stopped.
// Throws if the builder is empty.
void SaveSpaceBuilderSnapshot(const SpaceBuilder& builder, std::ostream& out);
void SaveSpaceBuilderSnapshot(const SpaceBuilder& builder,
                              const std::string& path);

// Reads a snapshot back into a ComputationSpace.  Throws ModelError on bad
// magic, version mismatch, truncation, inconsistent columns, or checksum
// failure.  The columns are rebuilt under `segments`' geometry / residency
// budget (spilling cold segments as the load streams in); the default loads
// fully resident.
ComputationSpace LoadSpaceSnapshot(std::istream& in,
                                   const SegmentOptions& segments = {});
ComputationSpace LoadSpaceSnapshot(const std::string& path,
                                   const SegmentOptions& segments = {});

// Reads a snapshot into a SpaceBuilder bound to `system` (which must be
// the system the snapshot was enumerated from — name and process count are
// checked — and must outlive the builder).  A `capped` snapshot comes back
// deepenable: the BFS frontier is rehydrated from the splice links and
// Deepen resumes byte-identically to a fresh deeper enumeration.  An
// `ingested` snapshot keeps accepting Ingest.  `sealed` snapshots load
// sealed: queries work, Deepen and Ingest throw.
// `limits` seeds the builder's Deepen/Ingest budgets (max_classes,
// num_threads, allow_truncation) and `limits.segments` the loaded store's
// segment geometry / residency budget; max_depth is ignored — pass the
// target to Deepen instead.
SpaceBuilder LoadSpaceBuilderSnapshot(const System& system, std::istream& in,
                                      const EnumerationLimits& limits = {});
SpaceBuilder LoadSpaceBuilderSnapshot(const System& system,
                                      const std::string& path,
                                      const EnumerationLimits& limits = {});

// Reads only the header (cheap: no column payloads).  The checksum is NOT
// verified — use LoadSpaceSnapshot to validate a snapshot end to end.
SpaceSnapshotInfo ReadSpaceSnapshotInfo(std::istream& in);
SpaceSnapshotInfo ReadSpaceSnapshotInfo(const std::string& path);

}  // namespace hpl

#endif  // HPL_CORE_SERIALIZATION_H_
