// ComputationSpace: the (finite) set of all computations of a System,
// organized for knowledge evaluation.
//
// "P knows b at x" quantifies over every system computation y with x [P] y
// (paper Section 4.1), so deciding knowledge requires the whole computation
// set.  Enumerate() explores the system exhaustively from the empty
// computation.  Because every predicate must be [D]-invariant (the paper
// assumes "x [D] y implies b at x = b at y"), the space stores exactly one
// canonical representative per [D]-equivalence class; this both compresses
// the space and enforces the invariance assumption by construction.
//
// The store is columnar and segmented.  Events are interned into a shared
// pool (a system's event alphabet is bounded by its protocol, not by its
// class count), and a class is 12 bytes: its BFS parent, the pool id of the
// one event that extends the parent into it, and the splice position where
// the canonical scheduler emits that event — canonical sequences are never
// stored, they are materialized on demand by replaying the splice chain
// from the root (At(), therefore, returns by value).  Successor lists and
// per-process buckets are CSR-flattened (offset array + flat uint32_t
// payload), and the canonical-form index is a sorted (hash, id) column.
//
// The per-class columns (links, projections, canonical index, successor
// CSR) live in fixed-size segments (segment_store.h) rather than one flat
// vector each: the tail segment of each column is append-only and
// resident, sealed segments are immutable and individually spillable to
// FNV-checksummed files, faulted back via mmap on demand.  With a
// residency budget set (EnumerationLimits::segments), BFS enumeration
// spills cold segments behind the frontier and whole-space sweeps stream
// segment-at-a-time — the out-of-core mode that takes the store past RAM
// (the 100M-class regime).  Without a budget (the default) every segment
// stays resident and behavior matches the flat store exactly.  Because the
// canonical index is kept globally sorted by hash, its segment boundaries
// are contiguous hash ranges — the store is effectively sharded by
// canonical-hash prefix.  The event pool and the bucket CSR columns stay
// resident: the pool is bounded by the protocol alphabet, and bucket
// payloads are the one column sweeps genuinely random-access (their
// footprint is the documented floor of the out-of-core mode).
//
// Reads of the segmented columns go through view/cursor types instead of
// raw spans: SuccessorsOf() returns a SuccessorRange and Classes() a
// SegmentCursor — each pins the segments it touches for its lifetime, so a
// cooperative residency trim (TrimResidency) can never invalidate an
// in-flight access.  Partition::Bucket() returns a plain std::span: bucket
// payloads are resident by design, so there is nothing to pin.
//
// Per-process buckets group computations with equal projections, so the
// [p]-equivalence classes are materialized and "for all y: x [P] y" becomes
// a scan of one bucket instead of a scan of the whole space.  Projection
// classes are assigned *during* enumeration: a one-event extension leaves
// every projection unchanged except on the extending event's process, where
// it appends that event — so a child's [p]-class is inherited from its
// parent for p != e.process and looked up (or minted) by the key (parent's
// [p]-class, event id) for p == e.process.  Classifying a class costs O(1)
// amortized instead of hashing its projections, and the rows are a
// function of the links: snapshots do not store them, a load re-mints them.
//
// On top of the singleton [p]-classes sits the group ([G]-class) layer: for
// a process set G, the [G]-equivalence x [G] y (equal projections on every
// member) is the common refinement of the member [p]-partitions, and its
// classes are materialized as an internal::PartitionTable — one dense class
// id per [D]-class plus a CSR bucket column, exactly the singleton layout.
// Class ids number the member [p]-class tuples by first occurrence over
// ascending ids.  A table is built on first use by EnsureGroupIndex, which
// refines partitions bucket by bucket (PartitionTable::Refine): from the
// largest cached table of a subgroup, else the first member's [p]-buckets,
// by each remaining member's [p]-buckets.  The build reads only resident
// bucket CSRs, never the links or the projection rows.  Tables are cached
// by process mask; Deepen and Ingest re-derive every cached table the same
// way once the [p]-buckets are extended by the new rows.
//
// Every reader outside the space sees classes the same way: as a Partition
// view (ClassOf, NumClasses, Bucket, Representative) from PartitionOf(g) —
// the [p]-columns for g = {p}, the cached [G]-table for |g| >= 2.  Only
// space.cc, state_view.cc and the snapshot code know how classes are
// stored.
//
// Enumeration is level-synchronous: the BFS frontier expands one depth
// level at a time, each member read in place as an EventRow over its
// interned ids, extensions dedup through per-shard flat tables
// (flat_table.h) over the level's interned-id rows, and shards merge in
// the sequential discovery order — so class ids, successor lists,
// projection classes, and therefore every knowledge result are
// byte-identical for every `num_threads` value (`num_threads = 1` runs the
// same phases inline), and independent of the segment size and residency
// budget (differential-tested in tests/core/space_segmented_test.cc).
// Expansion calls `System::EnabledEventsAt` concurrently from multiple
// threads, which is safe for every system in the repo because it (and the
// EnabledEvents its default adapter calls) is a pure function of the
// computation; custom systems must preserve that (no mutable state in a
// const EnabledEvents or EnabledEventsAt).
#ifndef HPL_CORE_SPACE_H_
#define HPL_CORE_SPACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/computation.h"
#include "core/flat_table.h"
#include "core/segment_store.h"
#include "core/system.h"
#include "core/types.h"

namespace hpl {

namespace sim {
class Trace;  // sim/trace.h: recorded event stream (SpaceBuilder::Ingest)
}  // namespace sim

namespace internal {
class WorkerPool;
struct SpaceSnapshotIO;  // serialization.cc: binary snapshot save/load

// Throws ModelError unless `g` is a non-empty set of processes of a
// `num_processes`-process system: the precondition of every partition a
// knowledge quantifier reads, with one message for every partition source.
void RequirePartitionGroup(ProcessSet g, int num_processes);
}  // namespace internal

class SpaceBuilder;

// A non-owning view of one partition of a space's class ids into
// equivalence classes: the relation a knowledge quantifier ranges over.
// Each id has a dense class, and each class's members form one ascending
// CSR bucket, so a class's representative (its first bucket member) is its
// smallest id.  Views come from ComputationSpace::PartitionOf (the [p]- and
// [G]-partitions) and StateView::PartitionOf (state partitions).  A view
// borrows its source's columns and goes stale when the source grows:
// SpaceBuilder Deepen and Ingest reallocate them, so holders take a fresh
// view after either.
class Partition {
 public:
  Partition() = default;
  // A partition stored flat: `cls` holds one class per id, `offsets` the
  // NumClasses() + 1 CSR offsets into `ids`.
  Partition(const std::uint32_t* cls, std::span<const std::uint32_t> offsets,
            const std::uint32_t* ids)
      : cls_(cls),
        offsets_(offsets.data()),
        ids_(ids),
        num_classes_(offsets.size() - 1) {}

  std::uint32_t ClassOf(std::size_t id) const {
    return cls_ != nullptr ? cls_[id] : proj_->Row(id)[process_];
  }
  std::size_t NumClasses() const noexcept { return num_classes_; }
  // The members of class `cls`, ascending.
  std::span<const std::uint32_t> Bucket(std::uint32_t cls) const {
    return std::span<const std::uint32_t>(ids_ + offsets_[cls],
                                          offsets_[cls + 1] - offsets_[cls]);
  }
  // The smallest member of class `cls`.
  std::uint32_t Representative(std::uint32_t cls) const {
    return ids_[offsets_[cls]];
  }

 private:
  friend class ComputationSpace;
  // The classes of a flat partition; null for a [p]-partition, whose
  // classes are column `process_` of the space's projection rows.
  const std::uint32_t* cls_ = nullptr;
  const internal::SegColumn<std::uint32_t>* proj_ = nullptr;
  std::size_t process_ = 0;
  const std::uint32_t* offsets_ = nullptr;
  const std::uint32_t* ids_ = nullptr;
  std::size_t num_classes_ = 0;
};

namespace internal {
// The one owning store of a flat partition: a class per id and the CSR
// buckets a Partition view reads.  Backs the space's [G]-tables,
// StateView's state tables and the evaluator's CK components.
struct PartitionTable {
  std::vector<std::uint32_t> cls;      // per id: its class
  std::vector<std::uint32_t> offsets;  // CSR offsets (num_classes + 1)
  std::vector<std::uint32_t> ids;      // CSR payload, ascending per bucket

  // Counting sort of the ids 0 .. cls.size() - 1 by class: fills `offsets`
  // and `ids` for `num_classes` classes, ascending within each bucket.
  void Fill(std::size_t num_classes);
  // Makes this table the common refinement of `a` and `b`, two partitions
  // of the ids 0 .. n - 1: two ids share a class iff they share one in `a`
  // and in `b`.  Classes are numbered by first occurrence over ascending
  // ids, so when `a` and `b` are numbered by first occurrence of member
  // tuples, so is the result.  Reads only the two partitions' buckets.
  void Refine(const Partition& a, const Partition& b, std::size_t n);
  Partition View() const { return Partition(cls.data(), offsets, ids.data()); }
  std::size_t MemoryBytes() const noexcept {
    return (cls.capacity() + offsets.capacity() + ids.capacity()) *
           sizeof(std::uint32_t);
  }
};
}  // namespace internal

struct EnumerationLimits {
  // Hard cap on events per computation.  Enumeration throws if any branch
  // is still extendable at this depth, unless `allow_truncation` is set —
  // knowledge results on a truncated space are approximations and
  // Enumerate() records the truncation in `ComputationSpace::truncated()`.
  // Must fit the columnar store's 16-bit splice links: at most 65535.
  int max_depth = 64;
  // Hard cap on the number of [D]-classes (guards against blow-up).
  std::size_t max_classes = 20'000'000;
  bool allow_truncation = false;
  // When true (default), computations are deduplicated by [D]-canonical
  // form — sound for the paper's asynchronous model, whose computation
  // sets are closed under valid permutations.  Timed/synchronous systems
  // (e.g. protocols/lockstep.h) are NOT permutation closed: they must set
  // this to false so the space keeps their literal interleavings.
  bool canonicalize = true;
  // Worker threads for enumeration.  0 = std::thread::hardware_concurrency
  // (at least 1); 1 = the same level phases run inline.  Any value produces
  // byte-identical class ids and derived indexes (see the header comment).
  int num_threads = 0;
  // Segment size / residency budget / spill directory of the columnar
  // store (segment_store.h).  The default keeps everything resident; a
  // non-zero residency budget turns on out-of-core enumeration: cold
  // segments spill behind the BFS frontier.  Class ids and every derived
  // column are byte-identical whatever these values.
  SegmentOptions segments = {};
};

class ComputationSpace {
 public:
  // Exhaustively enumerates the system's computations.  A thin wrapper over
  // SpaceBuilder (Build + Take): the result is sealed — keep the builder
  // instead when the space should be deepened or ingested into later.
  static ComputationSpace Enumerate(const System& system,
                                    const EnumerationLimits& limits = {});

  int num_processes() const noexcept { return num_processes_; }
  ProcessSet AllProcesses() const { return ProcessSet::All(num_processes_); }
  std::size_t size() const noexcept { return links_.size(); }
  bool truncated() const noexcept { return truncated_; }
  const std::string& system_name() const noexcept { return system_name_; }

  // Depth the level-synchronous BFS reached: the depth cap for truncated
  // spaces, the length of the longest class otherwise.  Classes spliced in
  // by SpaceBuilder::Ingest may be longer — the BFS is exhaustive only up
  // to this depth.
  int built_depth() const noexcept { return built_depth_; }

  // Canonical representative of class `id`, materialized from the columnar
  // store by replaying the class's splice chain from the root: `length`
  // parent-link reads, O(length^2) uint32 moves, two allocations and one
  // Event copy per event (lengths are <= max_depth).  Meant for pointwise
  // use; whole-space passes go through ForEachComputation, which pays one
  // splice per class instead.  Returns by value — bind with
  // `const Computation& x = space.At(id)` when a reference is convenient
  // (lifetime extension applies).
  Computation At(std::size_t id) const;

  // Streaming materializer for whole-space passes: visits the ids in
  // [begin, end) in ascending order and calls fn(id, x) with x == At(id)
  // for every id where need(id) is true.  A skipped id costs one need()
  // call and no class-store read.  One canonical id-row is cached per
  // depth, so a class whose parent is the cached row one level up costs
  // one splice (O(length) uint32 copies) plus the Event copies of `x`;
  // when it is not (an Ingest parent, a gap of skipped ids, the first id of
  // a range) the walk climbs to the deepest cached ancestor, so any range
  // of any space materializes correctly.  `x` is valid only during the
  // call.  Each call keeps its own cache: concurrent calls over disjoint
  // ranges are safe (sharded kernels run one per chunk).
  template <typename Need, typename Fn>
  void ForEachComputation(std::size_t begin, std::size_t end, Need&& need,
                          Fn&& fn) const {
    SpliceCursor cursor(*this, end);
    for (std::size_t id = begin; id < end; ++id)
      if (need(id)) fn(id, cursor.Materialize(id));
  }

  // Streaming materializer over one process's projections: visits the
  // [p]-classes cls in [begin, end) (class numbers of PartitionOf({p}))
  // in ascending order and calls fn(cls, projection) for every class where
  // need(cls) is true, where `projection` is p's events in any member of
  // cls, in order — what a predicate local to p
  // (Predicate::OnProjection) reads.  Walks the process's projection trie
  // (one (parent [p]-class, event) link per class, built on first use and
  // cached like the [G]-tables, extended after the space grows); the
  // projection buffer is recycled across classes, so a class costs the
  // Event copies where it differs from the previous one.  `projection` is
  // valid only during the call.  Concurrent calls over disjoint ranges are
  // safe.  Throws ModelError when p is not a process of the system, and
  // std::out_of_range unless end <= NumClasses.
  template <typename Need, typename Fn>
  void ForEachProjection(ProcessId p, std::size_t begin, std::size_t end,
                         Need&& need, Fn&& fn) const {
    ProjectionCursor cursor(*this, p, end);
    for (std::size_t cls = begin; cls < end; ++cls)
      if (need(cls)) fn(cls, cursor.Materialize(cls));
  }

  // Event count of class `id` without materializing it (O(1); faults the
  // class's links segment in if it is spilled).
  std::size_t LengthOf(std::size_t id) const { return links_[id].length; }

  // Index of the [D]-class of `c`, if `c` (or a permutation of it) is a
  // computation of the system.
  std::optional<std::size_t> IndexOf(const Computation& c) const;

  // As IndexOf but throws with context when absent.
  std::size_t RequireIndex(const Computation& c) const;

  // The [G]-partition for `g` as a Partition view.  The table behind it is
  // built on first use (a refinement of cached partitions) and cached
  // by process mask, |g| = 1 included, so a saved snapshot records the mask
  // and its load rebuilds the table; `g` must be non-empty and name only
  // processes of the system.  Thread-safe.
  // For |g| >= 2 PartitionOf(g) returns the same view.
  Partition EnsureGroupIndex(ProcessSet g) const;

  // True when the [G]-table for `g` is already materialized (by a previous
  // EnsureGroupIndex, or rebuilt by a snapshot load).
  bool HasGroupIndex(ProcessSet g) const;

  // Bytes held by the materialized [G]-tables (MemoryStats::
  // bytes_group_index), without MemoryUsage's full column scan.
  std::size_t GroupIndexBytes() const;

  // The [g]-partition as a Partition view: the [p]-class column and CSR
  // buckets of p for g = {p}, the EnsureGroupIndex(g) table for |g| >= 2.
  // The only reader of the space's equivalence classes.  Throws ModelError
  // when `g` is empty or names a process outside the system.  The view is
  // stale after a SpaceBuilder Deepen or Ingest.
  Partition PartitionOf(ProcessSet g) const;

  // True iff At(a) [P] At(b) — O(|P|): compares the members' [p]-classes.
  // P empty relates everything (the paper: x [{}] y for all x, y).
  bool Isomorphic(std::size_t a, std::size_t b, ProcessSet set) const;

  // Decides the composed relation At(a) [P0 P1 ... Pn] At(b) by BFS through
  // the per-stage partition buckets (an empty stage relates every id).
  bool ComposedIsomorphic(std::size_t a, std::size_t b,
                          const std::vector<ProcessSet>& stages) const;

  // Constructive witness: intermediate computations y1..y_{n-1} with
  // a [P0] y1 [P1] y2 ... [Pn] b (class ids, including both endpoints).
  // Empty when the relation does not hold.  This realizes the existential
  // in the paper's composed-isomorphism definition, and in Theorem 1.
  std::vector<std::size_t> ComposedPath(
      std::size_t a, std::size_t b,
      const std::vector<ProcessSet>& stages) const;

  // The ids of all z with At(a) [P0 ... Pn] z (BFS frontier after the last
  // stage).  Used to study Theorem 3's shrink/grow semantics.
  std::vector<std::size_t> ComposedReachable(
      std::size_t a, const std::vector<ProcessSet>& stages) const;

  // Classes whose representative extends At(id) by exactly one event
  // (successor classes), and the extending events.  Backed by the CSR
  // successor columns; iteration yields Successor values whose events are
  // copied out of the shared pool.  The range pins the successor-payload
  // segments it covers, so iteration is stable across a concurrent
  // residency trim.  Move-only: the pins are owned.
  struct Successor {
    std::size_t class_id;
    Event event;
  };
  class SuccessorRange {
   public:
    class Iterator {
     public:
      using value_type = Successor;
      using difference_type = std::ptrdiff_t;
      Iterator(const ComputationSpace* space, std::uint32_t i)
          : space_(space), i_(i) {}
      Successor operator*() const { return space_->SuccessorAt(i_); }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const Iterator& o) const { return i_ == o.i_; }

     private:
      const ComputationSpace* space_;
      std::uint32_t i_;
    };

    SuccessorRange(SuccessorRange&&) noexcept = default;
    SuccessorRange& operator=(SuccessorRange&&) noexcept = default;

    std::size_t size() const noexcept { return end_ - begin_; }
    bool empty() const noexcept { return begin_ == end_; }
    Successor operator[](std::size_t k) const {
      return space_->SuccessorAt(begin_ + static_cast<std::uint32_t>(k));
    }
    Iterator begin() const { return Iterator(space_, begin_); }
    Iterator end() const { return Iterator(space_, end_); }

   private:
    friend class ComputationSpace;
    SuccessorRange(const ComputationSpace* space, std::uint32_t begin,
                   std::uint32_t end)
        : space_(space), begin_(begin), end_(end) {}
    const ComputationSpace* space_;
    std::uint32_t begin_;
    std::uint32_t end_;
    // Pins on the first and last successor-payload segment the range
    // touches, per column (ranges are per-class successor lists — far
    // smaller than a segment, so two pins per column always suffice).
    internal::SegmentPin class_pin_[2];
    internal::SegmentPin event_pin_[2];
  };
  SuccessorRange SuccessorsOf(std::size_t id) const;

  // Streaming cursor over the class-id range, one segment at a time: the
  // current segment's links and projection rows are pinned (faulted in,
  // eviction-proof) while [begin, end) is processed.  With `trim_behind`
  // set, advancing past a segment trims residency back to the budget —
  // only legal on sequential sweeps (see the segment_store.h concurrency
  // contract); parallel sweeps run their own cursor per shard without
  // trimming and trim at the next quiescent point.
  //
  //   for (auto cur = space.Classes(); cur.Valid(); cur.Next())
  //     for (std::size_t id = cur.begin(); id < cur.end(); ++id) ...
  class SegmentCursor {
   public:
    SegmentCursor(SegmentCursor&&) noexcept = default;
    SegmentCursor& operator=(SegmentCursor&&) noexcept = default;

    bool Valid() const noexcept { return begin_ < limit_; }
    std::size_t segment() const noexcept { return seg_; }
    std::size_t begin() const noexcept { return begin_; }
    std::size_t end() const noexcept { return end_; }
    void Next();

   private:
    friend class ComputationSpace;
    SegmentCursor(const ComputationSpace* space, std::size_t first_id,
                  std::size_t limit, bool trim_behind);
    void PinCurrent();
    const ComputationSpace* space_;
    std::size_t seg_ = 0;
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
    std::size_t limit_ = 0;
    bool trim_ = false;
    internal::SegmentPin links_pin_;
    internal::SegmentPin proj_pin_;
  };
  // Cursor over ids [first_id, limit) — limit = SIZE_MAX means size().
  SegmentCursor Classes(std::size_t first_id = 0,
                        std::size_t limit = SIZE_MAX,
                        bool trim_behind = false) const;

  // Ids of all computations in increasing length order (stable: equal
  // lengths keep ascending ids).  BFS discovers classes level by level, so
  // for enumerated spaces this is simply 0..size()-1; SpaceBuilder::Ingest
  // can splice in classes out of length order, which this re-sorts.
  std::vector<std::size_t> IdsByLength() const;

  // --- residency control / observability -----------------------------------

  // The segment configuration this space was built (or loaded) with.
  const SegmentOptions& segment_options() const noexcept {
    return store_->options();
  }
  // True when a residency budget is set (segments may be spilled).
  bool out_of_core() const noexcept { return store_->out_of_core(); }
  // Spills LRU sealed unpinned segments until the store fits its budget.
  // Cooperative: only call from quiescent points (no unpinned concurrent
  // readers).  Returns segments spilled.  No-op without a budget.
  std::size_t TrimResidency() const { return store_->EnforceBudget(); }
  // Residency / spill counters of the segment store.
  internal::SegmentedSpaceStore::Stats SegmentStats() const {
    return store_->GetStats();
  }
  // One row per segment: its column tag, index, state, bytes and pins.
  // (Serve's `residency` op reports the SegmentStats totals instead.)
  std::vector<internal::SegmentedSpaceStore::SegmentInfo> SegmentResidency()
      const {
    return store_->Residency();
  }

  // Exact memory footprint of the columnar store, in bytes, split by
  // residency — `bytes_total` is the logical column payload wherever it
  // lives; `bytes_resident` is what actually occupies heap (counts toward
  // RSS), `bytes_mapped` is mmapped segment payload (file-backed,
  // reclaimable), `bytes_spilled` is on disk only.  Also reports what the
  // seed's array-of-structs layout would need for the same space (one
  // owned event vector per class, per-class successor vectors,
  // vector-of-vector buckets, hash-map canonical index) — the before/after
  // line benchmarks report.
  struct MemoryStats {
    std::size_t classes = 0;
    std::size_t bytes_event_pool = 0;    // interned events incl. label heap
    std::size_t bytes_class_links = 0;   // (parent, event, pos, length)
    std::size_t bytes_canon_index = 0;   // sorted (hash, id) columns
    std::size_t bytes_projection = 0;    // proj_class_
    std::size_t bytes_buckets = 0;       // CSR offsets + payload
    std::size_t bytes_successors = 0;    // CSR offsets + payload
    std::size_t bytes_group_index = 0;   // cached [G]-class indexes
    std::size_t bytes_projection_trie = 0;  // cached projection tries
    std::size_t bytes_total = 0;         // logical sum of the above
    // Residency split (segmented columns by state + always-resident
    // columns under bytes_resident).
    std::size_t bytes_resident = 0;
    std::size_t bytes_mapped = 0;
    std::size_t bytes_spilled = 0;
    std::size_t segments = 0;
    std::size_t spill_faults = 0;
    std::size_t spill_writes = 0;
    std::size_t bytes_aos_equivalent = 0;
    double BytesPerClass() const {
      return classes == 0 ? 0.0
                          : static_cast<double>(bytes_total) /
                                static_cast<double>(classes);
    }
  };
  MemoryStats MemoryUsage() const;

 private:
  // Snapshot save/load (serialization.cc) reads and rebuilds the columnar
  // members directly, and SpaceBuilder grows the columns in place; they are
  // the only code outside this class that may.
  friend struct internal::SpaceSnapshotIO;
  friend class SpaceBuilder;

  ComputationSpace() = default;

  // One class of the columnar store: the BFS parent, the extending event
  // (pool id), the canonical splice position of that event in the parent's
  // sequence, and the sequence length.  The root (class 0) has length 0.
  struct ClassLink {
    std::uint32_t parent = 0;
    std::uint32_t event = 0;
    std::uint16_t pos = 0;
    std::uint16_t length = 0;
  };

  // Configures the segment store and binds every column to it.  Must run
  // after num_processes_ is set and before any column grows.
  void InitColumns(const SegmentOptions& options);

  // The one [p]-class mint rule (see the header comment): a child's row is
  // its parent's with the extending event's process moved to the class
  // keyed (parent [p]-class, event id), minted on first sight.  Minting the
  // same links in id order always gives the same class numbers, so Build,
  // Deepen and Ingest mint each new class here, and a snapshot load and a
  // failed Deepen re-mint every row through MintProjections.
  struct ProjectionMinter {
    // Per process: the classes minted so far, keyed (parent class << 32 |
    // event id); entry k is class k + 1 (class 0, the empty projection, is
    // the root's and has no key).
    std::vector<internal::FirstSightTable> extend;

    // Per process: the classes minted so far, the root's included.
    std::vector<std::uint32_t> Counts() const;

    // Forgets every minted class and appends the root's row.
    void Start(ComputationSpace& space);
    // Appends the row of the child of `parent` extended by pool event
    // `event`.  The row is built on the stack first: the append can seal
    // (and shrink-reallocate) the tail segment the parent row lives in.
    void Mint(ComputationSpace& space, std::size_t parent,
              std::uint32_t event);
  };

  // Re-derives proj_class_ from the links: starts `minter` over and mints
  // every class's row in id order (parents have smaller ids), trimming
  // residency after each segment when a budget is set.
  void MintProjections(ProjectionMinter& minter);

  // Extends the per-process CSR buckets from the proj_class_ rows past the
  // ids they already cover (none after a load), to the minted class counts
  // `counts`: ids only append and rows never change, so each old bucket is
  // a prefix of its new bucket — a counting sort of the new rows shifts the
  // old blocks right and appends the new ids behind them, bit-identical to
  // a sort of every row.  Covering every id, it touches nothing.  One
  // independent task per process when a pool is given.  Streams only the
  // new rows' projection segments under pins, trimming residency as it
  // goes when a budget is set.
  static void BuildBuckets(ComputationSpace& space,
                           const std::vector<std::uint32_t>& counts,
                           internal::WorkerPool* pool);

  // The one way a [G]-table is built: refines the largest cached table of a
  // strict subgroup of `g` — else the first member's [p]-buckets — by each
  // remaining member's [p]-buckets, stopping once the table is discrete
  // (one class per id: refining it changes nothing); those tables must be
  // current.  Every path gives the first-occurrence numbering of the member
  // tuples, so a table built on first use, re-derived after the space
  // grew, or derived at a load is byte-identical to a from-scratch build.
  // Reads only the resident bucket CSRs.  The caller holds group_mutex_ or
  // owns the space.
  internal::PartitionTable RefineGroupTable(ProcessSet g) const;

  // Re-derives every cached [G]-table that does not cover every id (the
  // space grew, or a load registered the mask) in mask order, so each
  // refines from current subgroup tables.  Runs after BuildBuckets.
  void RefreshGroupTables();

  // Interned-event-id form of the canonical sequence of class `id`,
  // materialized by replaying the splice chain from the root.
  std::vector<std::uint32_t> CanonicalIdsOf(std::size_t id) const;

  // ForEachComputation's state: one cached canonical id-row per depth (the
  // class it belongs to, and its pool ids) plus the event buffer handed to
  // the callback, reused across classes.  SpaceBuilder::AdoptSpace reads
  // the rows alone (Ids) to rehydrate a loaded frontier.
  class SpliceCursor {
   public:
    // Throws std::out_of_range unless end <= space.size().
    SpliceCursor(const ComputationSpace& space, std::size_t end);
    const Computation& Materialize(std::size_t id);
    // The canonical pool-id row of class `id` (CanonicalIdsOf(id)), valid
    // until the next call.
    const std::vector<std::uint32_t>& Ids(std::size_t id);

   private:
    const ComputationSpace& space_;
    std::vector<std::vector<std::uint32_t>> rows_;  // rows_[d]: d pool ids
    std::vector<std::uint32_t> row_class_;          // owner of rows_[d]
    // Scratch: the uncached (class, link) pairs of one walk, leaf first.
    std::vector<std::pair<std::uint32_t, ClassLink>> chain_;
    Computation x_;
    std::vector<std::uint32_t> held_;  // pool ids of x_'s events
  };

  // One [p]-class of a projection trie: every class c > 0 is minted at its
  // representative (smallest member) by a link event on p, so its
  // projection is its parent class's projection plus that event.  Class
  // 0, the empty projection, has a placeholder link.
  struct ProjectionLink {
    std::uint32_t parent = 0;  // [p]-class one event shorter (< this class)
    std::uint32_t event = 0;   // event pool id
  };

  // The projection trie of p over every current [p]-class: extended on
  // demand under group_mutex_ after the space grows.  Every space's rows
  // come from the mint rule, so each class's parent class is smaller and
  // the walk cannot loop.  The span is stable until the space grows.
  std::span<const ProjectionLink> ProjectionTrie(ProcessId p) const;

  // ForEachProjection's state: the current projection (its classes and
  // events by depth), reused across classes.
  class ProjectionCursor {
   public:
    // Throws std::out_of_range unless end <= the trie's class count.
    ProjectionCursor(const ComputationSpace& space, ProcessId p,
                     std::size_t end);
    std::span<const Event> Materialize(std::size_t cls);

   private:
    const ComputationSpace& space_;
    std::span<const ProjectionLink> trie_;
    std::vector<std::uint32_t> path_;   // classes of events_, root side first
    std::vector<Event> events_;
    std::vector<std::uint32_t> chain_;  // scratch: one walk, leaf first
  };

  Successor SuccessorAt(std::uint32_t i) const {
    return Successor{succ_class_[i], event_pool_[succ_event_[i]]};
  }

  int num_processes_ = 0;
  bool truncated_ = false;
  bool canonicalize_ = true;
  int built_depth_ = 0;
  std::string system_name_;

  // Segment directory shared by the columns below.  unique_ptr keeps the
  // store's address stable across space moves (columns hold the raw
  // pointer).
  std::unique_ptr<internal::SegmentedSpaceStore> store_ =
      std::make_unique<internal::SegmentedSpaceStore>();

  // Columnar class store (see header comment).  The event pool and the
  // bucket CSR stay resident by design; everything else is segmented.
  std::vector<Event> event_pool_;
  internal::SegColumn<ClassLink> links_;
  // Canonical-form index: hashes sorted ascending, ids carried alongside —
  // segment boundaries are contiguous hash ranges (hash-prefix shards).
  internal::SegColumn<std::size_t> canon_hash_;
  internal::SegColumn<std::uint32_t> canon_id_;
  // Projection rows: num_processes_ elements per class row.
  internal::SegColumn<std::uint32_t> proj_class_;
  // CSR buckets: bucket_ids_[p][bucket_offsets_[p][cls] ..
  // bucket_offsets_[p][cls+1]) = ids of computations in [p]-class cls.
  std::vector<std::vector<std::uint32_t>> bucket_offsets_;
  std::vector<std::vector<std::uint32_t>> bucket_ids_;
  // CSR successors: parallel (class, event-pool-id) columns.
  internal::SegColumn<std::uint32_t> succ_offsets_;  // size() + 1
  internal::SegColumn<std::uint32_t> succ_class_;
  internal::SegColumn<std::uint32_t> succ_event_;
  // [G]-table cache, ordered by process mask (the order snapshots store
  // the masks in).  Always resident: the tables are derived, rebuildable
  // indexes, not part of the segmented store.  Map nodes keep the tables'
  // column buffers in place while other masks are added; the mutex guards
  // only the map and the projection tries below (tables are immutable once
  // published).  Held by unique_ptr so the space stays movable.
  mutable std::unique_ptr<std::mutex> group_mutex_ =
      std::make_unique<std::mutex>();
  mutable std::map<std::uint64_t, internal::PartitionTable> group_index_;
  // Projection tries by process (ProjectionTrie), guarded by group_mutex_
  // like the [G]-tables: derived, never saved.
  mutable std::vector<std::vector<ProjectionLink>> projection_trie_;
};

// Resumable construction surface over ComputationSpace: owns the space plus
// the BFS frontier (the per-level pending interned-id sequences and the
// incremental interner/projection state the one-shot BFS used to discard),
// so depth becomes a dial instead of a rebuild:
//
//   SpaceBuilder builder;
//   builder.Build(system, {.max_depth = 4, .allow_truncation = true});
//   ... query builder.space() ...
//   builder.Deepen(1);   // resume the BFS exactly where Build stopped
//
// Deepen is byte-identical to a fresh enumeration at the target depth —
// same class ids, canonical hashes, CSR columns, and group tables, at any
// thread count — because the resumed BFS replays the very phases a fresh
// run would have executed past the old cap, and Finalize re-derives every
// sorted/derived column in a way that is order-equivalent to the
// from-scratch construction (differential-tested in
// tests/core/space_builder_test.cc).
//
// Ingest splices an observed event stream (a sim::Trace, or a raw event
// span) into the space online: each prefix of the stream is located (or
// minted, with its splice link, projection row, canonical-index entry, and
// successor edge) without touching classes the stream cannot reach.  A
// builder that minted classes through Ingest can keep ingesting but no
// longer Deepen — ingested classes break the level-ordered frontier.
// Ingest mutates columns in place (middle insertions), so it faults the
// whole store resident first; out-of-core budgets re-apply at the next
// trim.
//
// The space lives behind a stable address: builder.space() remains valid
// across Deepen/Ingest calls, so long-lived readers (e.g. a
// KnowledgeEvaluator, which re-syncs via Refresh()) can hold the reference.
// The System passed to Build is borrowed and must outlive the builder (or
// at least every later Deepen).  Builders are single-threaded objects: no
// concurrent calls, and no space reads while a call is in flight.  A
// builder whose Build threw is in an unspecified state; rebuild it.  A
// Deepen that throws is a no-op, and an Ingest that throws keeps (and
// finalizes) the prefixes before the failing event — either way the space
// stays whole and readers need no Refresh.
//
// Snapshots: serialization.h saves a builder with its frontier so a
// served space can be loaded and then deepened;
// loading a frontier-less snapshot (a truncated space saved without its
// builder) yields a sealed builder — Ingest still works, Deepen throws.
class SpaceBuilder {
 public:
  SpaceBuilder();
  ~SpaceBuilder();
  SpaceBuilder(SpaceBuilder&&) noexcept;
  SpaceBuilder& operator=(SpaceBuilder&&) noexcept;

  // Enumerates from scratch up to limits.max_depth, retaining the frontier
  // (any previous space owned by this builder is discarded).  Equivalent to
  // Enumerate(system, limits) plus the ability to continue.
  void Build(const System& system, const EnumerationLimits& limits = {});

  // Resumes the BFS for `extra_levels` more levels from the retained
  // frontier.  Returns the number of classes minted (0 when the space is
  // already complete).  Throws on a sealed builder (no frontier), after a
  // minting Ingest, or past the 16-bit depth cap.  Truncation follows the
  // limits passed to Build: if the space is still extendable at the new
  // target and allow_truncation was not set, Deepen throws like Build.  A
  // throw leaves the builder as it was: the levels minted before it are
  // cut back and the frontier is parked again.
  std::size_t Deepen(int extra_levels = 1);

  // Splices the event stream into the space: walks the stream's prefixes,
  // locating each one's [D]-class and minting the missing ones (classes
  // reachable from the observed events only — never a whole level).
  // Returns the number of classes minted; re-ingesting a seen stream is a
  // dedup no-op returning 0.  Throws (before any mutation of the failing
  // prefix) if an event is not a legal extension of the observed prefix;
  // the prefixes before it stay, finalized, so the space is what ingesting
  // the legal prefix alone would have left.
  std::size_t Ingest(std::span<const Event> events);

  // As above, over the first `prefix_len` (default: all) recorded entries
  // of a simulator trace.
  std::size_t Ingest(const sim::Trace& trace);
  std::size_t Ingest(const sim::Trace& trace, std::size_t prefix_len);

  // The space under construction.  The reference (and the object's address)
  // stays stable across Deepen/Ingest; it is invalidated by Build and Take.
  const ComputationSpace& space() const;
  ComputationSpace& space();
  bool has_space() const noexcept { return space_ != nullptr; }

  // Depth the BFS has reached so far (space().built_depth()).
  int built_depth() const;
  // True once the BFS exhausted the system within the depth cap (no class
  // at the cap has an enabled event): Deepen becomes a 0-class no-op.
  bool complete() const noexcept { return complete_; }
  // True when the builder carries no frontier (loaded from a snapshot saved
  // without builder state): Deepen throws, Ingest still works.
  bool sealed() const noexcept { return sealed_; }
  // True when Deepen can still mint classes.
  bool CanDeepen() const noexcept {
    return space_ != nullptr && !sealed_ && !ingested_ && !complete_;
  }

  // Moves the finished space out, sealing this builder (it returns to the
  // empty state; Build starts over).
  ComputationSpace Take() &&;

 private:
  // Snapshot save/load (serialization.cc) persists the frontier fields.
  friend struct internal::SpaceSnapshotIO;

  // Transient BFS/interner state (defined in space.cc).
  struct State;

  // How the held space relates to its (absent or retained) frontier; the
  // hpl-space snapshot stores this byte verbatim.
  enum class FrontierState : std::uint8_t {
    kSealed = 0,    // no frontier persisted: query-only
    kComplete = 1,  // BFS drained: nothing left to deepen into
    kCapped = 2,    // frontier parked at built_depth: Deepen resumes it
    kIngested = 3,  // Ingest broke level order: Ingest only, no Deepen
  };

  // Wraps an existing space (loaded from a snapshot, or cut back by a
  // failed Deepen) in a builder, taking over `minter`, the extension maps
  // that minted its projection rows: reconstructs the rest of the
  // transient state — the event interner, and for kCapped the frontier
  // arena (classes [frontier_begin, size)) — by replaying the stored
  // columns in id order, which reproduces the live state byte for byte.
  void AdoptSpace(std::unique_ptr<ComputationSpace> space,
                  FrontierState frontier, std::size_t frontier_begin,
                  const System* system, const EnumerationLimits& limits,
                  ComputationSpace::ProjectionMinter minter);

  void RequireSpace(const char* what) const;
  // First class id of the parked frontier level (kCapped builders only);
  // what a snapshot stores as frontier_begin.  Lives here because State
  // is incomplete outside space.cc.
  std::size_t FrontierBegin() const;
  // The level-synchronous BFS loop: expands full levels while
  // depth < target_depth, then runs the cap pass (extendability check +
  // empty successor rows for the frontier) and returns with the frontier
  // retained — or marks the build complete when a level comes up empty,
  // the cap's own level included (no member has an enabled event).
  // Between levels it trims residency to the budget (cold segments spill
  // behind the frontier).
  void RunLevels(int target_depth, internal::WorkerPool* pool);
  // Brings every sorted/derived column up to date after RunLevels or
  // Ingest, touching only what they added: merges the new canonical-index
  // suffix, extends the per-process CSR buckets by the new rows,
  // re-derives the cached group indexes that no longer cover every id,
  // records built_depth, and drops growth slack.
  void Finalize(internal::WorkerPool* pool);

  const System* system_ = nullptr;
  EnumerationLimits limits_;
  std::unique_ptr<ComputationSpace> space_;
  std::unique_ptr<State> state_;
  bool sealed_ = false;    // no frontier (snapshot without builder state)
  bool complete_ = false;  // BFS exhausted within the depth cap
  bool capped_ = false;    // frontier parked at the depth cap
  bool ingested_ = false;  // Ingest minted classes: level order broken
};

}  // namespace hpl

#endif  // HPL_CORE_SPACE_H_
