// Out-of-core segmented backing store for the columnar ComputationSpace.
//
// The columnar store (space.h) holds one row of a handful of flat columns
// per [D]-class.  At the 7.96M-class scale that is ~643 MB; the ROADMAP's
// 100M+-class frontier cannot assume the whole store is resident.  This
// header provides the storage layer that breaks that assumption:
//
//   SegColumn<T>          one logical column, stored as fixed-size segments
//                         (a fixed number of rows per segment) instead of
//                         one contiguous vector.  The tail segment is
//                         "open" (append-only, always resident); sealed
//                         segments are immutable and individually
//                         spillable.
//   SegmentedSpaceStore   the segment directory shared by all columns of
//                         one space: per-segment residency state (resident
//                         / mmapped / on-disk), the LRU residency budget,
//                         the spill directory, and the checksummed segment
//                         files.
//   SegmentPin            RAII residency pin: while alive, the pinned
//                         segment cannot be evicted and its base pointer is
//                         stable.  SuccessorRange and SegmentCursor
//                         (space.h) are built on it.
//
// Segment files extend the hpl-space on-disk family (magic "HPLSEGM1"):
// a fixed little-endian header carrying the column tag, segment index,
// payload byte count and an FNV-1a checksum of the payload, then the raw
// payload 8-byte aligned.  Fault-in verifies the checksum before
// publishing the data; corrupt, truncated or missing files reject with a
// ModelError naming the segment.  Fault-in prefers mmap (the segment is
// then "mapped": read-only file-backed pages the kernel can reclaim
// cleanly); hosts without mmap fall back to a heap read, which reports as
// resident.
//
// Concurrency contract: fault-in is thread-safe (concurrent readers may
// race to fault the same segment; the winner publishes, the loser reuses).
// Eviction is *cooperative*: segments are only written out / unmapped by
// explicit calls (EnforceBudget, SpillSealed) which may only run while
// every concurrent reader holds SegmentPins on the segments it is
// dereferencing — pinned segments are never evicted.  Sequential code
// (SpaceBuilder between BFS levels, single-threaded sweeps between
// cursor steps) trivially satisfies this; parallel sweeps that take
// unpinned random reads must simply not trim concurrently, and residency
// then transiently exceeds the budget until the next quiescent trim.
#ifndef HPL_CORE_SEGMENT_STORE_H_
#define HPL_CORE_SEGMENT_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "core/types.h"

namespace hpl {

// Residency configuration of one space's segment store.  The default keeps
// everything resident (exactly the pre-segmentation behavior); enumeration
// at the 100M-class scale sets a budget and lets the BFS spill cold
// segments behind the frontier.
struct SegmentOptions {
  // log2 of the class rows per segment.  Every column derives its own
  // element count from this (the projection column holds num_processes
  // elements per class, successor payloads are sized by edge count).
  // 16 -> 64Ki classes (~0.8 MB links, ~1 MB projections at 4 processes,
  // per segment).
  unsigned segment_shift = 16;
  // Soft ceiling, in bytes, on resident + mapped segment payload.  0 means
  // "no budget": nothing is ever spilled and the store behaves like the
  // old flat columns.  Enforced cooperatively (see the header comment):
  // EnforceBudget spills least-recently-used sealed, unpinned segments
  // until under it.  Open tail segments and pinned segments never spill,
  // so the effective floor is one open segment per column.
  std::uint64_t residency_budget_bytes = 0;
  // Directory for spilled segment files.  Empty -> a fresh
  // "hpl-segments-<pid>-<seq>" directory under the system temp dir,
  // removed with the store.  A caller-provided directory is created if
  // missing and left in place (only the store's own files are removed).
  std::string spill_dir;
};

namespace internal {

class SegmentedSpaceStore;

// Residency state of one segment.
enum class SegmentState : std::uint8_t {
  kResident = 0,  // heap-backed (open tail, or faulted in without mmap)
  kMapped = 1,    // read-only mmap of the spilled segment file
  kOnDisk = 2,    // spilled: only the checksummed file exists
};

// One segment's bookkeeping inside the store directory.
struct SegmentMeta {
  // Published payload base; null while kOnDisk.  Readers load-acquire and
  // take the fault-in slow path on null.
  std::atomic<const void*> data{nullptr};
  SegmentState state = SegmentState::kResident;
  bool dirty = true;        // not yet written to (or changed since) its file
  bool sealed = false;      // immutable: eligible for spilling
  std::uint32_t pins = 0;   // live SegmentPins (evict only at 0)
  std::uint64_t bytes = 0;  // payload bytes
  std::uint64_t lru_tick = 0;
  std::uint32_t faults = 0;  // fault-ins from its file, lifetime
  // Heap backing while kResident.
  std::vector<unsigned char> heap;
  // mmap backing while kMapped.
  void* map_base = nullptr;
  std::size_t map_len = 0;
  std::string file;  // spill file path ("" until first spill)
};

// RAII residency pin on one segment (see the header comment).  Default-
// constructed pins are empty no-ops, so views over always-resident storage
// skip the bookkeeping entirely.
class SegmentPin {
 public:
  SegmentPin() = default;
  SegmentPin(SegmentedSpaceStore* store, SegmentMeta* seg);
  ~SegmentPin() { Release(); }
  SegmentPin(SegmentPin&& o) noexcept : store_(o.store_), seg_(o.seg_) {
    o.store_ = nullptr;
    o.seg_ = nullptr;
  }
  SegmentPin& operator=(SegmentPin&& o) noexcept {
    if (this != &o) {
      Release();
      store_ = o.store_;
      seg_ = o.seg_;
      o.store_ = nullptr;
      o.seg_ = nullptr;
    }
    return *this;
  }
  SegmentPin(const SegmentPin&) = delete;
  SegmentPin& operator=(const SegmentPin&) = delete;

  bool empty() const noexcept { return seg_ == nullptr; }
  void Release();

 private:
  SegmentedSpaceStore* store_ = nullptr;
  SegmentMeta* seg_ = nullptr;
};

// The segment directory of one ComputationSpace: every SegColumn of the
// space registers its segments here, and spilling / fault-in / budget
// decisions are made across all of them.  Owned by the space behind a
// unique_ptr (columns hold the raw pointer, so the store address must stay
// stable across space moves).
class SegmentedSpaceStore {
 public:
  SegmentedSpaceStore() = default;
  ~SegmentedSpaceStore();
  SegmentedSpaceStore(const SegmentedSpaceStore&) = delete;
  SegmentedSpaceStore& operator=(const SegmentedSpaceStore&) = delete;

  void Configure(const SegmentOptions& options) { options_ = options; }
  const SegmentOptions& options() const noexcept { return options_; }
  bool out_of_core() const noexcept {
    return options_.residency_budget_bytes != 0;
  }

  // --- column-side interface (SegColumn) -----------------------------------

  // Registers a new segment (resident, open).  `tag` names the owning
  // column in file names and error messages; `index` is the segment's
  // position within its column.
  SegmentMeta* Register(const char* tag, std::uint32_t index);
  // Marks a segment immutable; only sealed segments spill.
  void Seal(SegmentMeta* seg);
  // Re-opens a segment for mutation (Ingest / Deepen rewind): faults it in
  // if needed, converts a mapping back to heap backing, and marks it dirty
  // so the stale spill file is rewritten on the next spill.
  void Unseal(SegmentMeta* seg);
  // Fault-in slow path: loads the segment from its spill file (mmap when
  // available, heap otherwise), verifies the checksum, publishes the base
  // pointer, and returns it.  Thread-safe.  Throws ModelError on a
  // missing, truncated, corrupt or version-skewed segment file.
  const void* FaultIn(SegmentMeta* seg);
  // Drops a segment permanently (column truncation).  Removes its file.
  void Drop(SegmentMeta* seg);
  // Records payload growth (or shrink) of an open segment.
  void Grew(SegmentMeta* seg, std::uint64_t new_bytes);

  // --- residency control (cooperative; see the header comment) -------------

  // Spills least-recently-used sealed unpinned segments until resident +
  // mapped payload fits the budget (no-op without one).  Returns the
  // number of segments spilled.
  std::size_t EnforceBudget();
  // Spills every sealed unpinned segment regardless of budget.
  std::size_t SpillSealed();
  // Faults every segment in and converts mappings to heap backing — the
  // fully-resident state the in-place mutation paths (Ingest) require.
  void MakeAllResident();

  void Pin(SegmentMeta* seg);
  void Unpin(SegmentMeta* seg);

  // --- stats ---------------------------------------------------------------

  struct Stats {
    std::size_t segments = 0;
    std::size_t resident_segments = 0;
    std::size_t mapped_segments = 0;
    std::size_t spilled_segments = 0;
    std::uint64_t bytes_resident = 0;  // heap-backed payload
    std::uint64_t bytes_mapped = 0;    // mmapped (reclaimable) payload
    std::uint64_t bytes_spilled = 0;   // on-disk-only payload
    std::uint64_t spill_faults = 0;    // fault-ins from disk, lifetime
    std::uint64_t spill_writes = 0;    // segment files written, lifetime
  };
  Stats GetStats() const;
  // Per-segment residency rows for ops debugging ({"op":"residency"}).
  struct SegmentInfo {
    std::string tag;
    std::uint32_t index = 0;
    SegmentState state = SegmentState::kResident;
    std::uint64_t bytes = 0;
    std::uint32_t pins = 0;
    std::uint32_t faults = 0;  // fault-ins from its file, lifetime
  };
  std::vector<SegmentInfo> Residency() const;

 private:
  struct Entry {
    std::string tag;
    std::uint32_t index = 0;  // segment index within its column
    std::uint64_t uid = 0;    // store-unique (file names survive column swaps)
    std::unique_ptr<SegmentMeta> meta;
  };

  std::string SpillPath(const Entry& e);
  void SpillLocked(Entry& e);
  void EnsureSpillDir();
  const void* FaultInLocked(Entry& e);
  Entry& EntryOf(SegmentMeta* seg);

  mutable std::mutex mu_;
  SegmentOptions options_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::string spill_dir_;  // resolved on first spill
  bool owns_spill_dir_ = false;
  std::uint64_t next_uid_ = 0;
  std::uint64_t lru_clock_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t writes_ = 0;
};

// One logical column stored as fixed-size segments.  T must be trivially
// copyable (raw payload on disk).  A column holds `rows` of `row_elems`
// elements each (row_elems = 1 for the plain columns, num_processes for
// the projection column); a segment holds exactly (1 << shift) rows, so a
// row never straddles segments.  The public surface mirrors the
// std::vector operations space.cc used on the flat columns; element access
// auto-faults the owning segment in.  Mutating entry points other than
// push_back/Append require the affected segments resident and unsealed
// (push_back only ever touches the open tail, which always is).
template <typename T>
class SegColumn {
 public:
  static_assert(std::is_trivially_copyable_v<T>);

  SegColumn() = default;
  ~SegColumn() { DropSegments(); }
  SegColumn(SegColumn&& o) noexcept { Steal(o); }
  SegColumn& operator=(SegColumn&& o) noexcept {
    if (this != &o) {
      DropSegments();
      Steal(o);
    }
    return *this;
  }
  SegColumn(const SegColumn&) = delete;
  SegColumn& operator=(const SegColumn&) = delete;

  // Binds the column to its store.  Must be called before any element is
  // appended; rebinding requires an empty column.
  void Bind(SegmentedSpaceStore* store, const char* tag, unsigned shift,
            std::size_t row_elems = 1) {
    if (!segs_.empty())
      throw ModelError(std::string("SegColumn<") + tag_ +
                       ">: Bind on a non-empty column");
    store_ = store;
    tag_ = tag;
    shift_ = shift;
    row_mask_ = (std::size_t{1} << shift) - 1;
    row_elems_ = row_elems;
    elems_per_seg_ = row_elems << shift;
    pow2_elems_ = (elems_per_seg_ & (elems_per_seg_ - 1)) == 0;
    elem_shift_ = 0;
    if (pow2_elems_)
      while ((std::size_t{1} << elem_shift_) < elems_per_seg_) ++elem_shift_;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t rows() const noexcept { return size_ / row_elems_; }
  unsigned shift() const noexcept { return shift_; }
  std::size_t row_elems() const noexcept { return row_elems_; }
  std::size_t num_segments() const noexcept { return segs_.size(); }

  const T& operator[](std::size_t i) const {
    const std::size_t s = SegOf(i);
    return Base(s)[i - s * elems_per_seg_];
  }
  const T& back() const { return (*this)[size_ - 1]; }

  // Row base pointer: the row's `row_elems` elements are contiguous.
  const T* Row(std::size_t row) const {
    return Base(row >> shift_) + (row & row_mask_) * row_elems_;
  }

  // Mutable element access: requires the segment resident AND unsealed
  // (the open tail, or explicitly unsealed via UnsealAll — the
  // Ingest/rewind paths).  Marks the segment dirty.
  T& Mut(std::size_t i) {
    const std::size_t s = SegOf(i);
    auto* seg = segs_[s];
    if (seg->state != SegmentState::kResident || seg->sealed)
      throw ModelError(std::string("SegColumn<") + tag_ +
                       ">: mutation of a sealed or non-resident segment " +
                       std::to_string(s) + " (call UnsealAll first)");
    seg->dirty = true;
    return reinterpret_cast<T*>(seg->heap.data())[i - s * elems_per_seg_];
  }

  void push_back(const T& v) { Append(&v, 1); }

  // Appends `n` elements, segment-wise (the bulk path for snapshot load
  // and projection-row appends).
  void Append(const T* src, std::size_t n) {
    while (n > 0) {
      SegmentMeta* seg = OpenTail();
      const std::size_t have = seg->heap.size() / sizeof(T);
      const std::size_t take = std::min(n, elems_per_seg_ - have);
      seg->heap.resize((have + take) * sizeof(T));
      std::memcpy(seg->heap.data() + have * sizeof(T), src, take * sizeof(T));
      store_->Grew(seg, seg->heap.size());
      seg->data.store(seg->heap.data(), std::memory_order_release);
      src += take;
      n -= take;
      size_ += take;
    }
  }

  // Shrinks to `n` elements (n <= size, row-aligned).  Segments beyond n
  // are dropped (their files removed); the new tail segment is re-opened
  // for appends.
  void Truncate(std::size_t n) {
    if (n > size_)
      throw ModelError(std::string("SegColumn<") + tag_ +
                       ">: Truncate beyond size");
    const std::size_t keep_segs = n == 0 ? 0 : (n - 1) / elems_per_seg_ + 1;
    while (segs_.size() > keep_segs) {
      store_->Drop(segs_.back());
      segs_.pop_back();
    }
    if (!segs_.empty()) {
      auto* seg = segs_.back();
      store_->Unseal(seg);
      seg->heap.resize((n - (segs_.size() - 1) * elems_per_seg_) * sizeof(T));
      store_->Grew(seg, seg->heap.size());
      seg->data.store(seg->heap.data(), std::memory_order_release);
    }
    size_ = n;
  }

  void clear() { Truncate(0); }

  // O(size - pos) element shift; requires the column resident (the Ingest
  // paths call MakeAllResident + UnsealAll first; Insert re-unseals after
  // a tail rollover).
  void Insert(std::size_t pos, const T& v) {
    if (size_ == 0 || pos == size_) {
      push_back(v);
      return;
    }
    push_back(back());  // may seal the old tail while opening a new one
    UnsealAll();
    for (std::size_t i = size_ - 1; i > pos; --i) Mut(i) = (*this)[i - 1];
    Mut(pos) = v;
  }

  // Unseals every segment for in-place mutation (faulting them resident).
  void UnsealAll() {
    for (auto* seg : segs_) store_->Unseal(seg);
  }
  // Re-seals everything but the open tail after an UnsealAll edit pass.
  void SealAllButTail() {
    for (std::size_t s = 0; s + 1 < segs_.size(); ++s) store_->Seal(segs_[s]);
  }

  // Pins segment `s` (so it cannot be evicted), then faults it in and
  // returns its base pointer — stable while the pin lives.  The pin is
  // taken before the pointer is resolved to close the window against a
  // concurrent EnforceBudget.
  const T* PinSegment(std::size_t s, SegmentPin* pin) const {
    *pin = SegmentPin(store_, segs_[s]);
    return Base(s);
  }

  // Element range [begin, end) held by segment `s`.
  std::size_t SegmentBegin(std::size_t s) const noexcept {
    return s * elems_per_seg_;
  }
  std::size_t SegmentEnd(std::size_t s) const noexcept {
    return std::min(size_, (s + 1) * elems_per_seg_);
  }
  std::size_t SegOf(std::size_t i) const noexcept {
    return pow2_elems_ ? i >> elem_shift_ : i / elems_per_seg_;
  }

  // Copies [first, first + n) into `out` (faulting segments as needed) —
  // the bulk-read path for serialization.
  void CopyOut(std::size_t first, std::size_t n, T* out) const {
    std::size_t i = first;
    while (n > 0) {
      const std::size_t s = SegOf(i);
      const std::size_t in_seg = std::min(n, SegmentEnd(s) - i);
      std::memcpy(out, Base(s) + (i - s * elems_per_seg_), in_seg * sizeof(T));
      i += in_seg;
      out += in_seg;
      n -= in_seg;
    }
  }

  // Logical payload bytes (independent of residency).
  std::size_t ByteSize() const noexcept { return size_ * sizeof(T); }

 private:
  const T* Base(std::size_t s) const {
    auto* seg = segs_[s];
    const void* p = seg->data.load(std::memory_order_acquire);
    if (p == nullptr) p = store_->FaultIn(seg);
    return static_cast<const T*>(p);
  }

  SegmentMeta* OpenTail() {
    if (segs_.empty() ||
        segs_.back()->heap.size() / sizeof(T) == elems_per_seg_) {
      if (!segs_.empty()) store_->Seal(segs_.back());
      segs_.push_back(
          store_->Register(tag_, static_cast<std::uint32_t>(segs_.size())));
      segs_.back()->heap.reserve(elems_per_seg_ * sizeof(T));
    }
    return segs_.back();
  }

  void DropSegments() {
    if (store_ != nullptr)
      for (auto* seg : segs_) store_->Drop(seg);
    segs_.clear();
    size_ = 0;
  }

  void Steal(SegColumn& o) noexcept {
    store_ = o.store_;
    tag_ = o.tag_;
    shift_ = o.shift_;
    row_mask_ = o.row_mask_;
    row_elems_ = o.row_elems_;
    elems_per_seg_ = o.elems_per_seg_;
    pow2_elems_ = o.pow2_elems_;
    elem_shift_ = o.elem_shift_;
    size_ = o.size_;
    segs_ = std::move(o.segs_);
    o.segs_.clear();
    o.size_ = 0;
  }

  SegmentedSpaceStore* store_ = nullptr;
  const char* tag_ = "?";
  unsigned shift_ = 16;
  std::size_t row_mask_ = (std::size_t{1} << 16) - 1;
  std::size_t row_elems_ = 1;
  std::size_t elems_per_seg_ = std::size_t{1} << 16;
  bool pow2_elems_ = true;
  unsigned elem_shift_ = 16;
  std::size_t size_ = 0;             // elements
  std::vector<SegmentMeta*> segs_;  // owned by the store
};

}  // namespace internal
}  // namespace hpl

#endif  // HPL_CORE_SEGMENT_STORE_H_
