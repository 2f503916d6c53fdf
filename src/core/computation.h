// System computations (paper Section 2).
//
// A *system computation* z is a finite sequence of events over the system's
// processes such that
//   (1) the projection z_p on every process p is a process computation, and
//   (2) every receive event in z has a corresponding send event occurring
//       earlier in z (same message id, matching endpoints).
// System computations are prefix closed; Computation validates (2) and the
// message-pairing discipline at construction time and is immutable
// afterwards, so a Computation value *is* evidence of well-formedness.
//
// Notation from the paper implemented here:
//   z_p        -> Projection(p)
//   y <= z     -> IsPrefixOf
//   (y, z)     -> SuffixAfter (events of z with prefix y removed)
//   (y; z)     -> Concat / Extended
//   x [D] y    -> IsPermutationOf (same events, possibly reordered)
#ifndef HPL_CORE_COMPUTATION_H_
#define HPL_CORE_COMPUTATION_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/event.h"
#include "core/types.h"

namespace hpl {

class Computation {
 public:
  // The empty computation ("null" in the paper).
  Computation() = default;

  // Validates the sequence; throws ModelError if it is not a system
  // computation.
  explicit Computation(std::vector<Event> events);

  // Builds without validation.  Only for internal use on sequences already
  // known valid (e.g. prefixes of a valid computation).
  static Computation TrustedFromEvents(std::vector<Event> events);

  // Moves the event sequence out, leaving this computation empty — lets a
  // streaming reader recycle one buffer across TrustedFromEvents calls.
  std::vector<Event> TakeEvents() && {
    std::vector<Event> out = std::move(events_);
    events_.clear();
    return out;
  }

  const std::vector<Event>& events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  const Event& at(std::size_t i) const { return events_.at(i); }

  // z_p: the subsequence of events on process p.  (A projection is a
  // *process* computation, not a system computation, so it is returned as a
  // plain sequence.)
  std::vector<Event> Projection(ProcessId p) const;

  // Projection onto a set of processes, preserving order.
  std::vector<Event> ProjectionOnSet(ProcessSet set) const;

  // Number of events on process p (cheaper than Projection(p).size()).
  int CountOn(ProcessId p) const;

  // The set of processes that have at least one event in this computation.
  ProcessSet ActiveProcesses() const;

  // y <= z : y is a prefix of z (literal sequence prefix, as in the paper).
  bool IsPrefixOf(const Computation& z) const;

  // (y, z): the suffix of z after removing prefix y.  Throws if y is not a
  // prefix of z.
  std::vector<Event> SuffixAfter(const Computation& y) const;

  // (this; e): extension by one event, validated.
  Computation Extended(const Event& e) const;

  // (this; tail): concatenation, validated.
  Computation Concat(std::span<const Event> tail) const;

  // The prefix consisting of the first n events.
  Computation Prefix(std::size_t n) const;

  // x [D] y for the full process set: same events as a multiset *and*
  // identical per-process projections (the paper: x [D] y, x != y implies y
  // is a permutation of x).  Implemented as equality of canonical forms.
  bool IsPermutationOf(const Computation& other) const;

  // Deterministic canonical linearization of the event partial order: the
  // unique greedy topological order that always emits the eligible event of
  // the lowest-id process first.  Two computations are [D]-equivalent iff
  // their canonical forms are equal, so canonical forms make [D]-classes
  // hashable.
  Computation Canonical() const;

  // Canonical form of (*this; e), computed incrementally.  REQUIRES *this to
  // already be in canonical order (events() == Canonical().events()); then
  // Canonical() of the extension keeps every existing event in place —
  // nothing depends on the appended event — so the result is this sequence
  // with `e` spliced in at its greedy emission point.  One O(n) pass, no
  // per-process queues or hash sets; equal to Extended(e).Canonical() by
  // construction.  The enumeration hot loop lives on this.
  Computation CanonicalExtended(const Event& e) const;

  // The splice point of CanonicalExtended without building the extension:
  // the index at which the greedy scheduler emits `e` when it is appended to
  // this (canonically ordered) sequence.  CanonicalExtended(e) ==
  // events()[0, pos) ++ e ++ events()[pos, size()).  The columnar space
  // store records (parent, event, pos) per class and replays these splices
  // to materialize canonical sequences.  Forwards to the range template
  // hpl::CanonicalInsertPos below.
  std::size_t CanonicalInsertPos(const Event& e) const;

  // Stable structural hash of the canonical form.
  std::size_t CanonicalHash() const;

  // Stable structural hash of the literal sequence (order-sensitive).
  std::size_t SequenceHash() const;

  // Hash of the projection on p (order-sensitive); x [p] y iff the
  // projections are equal, and equal projections share this hash.
  std::size_t ProjectionHash(ProcessId p) const;

  // Index of the send event corresponding to the receive at index i, or
  // nullopt if event i is not a receive.  O(1) after construction.
  std::optional<std::size_t> CorrespondingSend(std::size_t i) const;

  bool operator==(const Computation& other) const {
    return events_ == other.events_;
  }

  std::string ToString() const;

 private:
  void Validate() const;
  std::vector<Event> events_;
};

// A read-only view of a computation held as interned event ids: element i
// is pool[ids[i]].  The space builder keeps its BFS frontier in this form,
// so EventRow lets System::EnabledEventsAt and the range templates below
// read a frontier member without copying its events into a Computation.
class EventRow {
 public:
  EventRow(std::span<const std::uint32_t> ids,
           std::span<const Event> pool) noexcept
      : ids_(ids), pool_(pool) {}

  std::size_t size() const noexcept { return ids_.size(); }
  const Event& operator[](std::size_t i) const { return pool_[ids_[i]]; }

  std::span<const std::uint32_t> ids() const noexcept { return ids_; }
  std::span<const Event> pool() const noexcept { return pool_; }

 private:
  std::span<const std::uint32_t> ids_;
  std::span<const Event> pool_;
};

// Checks whether appending `e` to the event sequence `x` yields a valid
// system computation without constructing it.  `x` is any random-access
// event range (size() and operator[] yielding const Event&): a
// Computation's events(), an EventRow, a span.  On failure `why` (when
// given) names the broken rule.
template <typename Events>
bool CanExtend(const Events& x, const Event& e, std::string* why = nullptr) {
  const auto fail = [why](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (e.process < 0 || e.process >= kMaxProcesses)
    return fail("bad process id");
  switch (e.kind) {
    case EventKind::kInternal:
      return true;
    case EventKind::kSend: {
      if (e.message == kNoMessage) return fail("send without message id");
      if (e.peer == e.process) return fail("self-send");
      if (e.peer < 0 || e.peer >= kMaxProcesses)
        return fail("send to bad process");
      for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i].IsSend() && x[i].message == e.message)
          return fail("message sent twice");
      return true;
    }
    case EventKind::kReceive: {
      const Event* send = nullptr;
      for (std::size_t i = 0; i < x.size(); ++i) {
        const Event& prev = x[i];
        if (prev.IsSend() && prev.message == e.message) send = &prev;
        if (prev.IsReceive() && prev.message == e.message)
          return fail("message received twice");
      }
      if (send == nullptr) return fail("receive without earlier send");
      if (send->peer != e.process || send->process != e.peer)
        return fail("receive endpoints do not match send");
      if (send->label != e.label)
        return fail("receive label differs from send");
      return true;
    }
  }
  return fail("unknown event kind");
}

inline bool CanExtend(const Computation& x, const Event& e,
                      std::string* why = nullptr) {
  return CanExtend(x.events(), e, why);
}

// The index at which the greedy scheduler of Computation::Canonical emits
// `e` when it is appended to the canonically ordered event range `x` (any
// random-access range, as for CanExtend); Computation::CanonicalInsertPos
// forwards here.
//
// The scheduler sweeps processes 0..P-1 and drains every eligible event, so
// within one sweep emitted process ids are non-decreasing; a new sweep
// begins exactly where they decrease.  `e` is eligible right after its last
// dependency `dep` (its process predecessor and, for a receive, its send),
// and is emitted at the next moment the sweep pointer reaches e.process:
// after the run of events that follow `dep` in dep's sweep with process <=
// e.process — or, if the pointer has already passed e.process in that
// sweep, after the matching prefix run of the next sweep as well.  Sweep
// boundaries are read off adjacent pairs as the scan passes them, so the
// position costs two passes over `x` and no allocation.
template <typename Events>
std::size_t CanonicalInsertPos(const Events& x, const Event& e) {
  const std::size_t n = x.size();
  std::size_t dep = n;  // n = no dependency: eligible before anything
  for (std::size_t i = n; i-- > 0;) {
    const Event& f = x[i];
    if (f.process == e.process ||
        (e.IsReceive() && f.IsSend() && f.message == e.message)) {
      dep = i;
      break;
    }
  }
  const auto sweep_starts = [&](std::size_t i) {
    return i > 0 && x[i].process < x[i - 1].process;
  };
  // dep == n: the pointer begins sweep 0 at process 0.
  std::size_t pos = dep == n ? 0 : dep + 1;
  if (dep != n && e.process < x[dep].process) {
    // The pointer already passed e.process in dep's sweep: skip the rest
    // of that sweep first; the next sweep's prefix run follows.
    while (pos < n && !sweep_starts(pos)) ++pos;
    if (pos == n || x[pos].process > e.process) return pos;
    ++pos;
  }
  while (pos < n && !sweep_starts(pos) && x[pos].process <= e.process) ++pos;
  return pos;
}

// The order-sensitive fold behind Computation::SequenceHash, exposed so the
// columnar space store can hash a sequence it holds as interned event ids
// (folding precomputed per-event hashes) without materializing Event values:
//   SequenceHashFold fold(sequence length);
//   for each event: fold.Add(HashEvent(event));
//   fold.hash() == Computation(events...).SequenceHash()
class SequenceHashFold {
 public:
  explicit SequenceHashFold(std::size_t count) noexcept : h_(count) {}
  void Add(std::size_t event_hash) noexcept {
    h_ ^= event_hash + 0x9e3779b97f4a7c15ull + (h_ << 6) + (h_ >> 2);
  }
  std::size_t hash() const noexcept { return h_; }

 private:
  std::size_t h_;
};

}  // namespace hpl

#endif  // HPL_CORE_COMPUTATION_H_
