// State-based isomorphism (paper Section 6, Discussion):
//
//   "A number of generalizations of this work are possible: we can define
//    isomorphism based on states of processes, rather than computations
//    ... Most of the results in this paper are applicable in the first
//    case."
//
// A StateAbstraction maps each process's computation (its projection) to
// an opaque state; two system computations are state-isomorphic w.r.t. P
// when every process in P is in the same state in both.  Because a state
// is a function of the projection, its relation is *coarser* than (or
// equal to) the computation relation [P] — so state-based knowledge
// implies computation-based knowledge, never the reverse.  A StateView is
// a partition source for the one knowledge engine: KnowledgeEvaluator(view)
// model-checks the whole Formula language, common knowledge included,
// under the coarser relation, with the same memo tiers and kernels as
// computation-based knowledge — which lets the tests confirm the
// Discussion's claim that the transfer theorems survive the
// generalization.
#ifndef HPL_CORE_STATE_VIEW_H_
#define HPL_CORE_STATE_VIEW_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/space.h"

namespace hpl {

class StateAbstraction {
 public:
  // Maps (process, its projection) to a state key.  Keys compare by value;
  // equal keys mean "same local state".
  using Fn = std::function<std::string(ProcessId, std::span<const Event>)>;

  StateAbstraction(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  std::string StateOf(ProcessId p, std::span<const Event> projection) const {
    return fn_(p, projection);
  }
  const std::string& name() const noexcept { return name_; }

  // The finest abstraction: state = entire local history.  Its relation
  // coincides with [P], making the two evaluators provably equal.
  static StateAbstraction FullHistory();

  // Forgetful abstractions used by tests and benches:
  // State = number of events performed (forgets which).
  static StateAbstraction EventCount();
  // State = multiset signature of labels seen (forgets order).
  static StateAbstraction LabelBag();
  // State = the last event only (a 1-event sliding window).
  static StateAbstraction LastEvent();

 private:
  std::string name_;
  Fn fn_;
};

// Precomputed state partitions over an enumerated space: per process, a
// dense state class per class id (numbered by first occurrence) and a CSR
// bucket column; per multi-process group, the common refinement of the
// member partitions, built on first use and cached.  The view covers the
// space as it was at construction; after a SpaceBuilder Deepen or Ingest,
// build a new one.
class StateView {
 public:
  StateView(const ComputationSpace& space, StateAbstraction abstraction);

  StateView(const StateView&) = delete;
  StateView& operator=(const StateView&) = delete;

  const ComputationSpace& space() const noexcept { return space_; }
  const StateAbstraction& abstraction() const noexcept {
    return abstraction_;
  }
  // Number of class ids the view covers (space().size() at construction).
  std::size_t size() const noexcept { return size_; }

  // Dense id of p's state in computation `id`.
  std::uint32_t StateClass(std::size_t id, ProcessId p) const {
    return tables_.at(static_cast<std::size_t>(p)).cls.at(id);
  }

  // a ~P b under state isomorphism.
  bool StateIsomorphic(std::size_t a, std::size_t b, ProcessSet set) const;

  // The state partition of `g` (equal states on every member) as a
  // Partition view, valid for the view's lifetime.  Throws ModelError when
  // `g` is empty or names a process outside the system.  Thread-safe.
  Partition PartitionOf(ProcessSet g) const;

  // True iff the abstraction's relation equals [p] on this space for every
  // process (i.e. the abstraction loses nothing here).
  bool IsLossless() const;

 private:
  // One partition: class per id plus its CSR buckets.
  struct Table {
    std::vector<std::uint32_t> cls;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> ids;

    Partition View() const {
      return Partition(cls.data(), offsets, ids.data());
    }
  };

  const ComputationSpace& space_;
  StateAbstraction abstraction_;
  std::size_t size_ = 0;
  std::vector<Table> tables_;  // per process
  // Multi-process tables keyed by group bits; unique_ptr values keep their
  // addresses stable, and the mutex guards only the map.
  mutable std::mutex group_mutex_;
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<Table>> groups_;
};

}  // namespace hpl

#endif  // HPL_CORE_STATE_VIEW_H_
