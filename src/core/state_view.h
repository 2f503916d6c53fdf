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
// abstraction can forget history, its relation is *coarser* than (or equal
// to) the computation relation [P] — so state-based knowledge implies
// computation-based knowledge, never the reverse.  StateKnowledgeEvaluator
// model-checks the same Formula language under the coarser relation, which
// lets the tests confirm the Discussion's claim that the transfer theorems
// survive the generalization.
#ifndef HPL_CORE_STATE_VIEW_H_
#define HPL_CORE_STATE_VIEW_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/formula.h"
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

// Precomputed state classes over an enumerated space.
class StateView {
 public:
  StateView(const ComputationSpace& space, StateAbstraction abstraction);

  const ComputationSpace& space() const noexcept { return space_; }
  const StateAbstraction& abstraction() const noexcept {
    return abstraction_;
  }

  // Dense id of p's state in computation `id`.
  std::uint32_t StateClass(std::size_t id, ProcessId p) const {
    return classes_.at(id * space_.num_processes() + p);
  }

  // a ~P b under state isomorphism.
  bool StateIsomorphic(std::size_t a, std::size_t b, ProcessSet set) const;

  // Iterate all y state-isomorphic to id w.r.t. set.
  void ForEachStateIsomorphic(
      std::size_t id, ProcessSet set,
      const std::function<void(std::size_t)>& fn) const;

  // True iff the abstraction's relation equals [P] on this space for every
  // process (i.e. the abstraction loses nothing here).
  bool IsLossless() const;

 private:
  const ComputationSpace& space_;
  StateAbstraction abstraction_;
  std::vector<std::uint32_t> classes_;
  // buckets_[p][cls] = ids sharing p-state cls.
  std::vector<std::vector<std::vector<std::uint32_t>>> buckets_;
};

// Model checker under state-based isomorphism.  Supports the same formula
// language as KnowledgeEvaluator except CK (compute it via
// EveryoneIterated if needed — the fixpoint machinery is identical and
// omitted here for clarity).
class StateKnowledgeEvaluator {
 public:
  explicit StateKnowledgeEvaluator(const StateView& view);

  bool Holds(const FormulaPtr& f, std::size_t id);
  bool Knows(ProcessSet p, const Predicate& b, std::size_t id);
  bool IsLocalTo(const Predicate& b, ProcessSet p);

 private:
  // `f` is canonical: its children are too, so the memo below sees one
  // row per distinct subformula however many times callers rebuild it.
  bool Eval(const Formula* f, std::size_t id);

  const StateView& view_;
  FormulaInterner interner_;
  // Per canonical node: 0 = not evaluated, 1 = false, 2 = true, per id.
  std::unordered_map<const Formula*, std::vector<std::uint8_t>> cache_;
};

}  // namespace hpl

#endif  // HPL_CORE_STATE_VIEW_H_
