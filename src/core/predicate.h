// Predicates on system computations (paper Section 4.1).
//
// "Let b denote a predicate on system computations... We assume x [D] y
// implies b at x = b at y" — predicate values depend only on the
// [D]-equivalence class.  Our evaluator always applies predicates to
// canonical representatives, which enforces that assumption; authors of
// predicates should still write them in terms of projections / event
// multisets, never in terms of absolute positions across processes.
//
// "b is local to p" when x [p] y implies b at x = b at y.  A predicate built
// with OnProjection is local to p by construction: its function sees only
// p's projection z_p, so there is no locality flag to trust.  The evaluator
// exploits it twice: a whole-space atom plane calls the function once per
// [p]-class instead of once per computation
// (ComputationSpace::ForEachProjection), and the kernel compiler folds
// K{P} b and M{P} b to b, and Sure{P} b to true, whenever p is in P.  The
// built-in constructors that name a process and read only its events
// (CountOnAtLeast, DidInternal) are local; Sent and Received name no
// process and stay whole-computation predicates.
#ifndef HPL_CORE_PREDICATE_H_
#define HPL_CORE_PREDICATE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/computation.h"
#include "core/types.h"

namespace hpl {

class Predicate {
 public:
  using Fn = std::function<bool(const Computation&)>;
  // A function of one process's projection (its events, in order).
  using ProjectionFn = std::function<bool(std::span<const Event>)>;

  Predicate() = default;
  Predicate(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  // A predicate local to p by construction: b at x == fn(x_p).
  static Predicate OnProjection(ProcessId p, std::string name,
                                ProjectionFn fn);

  bool Eval(const Computation& x) const {
    if (!fn_) throw ModelError("evaluating empty predicate");
    return fn_(x);
  }

  // The process this predicate is local to by construction (OnProjection),
  // or kNoProcess.
  ProcessId local_process() const noexcept { return local_process_; }
  // The verdict at any computation whose projection on local_process() is
  // `projection`.  Throws unless the predicate was built by OnProjection.
  bool EvalProjection(std::span<const Event> projection) const {
    if (!projection_fn_)
      throw ModelError("predicate '" + name_ + "' is not local to a process");
    return projection_fn_(projection);
  }

  const std::string& name() const noexcept { return name_; }
  bool valid() const noexcept { return static_cast<bool>(fn_); }

  // --- Combinators -------------------------------------------------------
  Predicate operator!() const;
  Predicate operator&&(const Predicate& other) const;
  Predicate operator||(const Predicate& other) const;
  Predicate Implies(const Predicate& other) const;

  // --- Common constructors ----------------------------------------------
  // The constant predicates (paper: "a predicate is a constant means
  // b at x = b at y for all x, y").
  static Predicate True();
  static Predicate False();

  // Number of events on p (in any linearization) compared to k.  Local to p.
  static Predicate CountOnAtLeast(ProcessId p, int k);

  // Process p has performed an internal event with this label.  Local to p.
  static Predicate DidInternal(ProcessId p, std::string label);

  // Some event with the given label exists (on any process).
  static Predicate HasLabel(std::string label);

  // Message m has been sent / received.
  static Predicate Sent(MessageId m);
  static Predicate Received(MessageId m);

  // The number of sends with label `label` that are still undelivered == 0
  // and total events equals... (helper used by termination predicates): all
  // sent messages have been received.
  static Predicate AllMessagesDelivered();

 private:
  std::string name_;
  Fn fn_;
  ProcessId local_process_ = kNoProcess;
  ProjectionFn projection_fn_;  // set iff local_process_ != kNoProcess
};

}  // namespace hpl

#endif  // HPL_CORE_PREDICATE_H_
