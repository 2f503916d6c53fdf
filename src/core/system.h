// A System describes *which* computations a distributed system can perform.
//
// The paper fixes "a single (generic) distributed system" and quantifies
// knowledge over all of its computations.  We make that set explicit: a
// System enumerates, for any computation x it admits, the events e such
// that (x; e) is also a computation of the system.  Knowledge evaluation
// requires the full computation set, so systems used with knowledge must be
// *finite* (the generator eventually returns no events on every branch).
#ifndef HPL_CORE_SYSTEM_H_
#define HPL_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/computation.h"
#include "core/types.h"

namespace hpl {

class System {
 public:
  virtual ~System() = default;

  // Number of processes; process ids are 0 .. NumProcesses()-1.
  virtual int NumProcesses() const = 0;

  // All events e such that (x; e) is a computation of the system.  Must be
  // deterministic in x (same x -> same event list) and consistent with
  // prefix closure.  `x` is always a computation previously generated from
  // the empty computation through this function.
  virtual std::vector<Event> EnabledEvents(const Computation& x) const = 0;

  // EnabledEvents of the computation the interned-id row `x` stands for,
  // read without materializing it: replaces the contents of `out` with
  // exactly EnabledEvents(Computation of x's events), in the same order.
  // The space builder asks this of every frontier member, from several
  // threads at once, so an override must be as pure and thread-safe as
  // EnabledEvents.  The default adapter copies the row into a per-thread
  // buffer it reuses and calls EnabledEvents; a system that can read its
  // state off the row overrides it and skips the copy.
  virtual void EnabledEventsAt(EventRow x, std::vector<Event>& out) const;

  // Human-readable name for diagnostics and experiment tables.
  virtual std::string Name() const = 0;

  ProcessSet AllProcesses() const { return ProcessSet::All(NumProcesses()); }
};

// A system given by explicit computations.  Per the paper's model, a
// process is characterized by its *set of process computations*; we derive
// those sets from the projections of the given computations, and the system
// then admits every interleaving compatible with them (prefix closure and
// the receive-after-send rule included).  Handy for small worked examples.
class ExplicitSystem : public System {
 public:
  // `maximal` lists computations whose projections define each process.
  ExplicitSystem(int num_processes, std::vector<Computation> maximal,
                 std::string name = "explicit");

  int NumProcesses() const override { return num_processes_; }
  std::vector<Event> EnabledEvents(const Computation& x) const override;
  std::string Name() const override { return name_; }

 private:
  int num_processes_;
  std::vector<Computation> maximal_;
  // Per process: the projections of the given computations (each a process
  // computation; prefix closure is implicit in EnabledEvents).
  std::vector<std::vector<std::vector<Event>>> projections_;
  std::string name_;
};

// A system defined by a stateless enabled-events function.  The lightest
// way to describe protocol state machines for enumeration.
class LambdaSystem : public System {
 public:
  using Generator = std::function<std::vector<Event>(const Computation&)>;

  LambdaSystem(int num_processes, Generator generator,
               std::string name = "lambda")
      : num_processes_(num_processes),
        generator_(std::move(generator)),
        name_(std::move(name)) {}

  int NumProcesses() const override { return num_processes_; }
  std::vector<Event> EnabledEvents(const Computation& x) const override {
    return generator_(x);
  }
  std::string Name() const override { return name_; }

 private:
  int num_processes_;
  Generator generator_;
  std::string name_;
};

}  // namespace hpl

#endif  // HPL_CORE_SYSTEM_H_
