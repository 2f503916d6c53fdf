// Crash faults in the formal model (paper Section 5).
//
// The paper's failure model is crash-silence: "the process does not send
// messages after its failure."  We reify a crash as an internal event with
// the distinguished label kCrashLabel on the failing process.  That makes a
// failure pattern part of the computation itself — two runs that differ
// only in who crashed are different computations — while keeping the
// epistemics honest: an internal event is invisible to every other process,
// so no process can distinguish a crashed peer from a merely slow one
// without a message.  (That indistinguishability is exactly the Section-5
// lower-bound argument, and it is why the heartbeat detector must trade
// false suspicion against latency.)
//
// CrashFaultSystem wraps any base System with crash events: up to
// `max_crashes` processes may crash, a crashed process performs no further
// events, and the base system is consulted on the computation with the
// crash markers stripped (the underlying protocol does not branch on them).
// ComputationSpace::Enumerate over the wrapper therefore enumerates runs
// *with failure patterns*, and the "correct processes of this run" become a
// per-class group — dynamic group membership that FailurePatternIndex
// recovers and CommonAmongCorrect feeds to the [G]-layer one static group
// per distinct pattern.
#ifndef HPL_CORE_FAULTS_H_
#define HPL_CORE_FAULTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/computation.h"
#include "core/formula.h"
#include "core/knowledge.h"
#include "core/space.h"
#include "core/system.h"
#include "core/types.h"

namespace hpl {

// Labels shared with the simulator (sim::Simulator records the same labels
// when a process crashes or recovers), so ingested traces and enumerated
// fault spaces agree on what a crash looks like.
inline constexpr const char kCrashLabel[] = "crash";
inline constexpr const char kRecoverLabel[] = "recover";

// The crash of process p as a model event.
Event CrashEvent(ProcessId p);
bool IsCrashEvent(const Event& e);
bool IsRecoverEvent(const Event& e);
bool IsFaultMarker(const Event& e);

// Processes crashed (and not since recovered) at the end of x.
ProcessSet CrashedIn(const Computation& x);
// The correct processes of x: those that never crashed, plus any that
// recovered.  Per the paper's per-computation view, "correct" is a property
// of the whole run, evaluated here at its current end.
ProcessSet CorrectIn(const Computation& x, int num_processes);

struct CrashFaultOptions {
  // Maximum number of crash events (the f of "f < n/2").
  int max_crashes = 1;
  // Which processes may crash; empty means all of them.
  ProcessSet may_crash;
};

// A base system extended with crash events.  Enumeration interleaves every
// failure pattern with every base schedule, so the resulting space contains
// each base run once per compatible pattern.
class CrashFaultSystem : public System {
 public:
  // Borrowed base; must outlive this wrapper.
  CrashFaultSystem(const System& base, CrashFaultOptions options = {});
  // Owning variant for composed pipelines (e.g. the CLI's --crash flag).
  CrashFaultSystem(std::unique_ptr<const System> base,
                   CrashFaultOptions options = {});

  int NumProcesses() const override { return base_->NumProcesses(); }
  std::vector<Event> EnabledEvents(const Computation& x) const override;
  // Hands the base the row's ids minus the fault markers, so a base that
  // overrides the hook reads the stripped run without a copy either.
  void EnabledEventsAt(EventRow x, std::vector<Event>& out) const override;
  std::string Name() const override;

  const CrashFaultOptions& options() const noexcept { return options_; }

 private:
  // Applies the failure model to the base's enabled events of a run whose
  // crashed processes are `crashed`, in place.
  void AddFaults(ProcessSet crashed, std::vector<Event>& enabled) const;

  std::unique_ptr<const System> owned_;
  const System* base_;
  CrashFaultOptions options_;
};

// Per-class failure patterns of an enumerated (or ingested) space: which
// processes have crashed in each [D]-class.  Computed in one pass over the
// successor CSR from the root, so it costs O(edges) regardless of depth.
class FailurePatternIndex {
 public:
  explicit FailurePatternIndex(const ComputationSpace& space);

  std::size_t size() const noexcept { return crashed_.size(); }
  ProcessSet CrashedAt(std::size_t id) const {
    return ProcessSet::FromBits(crashed_.at(id));
  }
  ProcessSet CorrectAt(std::size_t id) const {
    return CrashedAt(id).ComplementIn(all_);
  }
  ProcessSet AllProcesses() const noexcept { return all_; }
  // Distinct crash masks present in the space, ascending (the first is
  // always 0: the root has no crashes).
  const std::vector<std::uint64_t>& patterns() const noexcept {
    return patterns_;
  }

 private:
  std::vector<std::uint64_t> crashed_;
  std::vector<std::uint64_t> patterns_;
  ProcessSet all_;
};

// Per-class verdicts of "f is common knowledge among the correct processes
// of this computation": CK_{CorrectAt(id)}(f) at each id.  The dynamic
// group is resolved by issuing one static-group query per distinct failure
// pattern, which mints (and stresses) one [G]-index per pattern in the
// evaluator's group memo tier.  Classes where every process has crashed get
// verdict false by convention (an empty group knows nothing in common).
std::vector<std::uint8_t> CommonAmongCorrect(KnowledgeEvaluator& eval,
                                             const FailurePatternIndex& index,
                                             const FormulaPtr& f);

// Same resolution for "every correct process knows f": E_{CorrectAt(id)}(f).
std::vector<std::uint8_t> EveryoneCorrectKnows(KnowledgeEvaluator& eval,
                                               const FailurePatternIndex& index,
                                               const FormulaPtr& f);

}  // namespace hpl

#endif  // HPL_CORE_FAULTS_H_
