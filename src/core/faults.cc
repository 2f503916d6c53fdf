#include "core/faults.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

namespace hpl {

Event CrashEvent(ProcessId p) { return Internal(p, kCrashLabel); }

bool IsCrashEvent(const Event& e) {
  return e.IsInternal() && e.label == kCrashLabel;
}

bool IsRecoverEvent(const Event& e) {
  return e.IsInternal() && e.label == kRecoverLabel;
}

bool IsFaultMarker(const Event& e) {
  return IsCrashEvent(e) || IsRecoverEvent(e);
}

namespace {

template <typename Events>
ProcessSet CrashedInRange(const Events& x) {
  ProcessSet crashed;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Event& e = x[i];
    if (IsCrashEvent(e))
      crashed.Insert(e.process);
    else if (IsRecoverEvent(e))
      crashed.Erase(e.process);
  }
  return crashed;
}

}  // namespace

ProcessSet CrashedIn(const Computation& x) {
  return CrashedInRange(x.events());
}

ProcessSet CorrectIn(const Computation& x, int num_processes) {
  return CrashedIn(x).ComplementIn(ProcessSet::All(num_processes));
}

CrashFaultSystem::CrashFaultSystem(const System& base,
                                   CrashFaultOptions options)
    : base_(&base), options_(options) {
  if (options_.max_crashes < 0)
    throw ModelError("CrashFaultSystem: max_crashes < 0");
  if (options_.may_crash.IsEmpty())
    options_.may_crash = base_->AllProcesses();
}

CrashFaultSystem::CrashFaultSystem(std::unique_ptr<const System> base,
                                   CrashFaultOptions options)
    : owned_(std::move(base)), base_(owned_.get()), options_(options) {
  if (!base_) throw ModelError("CrashFaultSystem: null base system");
  if (options_.max_crashes < 0)
    throw ModelError("CrashFaultSystem: max_crashes < 0");
  if (options_.may_crash.IsEmpty())
    options_.may_crash = base_->AllProcesses();
}

std::vector<Event> CrashFaultSystem::EnabledEvents(const Computation& x) const {
  // The base system never sees fault markers: it is asked about the run
  // with them stripped, which by induction is a run it generated itself.
  std::vector<Event> stripped;
  stripped.reserve(x.size());
  for (const Event& e : x.events())
    if (!IsFaultMarker(e)) stripped.push_back(e);
  std::vector<Event> enabled = base_->EnabledEvents(
      Computation::TrustedFromEvents(std::move(stripped)));
  AddFaults(CrashedIn(x), enabled);
  return enabled;
}

void CrashFaultSystem::EnabledEventsAt(EventRow x,
                                       std::vector<Event>& out) const {
  // The stripped run as an id row over the same pool.  The buffer is moved
  // out for the call, so a wrapped wrapper strips into a buffer of its own.
  thread_local std::vector<std::uint32_t> buffer;
  std::vector<std::uint32_t> ids = std::move(buffer);
  ids.clear();
  for (std::size_t i = 0; i < x.size(); ++i)
    if (!IsFaultMarker(x[i])) ids.push_back(x.ids()[i]);
  base_->EnabledEventsAt(EventRow(ids, x.pool()), out);
  buffer = std::move(ids);
  AddFaults(CrashedInRange(x), out);
}

void CrashFaultSystem::AddFaults(ProcessSet crashed,
                                 std::vector<Event>& enabled) const {
  // Crash-silence: a crashed process performs nothing, and nobody can
  // receive what a crashed process would have sent — but messages sent
  // *before* the crash stay deliverable (receives are events of the
  // receiver, which CanExtend already guarantees have a matching send).
  std::erase_if(enabled,
                [&](const Event& e) { return crashed.Contains(e.process); });
  // The adversary may crash any still-correct candidate while the failure
  // budget lasts.  Ascending process order keeps EnabledEvents
  // deterministic, which enumeration requires.
  if (crashed.Size() < options_.max_crashes) {
    options_.may_crash.Minus(crashed).ForEach(
        [&](ProcessId p) { enabled.push_back(CrashEvent(p)); });
  }
}

std::string CrashFaultSystem::Name() const {
  return base_->Name() + "+crash(f=" + std::to_string(options_.max_crashes) +
         ")";
}

FailurePatternIndex::FailurePatternIndex(const ComputationSpace& space)
    : all_(space.AllProcesses()) {
  crashed_.assign(space.size(), 0);
  if (space.size() == 0) return;
  // The class store is a tree rooted at the empty computation (every class
  // has one parent link), so one walk over the successor CSR labels every
  // class with its crash mask.
  std::vector<std::uint8_t> visited(space.size(), 0);
  std::deque<std::size_t> frontier;
  frontier.push_back(0);
  visited[0] = 1;
  while (!frontier.empty()) {
    const std::size_t id = frontier.front();
    frontier.pop_front();
    for (const auto& succ : space.SuccessorsOf(id)) {
      if (visited[succ.class_id]) continue;
      visited[succ.class_id] = 1;
      std::uint64_t mask = crashed_[id];
      if (IsCrashEvent(succ.event))
        mask |= std::uint64_t{1} << succ.event.process;
      else if (IsRecoverEvent(succ.event))
        mask &= ~(std::uint64_t{1} << succ.event.process);
      crashed_[succ.class_id] = mask;
      frontier.push_back(succ.class_id);
    }
  }
  // Safety net for classes not hanging off the root's successor tree (a
  // future store could admit them): derive the mask from the events.
  space.ForEachComputation(
      0, space.size(), [&](std::size_t id) { return visited[id] == 0; },
      [&](std::size_t id, const Computation& x) {
        crashed_[id] = CrashedIn(x).bits();
      });

  patterns_ = crashed_;
  std::sort(patterns_.begin(), patterns_.end());
  patterns_.erase(std::unique(patterns_.begin(), patterns_.end()),
                  patterns_.end());
}

namespace {

std::vector<std::uint8_t> ResolvePerPattern(KnowledgeEvaluator& eval,
                                            const FailurePatternIndex& index,
                                            const FormulaPtr& f, bool common) {
  std::vector<std::uint8_t> out(index.size(), 0);
  for (const std::uint64_t mask : index.patterns()) {
    const ProcessSet correct =
        ProcessSet::FromBits(mask).ComplementIn(index.AllProcesses());
    if (correct.IsEmpty()) continue;  // all crashed: verdict stays false
    const FormulaPtr query =
        common ? Formula::Common(correct, f) : Formula::Everyone(correct, f);
    const std::vector<std::uint8_t> verdicts = eval.HoldsAll(query);
    for (std::size_t id = 0; id < out.size(); ++id)
      if (index.CrashedAt(id).bits() == mask) out[id] = verdicts[id];
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> CommonAmongCorrect(KnowledgeEvaluator& eval,
                                             const FailurePatternIndex& index,
                                             const FormulaPtr& f) {
  return ResolvePerPattern(eval, index, f, /*common=*/true);
}

std::vector<std::uint8_t> EveryoneCorrectKnows(KnowledgeEvaluator& eval,
                                               const FailurePatternIndex& index,
                                               const FormulaPtr& f) {
  return ResolvePerPattern(eval, index, f, /*common=*/false);
}

}  // namespace hpl
