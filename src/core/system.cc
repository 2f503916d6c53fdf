#include "core/system.h"

#include <algorithm>

namespace hpl {

void System::EnabledEventsAt(EventRow x, std::vector<Event>& out) const {
  // The buffer is moved out for the call, so a nested adapter call (a
  // wrapper whose EnabledEvents asks its base) gets a buffer of its own and
  // never overwrites the computation this call is reading.  Copy-assigning
  // over the previous call's events reuses their label storage.
  thread_local std::vector<Event> buffer;
  std::vector<Event> events = std::move(buffer);
  events.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) events[i] = x[i];
  Computation c = Computation::TrustedFromEvents(std::move(events));
  out = EnabledEvents(c);
  buffer = std::move(c).TakeEvents();
}

ExplicitSystem::ExplicitSystem(int num_processes,
                               std::vector<Computation> maximal,
                               std::string name)
    : num_processes_(num_processes),
      maximal_(std::move(maximal)),
      name_(std::move(name)) {
  for (const Computation& c : maximal_) {
    c.ActiveProcesses().ForEach([&](ProcessId p) {
      if (p >= num_processes_)
        throw ModelError("ExplicitSystem: computation uses process p" +
                         std::to_string(p) + " outside the system");
    });
  }
  // A process is characterized by its set of process computations (paper
  // Section 2): derive each process's computation set as the prefix closure
  // of its projections of the given computations.  System computations are
  // then *all* interleavings compatible with those sets and the
  // receive-after-send rule, which EnabledEvents below generates.
  projections_.resize(num_processes_);
  for (const Computation& m : maximal_)
    for (ProcessId p = 0; p < num_processes_; ++p) {
      auto proj = m.Projection(p);
      if (!proj.empty()) projections_[p].push_back(std::move(proj));
    }
}

std::vector<Event> ExplicitSystem::EnabledEvents(const Computation& x) const {
  std::vector<Event> out;
  for (ProcessId p = 0; p < num_processes_; ++p) {
    const auto xp = x.Projection(p);
    for (const auto& full : projections_[p]) {
      if (xp.size() >= full.size()) continue;
      if (!std::equal(xp.begin(), xp.end(), full.begin())) continue;
      const Event& next = full[xp.size()];
      if (!CanExtend(x, next)) continue;
      if (std::find(out.begin(), out.end(), next) == out.end())
        out.push_back(next);
    }
  }
  return out;
}

}  // namespace hpl
