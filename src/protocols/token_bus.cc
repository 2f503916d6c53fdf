#include "protocols/token_bus.h"

#include <span>

namespace hpl::protocols {

TokenBusSystem::TokenBusSystem(int num_processes, int max_passes)
    : num_processes_(num_processes), max_passes_(max_passes) {
  if (num_processes < 2)
    throw hpl::ModelError("TokenBusSystem: need at least 2 processes");
  if (max_passes < 0)
    throw hpl::ModelError("TokenBusSystem: negative max_passes");
}

TokenBusSystem::State TokenBusSystem::Reconstruct(
    const hpl::Computation& x) const {
  // The token's trajectory is determined by the send/receive events; sends
  // are numbered 0.. in order, so the k-th send uses message id k.
  State s;
  for (const hpl::Event& e : x.events()) {
    if (e.IsSend()) {
      s.in_flight = true;
      s.dest = e.peer;
      ++s.passes;
    } else if (e.IsReceive()) {
      s.in_flight = false;
      s.holder = e.process;
    }
  }
  return s;
}

std::vector<hpl::Event> TokenBusSystem::EnabledEvents(
    const hpl::Computation& x) const {
  const State s = Reconstruct(x);
  std::vector<hpl::Event> out;
  if (s.in_flight) {
    // Only the destination can act: receive the token.
    out.push_back(hpl::Receive(s.dest,
                               /*from=*/[&] {
                                 // sender of the last send
                                 for (auto it = x.events().rbegin();
                                      it != x.events().rend(); ++it)
                                   if (it->IsSend()) return it->process;
                                 throw hpl::ModelError("token bus: lost send");
                               }(),
                               /*m=*/s.passes - 1, "token"));
    return out;
  }
  if (s.passes >= max_passes_) return out;  // pass budget exhausted
  const hpl::ProcessId h = s.holder;
  if (h > 0)
    out.push_back(hpl::Send(h, h - 1, /*m=*/s.passes, "token"));
  if (h < num_processes_ - 1)
    out.push_back(hpl::Send(h, h + 1, /*m=*/s.passes, "token"));
  return out;
}

std::optional<hpl::ProcessId> TokenBusSystem::TokenAt(
    const hpl::Computation& x) const {
  const State s = Reconstruct(x);
  if (s.in_flight) return std::nullopt;
  return s.holder;
}

hpl::Predicate TokenBusSystem::HoldsToken(hpl::ProcessId p) const {
  // Local to p: p holds the token iff its last token event is a receive, or
  // it is process 0 (where the token starts) and has not sent it yet.  Self-
  // contained (does not capture `this`), so the predicate stays valid beyond
  // the system's lifetime.
  return hpl::Predicate::OnProjection(
      p, "token_at_p" + std::to_string(p),
      [p](std::span<const hpl::Event> events) {
        for (auto it = events.rbegin(); it != events.rend(); ++it)
          if (it->IsSend() || it->IsReceive()) return it->IsReceive();
        return p == 0;
      });
}

std::string TokenBusSystem::Name() const {
  return "token_bus(n=" + std::to_string(num_processes_) +
         ",passes=" + std::to_string(max_passes_) + ")";
}

}  // namespace hpl::protocols
