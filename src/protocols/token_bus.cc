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

template <typename Events>
TokenBusSystem::State TokenBusSystem::Reconstruct(const Events& x) {
  // The token's trajectory is determined by the send/receive events; sends
  // are numbered 0.. in order, so the k-th send uses message id k.
  State s;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const hpl::Event& e = x[i];
    if (e.IsSend()) {
      s.in_flight = true;
      s.dest = e.peer;
      s.sender = e.process;
      ++s.passes;
    } else if (e.IsReceive()) {
      s.in_flight = false;
      s.holder = e.process;
    }
  }
  return s;
}

template <typename Events>
void TokenBusSystem::Enabled(const Events& x,
                             std::vector<hpl::Event>& out) const {
  const State s = Reconstruct(x);
  out.clear();
  if (s.in_flight) {
    // Only the destination can act: receive the token.
    out.push_back(hpl::Receive(s.dest, s.sender, /*m=*/s.passes - 1, "token"));
    return;
  }
  if (s.passes >= max_passes_) return;  // pass budget exhausted
  const hpl::ProcessId h = s.holder;
  if (h > 0)
    out.push_back(hpl::Send(h, h - 1, /*m=*/s.passes, "token"));
  if (h < num_processes_ - 1)
    out.push_back(hpl::Send(h, h + 1, /*m=*/s.passes, "token"));
}

std::vector<hpl::Event> TokenBusSystem::EnabledEvents(
    const hpl::Computation& x) const {
  std::vector<hpl::Event> out;
  Enabled(x.events(), out);
  return out;
}

void TokenBusSystem::EnabledEventsAt(hpl::EventRow x,
                                     std::vector<hpl::Event>& out) const {
  Enabled(x, out);
}

std::optional<hpl::ProcessId> TokenBusSystem::TokenAt(
    const hpl::Computation& x) const {
  const State s = Reconstruct(x.events());
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
