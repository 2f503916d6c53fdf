#include "core/random_system.h"

#include <algorithm>

namespace hpl {
namespace {

// splitmix64: tiny, deterministic, good-enough generator for scripts.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return n == 0 ? 0 : Next() % n; }
};

}  // namespace

RandomSystem::RandomSystem(const RandomSystemOptions& options)
    : options_(options) {
  if (options.num_processes < 2)
    throw ModelError("RandomSystem: need at least 2 processes");
  SplitMix64 rng{options.seed * 0x9e3779b97f4a7c15ull + 0x853c49e6748fea9bull};
  scripts_.resize(options.num_processes);

  for (MessageId m = 0; m < options.num_messages; ++m) {
    const auto from =
        static_cast<ProcessId>(rng.Below(options.num_processes));
    auto to = static_cast<ProcessId>(rng.Below(options.num_processes - 1));
    if (to >= from) ++to;
    std::string label = "m";
    label += std::to_string(m);
    scripts_[from].push_back(Send(from, to, m, std::move(label)));
  }
  for (ProcessId p = 0; p < options.num_processes; ++p) {
    for (int i = 0; i < options.internal_events; ++i) {
      // Insert internal events at random script positions.
      const auto pos = rng.Below(scripts_[p].size() + 1);
      std::string label = "i";
      label += std::to_string(p);
      label += '_';
      label += std::to_string(i);
      scripts_[p].insert(
          scripts_[p].begin() + static_cast<std::ptrdiff_t>(pos),
          Internal(p, std::move(label)));
    }
  }
}

template <typename Events>
void RandomSystem::Enabled(const Events& x, std::vector<Event>& out) const {
  out.clear();
  for (ProcessId p = 0; p < options_.num_processes; ++p) {
    // Next scripted local event: the process has performed some prefix of
    // its script interleaved with receives; count non-receive events on p.
    int done = 0;
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i].process == p && !x[i].IsReceive()) ++done;
    if (done < static_cast<int>(scripts_[p].size())) {
      const Event& next = scripts_[p][done];
      if (CanExtend(x, next)) out.push_back(next);
    }
  }
  // Receives: any sent-but-undelivered message may be received now.
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Event& e = x[i];
    if (!e.IsSend()) continue;
    Event recv = Receive(e.peer, e.process, e.message, e.label);
    if (CanExtend(x, recv)) out.push_back(std::move(recv));
  }
}

std::vector<Event> RandomSystem::EnabledEvents(const Computation& x) const {
  std::vector<Event> out;
  Enabled(x.events(), out);
  return out;
}

void RandomSystem::EnabledEventsAt(EventRow x, std::vector<Event>& out) const {
  Enabled(x, out);
}

std::string RandomSystem::Name() const {
  return "random(n=" + std::to_string(options_.num_processes) +
         ",m=" + std::to_string(options_.num_messages) +
         ",seed=" + std::to_string(options_.seed) + ")";
}

}  // namespace hpl
