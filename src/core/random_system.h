// Seeded random finite systems for property-based testing.
//
// A RandomSystem draws a finite "message script" — a pool of potential
// messages with fixed endpoints — plus optional internal events per
// process, and admits every computation in which each process performs its
// own events in script order, interleaved arbitrarily and with receives
// allowed any time after the matching send.  The computation set is finite
// (bounded by the script), fully enumerable, and varied enough to exercise
// every theorem checker.
#ifndef HPL_CORE_RANDOM_SYSTEM_H_
#define HPL_CORE_RANDOM_SYSTEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.h"

namespace hpl {

struct RandomSystemOptions {
  int num_processes = 3;
  int num_messages = 3;          // size of the message pool
  int internal_events = 1;       // per process
  bool optional_sends = false;   // processes may stop before sending all
  std::uint64_t seed = 1;
};

class RandomSystem : public System {
 public:
  explicit RandomSystem(const RandomSystemOptions& options);

  int NumProcesses() const override { return options_.num_processes; }
  std::vector<Event> EnabledEvents(const Computation& x) const override;
  void EnabledEventsAt(EventRow x, std::vector<Event>& out) const override;
  std::string Name() const override;

  // The scripted order of sends per process (for test introspection).
  const std::vector<std::vector<Event>>& scripts() const { return scripts_; }

 private:
  // The one enabled-events rule, over any random-access event range.
  template <typename Events>
  void Enabled(const Events& x, std::vector<Event>& out) const;

  RandomSystemOptions options_;
  // scripts_[p] = ordered local agenda of process p (sends + internals).
  std::vector<std::vector<Event>> scripts_;
};

}  // namespace hpl

#endif  // HPL_CORE_RANDOM_SYSTEM_H_
