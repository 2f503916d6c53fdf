// The paper's token-bus example (Section 4.1).
//
// "Consider a token bus which is a linear sequence of processes among which
// a token is passed back and forth; processes at the left or right boundary
// have only a right or left neighbor to whom they may pass the token; other
// processes may send it to either neighbor.  There is only one token in the
// system and initially it is at the leftmost process."
//
// TokenBusSystem is a core::System enumerating every computation with up to
// `max_passes` token transfers, suitable for exact knowledge model
// checking — e.g. the paper's claim that with five processes p,q,r,s,t and
// the token at r:
//   r knows ((q knows !token_at(p)) && (s knows !token_at(t))).
#ifndef HPL_PROTOCOLS_TOKEN_BUS_H_
#define HPL_PROTOCOLS_TOKEN_BUS_H_

#include <optional>
#include <string>
#include <vector>

#include "core/predicate.h"
#include "core/system.h"

namespace hpl::protocols {

class TokenBusSystem : public hpl::System {
 public:
  TokenBusSystem(int num_processes, int max_passes);

  int NumProcesses() const override { return num_processes_; }
  std::vector<hpl::Event> EnabledEvents(
      const hpl::Computation& x) const override;
  std::string Name() const override;

  // Where the token is in computation x: the holding process, or nullopt
  // while the token is in flight.
  std::optional<hpl::ProcessId> TokenAt(const hpl::Computation& x) const;

  // Predicate "process p holds the token" (false while in flight), local to
  // p by construction (Predicate::OnProjection).
  hpl::Predicate HoldsToken(hpl::ProcessId p) const;

 private:
  struct State {
    hpl::ProcessId holder = 0;       // meaningful when !in_flight
    bool in_flight = false;
    hpl::ProcessId dest = 0;         // meaningful when in_flight
    int passes = 0;                  // sends so far
  };
  State Reconstruct(const hpl::Computation& x) const;

  int num_processes_;
  int max_passes_;
};

}  // namespace hpl::protocols

#endif  // HPL_PROTOCOLS_TOKEN_BUS_H_
