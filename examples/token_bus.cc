// The paper's Section 4.1 token-bus example, end to end: enumerate the
// system, walk one run, and model-check the nested-knowledge claim at every
// step.
//
//   $ ./token_bus [num_passes]
#include <cstdio>
#include <cstdlib>

#include "core/knowledge.h"
#include "protocols/token_bus.h"

using namespace hpl;
using protocols::TokenBusSystem;

int main(int argc, char** argv) {
  const int passes = argc > 1 ? std::atoi(argv[1]) : 4;
  std::printf("== token bus: p q r s t = p0..p4, %d passes ==\n\n", passes);

  TokenBusSystem bus(5, passes);
  auto space = ComputationSpace::Enumerate(bus, {.max_depth = 2 * passes + 2});
  KnowledgeEvaluator eval(space);
  std::printf("system has %zu computations\n\n", space.size());

  // The paper's claim, as a formula.
  auto claim = Formula::Knows(
      ProcessSet{2},
      Formula::And(
          Formula::Knows(ProcessSet{1},
                         Formula::Not(Formula::Atom(bus.HoldsToken(0)))),
          Formula::Knows(ProcessSet{3},
                         Formula::Not(Formula::Atom(bus.HoldsToken(4))))));
  std::printf("claim: %s\n\n", claim->ToString().c_str());

  // Walk one run: token marches right to r (=p2), checking the claim.
  Computation x;
  auto report = [&](const char* what) {
    const auto holder = bus.TokenAt(x);
    // Built by appends: gcc 12 -O3 misreads assigning "p" over the initial
    // text as an overlapping copy and fails -Werror=restrict.
    std::string at = holder.has_value() ? "p" : "(in flight)";
    if (holder.has_value()) at += std::to_string(*holder);
    std::printf("%-28s token at %s  claim %s\n", what, at.c_str(),
                eval.Holds(claim, space.RequireIndex(x)) ? "HOLDS"
                                                         : "does not hold");
  };
  report("start:");
  for (int hop = 0; hop < std::min(passes, 2); ++hop) {
    const auto enabled = bus.EnabledEvents(x);
    // Choose the rightward send.
    for (const Event& e : enabled) {
      if (e.IsSend() && e.peer == e.process + 1) {
        x = x.Extended(e);
        break;
      }
    }
    report("after send:");
    x = x.Extended(bus.EnabledEvents(x).front());  // the receive
    report("after receive:");
  }

  std::printf(
      "\nwhen r holds the token it *knows* q knows the token is not at p:\n"
      "q must have passed it rightward (or never held it) — knowledge\n"
      "derived purely from isomorphism over the system's computations.\n");

  // Exhaustive check: the claim holds at every r-holding computation.
  long r_states = 0, ok = 0;
  for (std::size_t id = 0; id < space.size(); ++id) {
    if (!bus.HoldsToken(2).Eval(space.At(id))) continue;
    ++r_states;
    if (eval.Holds(claim, id)) ++ok;
  }
  std::printf("\nexhaustive: claim holds at %ld/%ld r-holding computations\n",
              ok, r_states);
  return ok == r_states ? 0 : 1;
}
