// Experiment E7 — the Section 4.1 token-bus example: model-check the
// paper's nested-knowledge assertion for every token position and pass
// budget, and report space sizes.
#include <cstdio>

#include "bench/table.h"
#include "core/knowledge.h"
#include "protocols/token_bus.h"

using namespace hpl;
using protocols::TokenBusSystem;

int main() {
  std::printf("E7: token bus knowledge (Section 4.1 example)\n");
  std::printf("five processes p,q,r,s,t = p0..p4; token starts at p\n\n");

  bench::Table table({"max passes", "space size", "r-holds states",
                      "claim holds", "claim fails"});

  for (int passes : {2, 3, 4, 5}) {
    TokenBusSystem bus(5, passes);
    auto space = ComputationSpace::Enumerate(bus, {.max_depth = 2 * passes + 2});
    KnowledgeEvaluator eval(space);

    // r knows ((q knows !token_at(p)) && (s knows !token_at(t)))
    auto claim = Formula::Knows(
        ProcessSet{2},
        Formula::And(
            Formula::Knows(ProcessSet{1},
                           Formula::Not(Formula::Atom(bus.HoldsToken(0)))),
            Formula::Knows(ProcessSet{3},
                           Formula::Not(Formula::Atom(bus.HoldsToken(4))))));

    long holds = 0, fails = 0, r_states = 0;
    for (std::size_t id = 0; id < space.size(); ++id) {
      if (!bus.HoldsToken(2).Eval(space.At(id))) continue;
      ++r_states;
      if (eval.Holds(claim, id))
        ++holds;
      else
        ++fails;
    }
    table.AddRow({std::to_string(passes), std::to_string(space.size()),
                  std::to_string(r_states), std::to_string(holds),
                  std::to_string(fails)});
  }
  table.Print();
  std::printf(
      "\nexpected: 'claim fails' = 0 at every r-holding state (the paper's\n"
      "worked assertion); r-holds states require >= 2 passes to exist\n");

  // Knowledge by token position: who knows the token is not at the ends?
  std::printf("\nknowledge by token position (4 passes):\n");
  TokenBusSystem bus(5, 4);
  auto space = ComputationSpace::Enumerate(bus, {.max_depth = 10});
  KnowledgeEvaluator eval(space);
  bench::Table position({"token at", "K_q !token_p", "K_s !token_t",
                         "K_q !token_t"});
  for (ProcessId holder = 0; holder < 5; ++holder) {
    // Evaluate at each state where `holder` holds the token; report how
    // often each knowledge item holds (they can differ per history).
    long total = 0, kq = 0, ks = 0, kqt = 0;
    auto fq = Formula::Knows(ProcessSet{1},
                             Formula::Not(Formula::Atom(bus.HoldsToken(0))));
    auto fs = Formula::Knows(ProcessSet{3},
                             Formula::Not(Formula::Atom(bus.HoldsToken(4))));
    auto fqt = Formula::Knows(ProcessSet{1},
                              Formula::Not(Formula::Atom(bus.HoldsToken(4))));
    for (std::size_t id = 0; id < space.size(); ++id) {
      if (!bus.HoldsToken(holder).Eval(space.At(id))) continue;
      ++total;
      if (eval.Holds(fq, id)) ++kq;
      if (eval.Holds(fs, id)) ++ks;
      if (eval.Holds(fqt, id)) ++kqt;
    }
    auto frac = [&](long n) {
      return total ? std::to_string(n) + "/" + std::to_string(total)
                   : "n/a";
    };
    std::string name = "p";
    name += std::to_string(holder);
    position.AddRow({std::move(name), frac(kq), frac(ks), frac(kqt)});
  }
  position.Print();
  return 0;
}
