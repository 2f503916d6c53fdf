// Experiment E20 (extension) — knowledge at scale: gossip spread measured
// as causal-cone growth (CausalKnowledge), where enumeration is hopeless.
// "How processes learn", quantitatively: knowledge latency, message cost,
// and nested-knowledge depth along the infection chain.
#include <algorithm>
#include <cstdio>

#include "bench/table.h"
#include "protocols/gossip.h"

using namespace hpl;
using protocols::GossipScenario;
using protocols::RunGossipScenario;

int main() {
  std::printf("E20: gossip — knowledge spread as causal-cone growth\n\n");

  bench::Table table({"n", "fanout", "messages", "spread time",
                      "median K-latency", "max K-latency",
                      "infected==knows"});

  for (int n : {8, 16, 32, 48}) {
    for (int fanout : {1, 2, 4}) {
      GossipScenario scenario;
      scenario.num_processes = n;
      scenario.fanout = fanout;
      scenario.seed = 100 + static_cast<std::uint64_t>(n) * 10 + fanout;
      const auto result = RunGossipScenario(scenario);

      std::vector<hpl::sim::Time> latencies;
      for (int p = 0; p < n; ++p)
        if (result.knowledge_time[p] >= 0)
          latencies.push_back(result.knowledge_time[p]);
      std::sort(latencies.begin(), latencies.end());
      const hpl::sim::Time median =
          latencies.empty() ? -1 : latencies[latencies.size() / 2];
      const hpl::sim::Time max =
          latencies.empty() ? -1 : latencies.back();

      table.AddRow({std::to_string(n), std::to_string(fanout),
                    std::to_string(result.messages),
                    std::to_string(result.spread_time),
                    std::to_string(median), std::to_string(max),
                    result.infection_equals_knowledge ? "yes" : "NO"});
    }
  }
  table.Print();
  std::printf(
      "\nexpected shape: latency grows ~log(n)/fanout; messages grow with\n"
      "n*fanout; the protocol's 'infected' state must coincide with the\n"
      "causal-cone knowledge everywhere (Theorem 5 both ways)\n");

  // Nested knowledge along the first infection chain: how deep does
  // "A knows B knows ... fact" get, and when?
  std::printf("\nnested knowledge along an infection path (n=16, fanout=2):\n");
  GossipScenario scenario;
  scenario.num_processes = 16;
  scenario.fanout = 2;
  scenario.seed = 4242;
  const auto result = RunGossipScenario(scenario);
  // Build a chain: 0 -> first process infected directly by 0 -> ...
  std::size_t fact_index = 0;
  for (std::size_t i = 0; i < result.trace.size(); ++i)
    if (result.trace.at(i).label == "fact") fact_index = i;
  CausalKnowledge cone(result.trace, 16, fact_index);
  bench::Table nested({"chain (outermost first)", "earliest prefix"});
  std::vector<ProcessId> chain{0};
  // Greedily extend with the earliest learner not yet in the chain.
  for (int depth = 0; depth < 4; ++depth) {
    ProcessId next = -1;
    std::size_t best = SIZE_MAX;
    for (ProcessId p = 0; p < 16; ++p) {
      if (std::find(chain.begin(), chain.end(), p) != chain.end()) continue;
      if (result.knowledge_prefix[p] < best) {
        best = result.knowledge_prefix[p];
        next = p;
      }
    }
    if (next < 0) break;
    chain.insert(chain.begin(), next);
    std::string label;
    for (ProcessId p : chain) {
      label += 'p';
      label += std::to_string(p);
      label += ' ';
    }
    const auto at = cone.EarliestNestedKnowledge(chain);
    nested.AddRow({label, at.has_value() ? std::to_string(*at) : "never"});
  }
  nested.Print();
  std::printf(
      "\nexpected: deeper nestings need strictly later prefixes (each\n"
      "level is one more hop of the Theorem-5 chain) — some may be\n"
      "'never' if the gossip graph lacks the return paths\n");
  return 0;
}
