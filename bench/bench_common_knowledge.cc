// Experiment E8 — Section 4.2: common knowledge can be neither gained nor
// lost (corollary to Lemma 3), and identical knowledge of disjoint sets is
// constant.  Sweeps systems and predicates, reporting the CK value's
// constancy across each entire computation space.  Exits 1 when a CK value
// is not constant or the corollary fails.
#include <cstdio>

#include "bench/reporter.h"
#include "bench/table.h"
#include "core/knowledge.h"
#include "core/parallel.h"
#include "core/random_system.h"
#include "protocols/relay.h"
#include "protocols/token_bus.h"

using namespace hpl;

int main(int argc, char** argv) {
  auto json_path = bench::ParseBenchArgs(argc, argv).json_path;
  bench::JsonReporter reporter("common_knowledge");
  std::printf("E8: common knowledge constancy (Section 4.2)\n\n");

  bench::Table table({"system", "space", "predicate", "CK constant?",
                      "CK value", "plain b varies?"});
  bool all_constant = true;

  auto check = [&](const System& system, const Predicate& predicate,
                   int depth) {
    bench::WallTimer enumerate_timer;
    auto space = ComputationSpace::Enumerate(
        system, {.max_depth = depth});
    const std::int64_t enumerate_ns = enumerate_timer.ElapsedNs();
    bench::WallTimer eval_timer;
    KnowledgeEvaluator eval(space);
    auto ck = Formula::Common(space.AllProcesses(),
                              Formula::Atom(predicate));
    const bool constant = eval.IsConstant(ck);
    all_constant = all_constant && constant;
    const bool value = eval.Holds(ck, std::size_t{0});
    const bool varies = !eval.IsConstant(Formula::Atom(predicate));
    table.AddRow({system.Name(), std::to_string(space.size()),
                  predicate.name(), constant ? "yes" : "NO (violation)",
                  value ? "true" : "false", varies ? "yes" : "no"});
    bench::JsonResult result;
    result.name = "ck_constancy/" + system.Name() + "/" + predicate.name();
    result.params = {{"depth", static_cast<double>(depth)},
                     {"enumerate_ns", static_cast<double>(enumerate_ns)},
                     {"knowledge_threads",
                      static_cast<double>(internal::ResolveNumThreads(0))}};
    result.wall_ns = enumerate_ns + eval_timer.ElapsedNs();
    result.space_classes = space.size();
    result.classes_per_sec = bench::ClassesPerSec(space.size(), enumerate_ns);
    reporter.Add(std::move(result));
  };

  {
    RandomSystemOptions options;
    options.num_processes = 3;
    options.num_messages = 3;
    options.internal_events = 1;
    options.seed = 801;
    RandomSystem system(options);
    check(system, Predicate::CountOnAtLeast(0, 1), 24);
    check(system, Predicate::Sent(0), 24);
    check(system, Predicate::True(), 24);
  }
  {
    protocols::TokenBusSystem bus(4, 3);
    check(bus, bus.HoldsToken(0), 10);
    check(bus, bus.HoldsToken(2), 10);
  }
  {
    protocols::RelaySystem relay(3);
    check(relay, relay.Fact(), 12);
  }
  table.Print();
  std::printf(
      "\nexpected: CK constant for every predicate and system — common\n"
      "knowledge is never gained nor lost in asynchronous systems; only\n"
      "constants (like 'true') can be commonly known\n");

  // Identical-knowledge corollary: for disjoint P, Q with identical
  // knowledge of b across the space, P knows b is constant.
  std::printf("\nidentical-knowledge corollary sweep:\n");
  bench::Table table2({"seed", "predicate", "identical?", "K_P b constant?"});
  for (std::uint64_t seed : {811, 812}) {
    RandomSystemOptions options;
    options.num_processes = 3;
    options.num_messages = 3;
    options.seed = seed;
    RandomSystem system(options);
    bench::WallTimer sweep_timer;
    auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
    const std::int64_t enumerate_ns = sweep_timer.ElapsedNs();
    KnowledgeEvaluator eval(space);
    for (const Predicate& b :
         {Predicate::True(), Predicate::CountOnAtLeast(0, 1)}) {
      auto kp = Formula::Knows(ProcessSet{0}, Formula::Atom(b));
      auto kq = Formula::Knows(ProcessSet{1}, Formula::Atom(b));
      bool identical = true;
      for (std::size_t id = 0; id < space.size() && identical; ++id)
        if (eval.Holds(kp, id) != eval.Holds(kq, id)) identical = false;
      const bool constant = eval.IsConstant(kp);
      table2.AddRow({std::to_string(seed), b.name(),
                     identical ? "yes" : "no",
                     constant ? "yes" : "no"});
      // The corollary: identical => constant.
      if (identical && !constant) {
        std::printf("VIOLATION of identical-knowledge corollary!\n");
        return 1;
      }
    }
    bench::JsonResult result;
    result.name = "identical_knowledge/seed=" + std::to_string(seed);
    result.params = {{"seed", static_cast<double>(seed)},
                     {"knowledge_threads",
                      static_cast<double>(internal::ResolveNumThreads(0))}};
    result.wall_ns = sweep_timer.ElapsedNs();
    result.space_classes = space.size();
    result.classes_per_sec = bench::ClassesPerSec(space.size(), enumerate_ns);
    reporter.Add(std::move(result));
  }
  table2.Print();
  if (json_path.has_value() && !reporter.WriteFile(*json_path)) return 1;
  return all_constant ? 0 : 1;
}
