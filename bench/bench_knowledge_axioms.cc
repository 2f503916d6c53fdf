// Experiment E6 — Section 4.1: the twelve knowledge facts and Lemma 2
// verified over random systems' full computation spaces.  Exits 1 on any
// violation, after writing the JSON record.
#include <cstdio>

#include "bench/reporter.h"
#include "bench/table.h"
#include "core/knowledge.h"
#include "core/parallel.h"
#include "core/random_system.h"

using namespace hpl;

namespace {

struct Counter {
  long checked = 0;
  long violations = 0;
  void Tally(bool ok) {
    ++checked;
    if (!ok) ++violations;
  }
};

}  // namespace

int main(int argc, char** argv) {
  auto json_path = bench::ParseBenchArgs(argc, argv).json_path;
  bench::JsonReporter reporter("knowledge_axioms");
  std::printf("E6: knowledge axioms (Section 4.1 facts 1-12, Lemma 2)\n\n");

  Counter f1, f2, f3, f4, f6, f7, f8, f9, f10, f11, f12;

  for (std::uint64_t seed : {601, 602, 603}) {
    RandomSystemOptions options;
    options.num_processes = 3;
    options.num_messages = 3;
    options.internal_events = 1;
    options.seed = seed;
    RandomSystem system(options);
    bench::WallTimer seed_timer;
    auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
    const std::int64_t enumerate_ns = seed_timer.ElapsedNs();
    KnowledgeEvaluator eval(space);

    const Predicate b = Predicate::CountOnAtLeast(0, 1);
    const Predicate c = Predicate::Sent(0);
    const ProcessSet p{1};
    auto A = [&](const Predicate& pr) { return Formula::Atom(pr); };
    auto kb = Formula::Knows(p, A(b));
    auto kc = Formula::Knows(p, A(c));
    auto k_and = Formula::Knows(p, Formula::And(A(b), A(c)));
    auto k_or = Formula::Knows(p, Formula::Or(A(b), A(c)));
    auto k_not = Formula::Knows(p, Formula::Not(A(b)));
    auto kkb = Formula::Knows(p, kb);
    auto k_not_kb = Formula::Knows(p, Formula::Not(kb));
    auto k_true = Formula::Knows(p, A(Predicate::True()));

    for (std::size_t id = 0; id < space.size(); ++id) {
      const bool vb = b.Eval(space.At(id));
      const bool vkb = eval.Holds(kb, id);
      // 1/2: knowledge is a function of the [P]-class.
      space.ForEachIsomorphic(id, p, [&](std::size_t y) {
        f1.Tally(eval.Holds(kb, y) == vkb);
      });
      f2.Tally(true);  // subsumed by f1's sweep; kept for the ledger
      // 3: monotone in the process set.
      if (vkb) f3.Tally(eval.Holds(Formula::Knows(ProcessSet{0, 1}, A(b)), id));
      // 4: veridical.
      if (vkb) f4.Tally(vb);
      // 6: conjunction.
      f6.Tally(eval.Holds(k_and, id) ==
               (vkb && eval.Holds(kc, id)));
      // 7: disjunction (one direction).
      if (vkb || eval.Holds(kc, id)) f7.Tally(eval.Holds(k_or, id));
      // 8: K!b => !Kb.
      if (eval.Holds(k_not, id)) f8.Tally(!vkb);
      // 9: closure under (pointwise) implication b => b||c.
      if (vkb) f9.Tally(eval.Holds(k_or, id));
      // 10: positive introspection.
      f10.Tally(eval.Holds(kkb, id) == vkb);
      // 11 / Lemma 2: negative introspection.
      f11.Tally(eval.Holds(k_not_kb, id) == !vkb);
      // 12: constants are known.
      f12.Tally(eval.Holds(k_true, id));
    }
    bench::JsonResult result;
    result.name = "axioms/seed=" + std::to_string(seed);
    result.params = {{"seed", static_cast<double>(seed)},
                     {"memo_entries", static_cast<double>(eval.memo_size())},
                     {"knowledge_threads",
                      static_cast<double>(internal::ResolveNumThreads(0))}};
    result.wall_ns = seed_timer.ElapsedNs();
    result.space_classes = space.size();
    result.classes_per_sec = bench::ClassesPerSec(space.size(), enumerate_ns);
    reporter.Add(std::move(result));
  }

  bench::Table table({"fact", "instances", "violations"});
  auto row = [&](const char* name, const Counter& counter) {
    table.AddRow({name, std::to_string(counter.checked),
                  std::to_string(counter.violations)});
  };
  row("1/2 knowledge respects [P]", f1);
  row("3   P<=PuQ monotone", f3);
  row("4   K b => b (veridical)", f4);
  row("6   K(b&&c) = Kb && Kc", f6);
  row("7   Kb||Kc => K(b||c)", f7);
  row("8   K!b => !Kb", f8);
  row("9   closure under implication", f9);
  row("10  KKb = Kb", f10);
  row("11  K!Kb = !Kb (Lemma 2)", f11);
  row("12  constants known", f12);
  table.Print();
  std::printf("\nexpected: zero violations (S5-style axioms, Section 4.1)\n");
  if (json_path.has_value() && !reporter.WriteFile(*json_path)) return 1;
  long violations = 0;
  for (const Counter* c : {&f1, &f3, &f4, &f6, &f7, &f8, &f9, &f10, &f11, &f12})
    violations += c->violations;
  return violations == 0 ? 0 : 1;
}
