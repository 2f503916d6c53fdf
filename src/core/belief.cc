#include "core/belief.h"

#include <algorithm>
#include <limits>
#include <ranges>

namespace hpl {

PlausibilityOrder PlausibilityOrder::Uniform() {
  return PlausibilityOrder("uniform", [](const Computation&) { return 0.0; });
}

PlausibilityOrder PlausibilityOrder::MinimalPending() {
  return PlausibilityOrder("minimal-pending", [](const Computation& x) {
    int pending = 0;
    for (const Event& e : x.events()) {
      if (e.IsSend()) ++pending;
      if (e.IsReceive()) --pending;
    }
    return static_cast<double>(pending);
  });
}

PlausibilityOrder PlausibilityOrder::MostAdvanced() {
  return PlausibilityOrder("most-advanced", [](const Computation& x) {
    return -static_cast<double>(x.size());
  });
}

BeliefEvaluator::BeliefEvaluator(const ComputationSpace& space,
                                 PlausibilityOrder order)
    : space_(space), order_(std::move(order)) {
  ranks_.reserve(space.size());
  space.ForEachComputation(
      0, space.size(), [](std::size_t) { return true; },
      [&](std::size_t, const Computation& x) {
        ranks_.push_back(order_.RankOf(x));
      });
}

std::vector<std::size_t> BeliefEvaluator::MostPlausible(
    ProcessSet p, std::size_t id) const {
  // One pass for the minimum rank, one to collect its members; members
  // come ascending, so the result does too.
  std::vector<std::size_t> out;
  const auto collect = [&](const auto& members) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto y : members) best = std::min(best, ranks_[y]);
    for (const auto y : members)
      if (ranks_[y] == best) out.push_back(y);
  };
  if (p.IsEmpty()) {
    // x [{}] y for all x, y: every id, as the knowledge engine reads it.
    collect(std::views::iota(std::size_t{0}, ranks_.size()));
  } else {
    const Partition part = space_.PartitionOf(p);
    collect(part.Bucket(part.ClassOf(id)));
  }
  return out;
}

bool BeliefEvaluator::Believes(ProcessSet p, const Predicate& b,
                               std::size_t id) {
  for (std::size_t y : MostPlausible(p, id))
    if (!b.Eval(space_.At(y))) return false;
  return true;
}

BeliefEvaluator::AxiomReport BeliefEvaluator::CheckAxioms(
    KnowledgeEvaluator& eval, const std::vector<Predicate>& predicates) {
  AxiomReport report;
  const ProcessSet groups[] = {ProcessSet{0}, ProcessSet{1}};
  for (const Predicate& b : predicates) {
    for (const ProcessSet p : groups) {
      // B_P b is constant on each [P]-class, so introspection reduces to
      // checking belief at the most-plausible members.
      for (std::size_t id = 0; id < space_.size(); ++id) {
        ++report.instances;
        const bool believes_b = Believes(p, b, id);
        // D: never believe the constant false.
        if (Believes(p, Predicate::False(), id))
          ++report.consistency_violations;
        // K (closure): with c := b || "space is nonempty"(true), trivial;
        // use a genuinely weaker consequence c := b-or-first-predicate.
        const Predicate c = b || predicates.front();
        if (believes_b && !Believes(p, c, id)) ++report.closure_violations;
        // 4/5: belief about one's own belief.  B_P b is constant per
        // [P]-class and the plausible worlds lie inside the class, so both
        // introspection axioms should hold; verify explicitly.
        const auto plausible = MostPlausible(p, id);
        bool all_believe = true, any_believes = false;
        for (std::size_t y : plausible) {
          if (Believes(p, b, y))
            any_believes = true;
          else
            all_believe = false;
        }
        // B b => B B b: every plausible world believes.
        if (believes_b && !all_believe) ++report.positive_introspection;
        // !B b => B !B b: no plausible world believes.
        if (!believes_b && any_believes) ++report.negative_introspection;
        // K b => B b.
        if (eval.Knows(p, b, id) && !believes_b)
          ++report.knowledge_implies_belief;
      }
    }
  }
  return report;
}

}  // namespace hpl
