// Test-only reference evaluator for knowledge formulas, built straight from
// the paper's definitions and sharing nothing with KnowledgeEvaluator — no
// memo tiers, no kernels, no projection columns of the space:
//
//   x [p] y      iff  x and y have equal projections on p, decided by
//                     grouping class ids on the materialized
//                     At(id).Projection(p) — or, given a StateAbstraction
//                     (paper Section 6, state-based isomorphism), equal
//                     states StateOf(p, At(id).Projection(p));
//   x [P] y      iff  x [p] y for every p in P (the empty set relates every
//                     pair of computations);
//   K{P} f at x  iff  f holds at every y with x [P] y;
//   Sure{P} f    ==   K{P} f || K{P} !f;   Possible{P} f == !K{P} !f;
//   E{G} f       ==   AND over p in G of K{p} f (true for the empty G);
//   CK{G} f at x iff  f holds on x's whole component of the union of the
//                     [p] relations, p in G (a local union-find over the
//                     [p]-classes).
//
// Every formula is evaluated bottom-up over every class and memoized per
// formula node, so a query costs O(|formula| x classes x |P|).  Intended for
// the small spaces of differential tests: the constructor materializes
// every class once per process.
#ifndef HPL_TESTS_CORE_REFERENCE_KNOWLEDGE_H_
#define HPL_TESTS_CORE_REFERENCE_KNOWLEDGE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/event.h"
#include "core/formula.h"
#include "core/space.h"
#include "core/state_view.h"

namespace hpl {

class ReferenceKnowledge {
 public:
  explicit ReferenceKnowledge(
      const ComputationSpace& space,
      const std::optional<StateAbstraction>& abstraction = std::nullopt)
      : space_(space),
        p_class_(static_cast<std::size_t>(space.num_processes()),
                 std::vector<std::uint32_t>(space.size())) {
    for (ProcessId p = 0; p < space.num_processes(); ++p) {
      std::unordered_map<std::vector<Event>, std::uint32_t, EventsHash>
          by_projection;
      std::unordered_map<std::string, std::uint32_t> by_state;
      for (std::size_t id = 0; id < space.size(); ++id) {
        std::vector<Event> projection = space.At(id).Projection(p);
        p_class_[static_cast<std::size_t>(p)][id] =
            abstraction.has_value()
                ? by_state
                      .emplace(abstraction->StateOf(p, projection),
                               static_cast<std::uint32_t>(by_state.size()))
                      .first->second
                : by_projection
                      .emplace(std::move(projection),
                               static_cast<std::uint32_t>(by_projection.size()))
                      .first->second;
      }
    }
  }

  // Verdict of `f` at every class id.
  const std::vector<bool>& Verdicts(const FormulaPtr& f) {
    if (!memo_.contains(f.get())) keep_alive_.push_back(f);
    return Eval(f.get());
  }

  std::vector<std::size_t> SatisfyingSet(const FormulaPtr& f) {
    std::vector<std::size_t> out;
    const std::vector<bool>& v = Verdicts(f);
    for (std::size_t id = 0; id < v.size(); ++id)
      if (v[id]) out.push_back(id);
    return out;
  }

  std::vector<std::uint8_t> HoldsAll(const FormulaPtr& f) {
    const std::vector<bool>& v = Verdicts(f);
    return std::vector<std::uint8_t>(v.begin(), v.end());
  }

  bool Holds(const FormulaPtr& f, std::size_t id) { return Verdicts(f)[id]; }

  bool IsConstant(const FormulaPtr& f) {
    const std::vector<bool>& v = Verdicts(f);
    for (bool b : v)
      if (b != v.front()) return false;
    return true;
  }

  // "f is local to P": Sure{P} f holds everywhere.
  bool IsLocalTo(const FormulaPtr& f, ProcessSet p) {
    for (bool b : Verdicts(Formula::Sure(p, f)))
      if (!b) return false;
    return true;
  }

  // Label of id's component of the union of [p], p in g: the smallest
  // member id.
  std::uint32_t CommonComponent(ProcessSet g, std::size_t id) {
    return Components(g)[id];
  }

 private:
  // Projections compare with Event::operator==; the hash only buckets them.
  struct EventsHash {
    std::size_t operator()(const std::vector<Event>& events) const noexcept {
      std::size_t h = events.size();
      for (const Event& e : events) h = h * 1000003u ^ HashEvent(e);
      return h;
    }
  };

  // Dense [P]-class id per class: equal tuples of [p]-classes, p in P.
  std::vector<std::uint32_t> GroupClasses(ProcessSet group) const {
    std::map<std::vector<std::uint32_t>, std::uint32_t> classes;
    std::vector<std::uint32_t> out(space_.size());
    for (std::size_t id = 0; id < space_.size(); ++id) {
      std::vector<std::uint32_t> key;
      group.ForEach([&](ProcessId p) {
        key.push_back(p_class_[static_cast<std::size_t>(p)][id]);
      });
      const auto next = static_cast<std::uint32_t>(classes.size());
      out[id] = classes.emplace(std::move(key), next).first->second;
    }
    return out;
  }

  // K / Sure / Possible over `group`: per [P]-class, whether the child
  // holds at some member and fails at some member.
  std::vector<bool> Quantify(FormulaKind kind, ProcessSet group,
                             const std::vector<bool>& child) const {
    const std::vector<std::uint32_t> cls = GroupClasses(group);
    std::vector<bool> some_true(space_.size()), some_false(space_.size());
    for (std::size_t id = 0; id < space_.size(); ++id)
      (child[id] ? some_true : some_false)[cls[id]] = true;
    std::vector<bool> out(space_.size());
    for (std::size_t id = 0; id < space_.size(); ++id) {
      const bool t = some_true[cls[id]], f = some_false[cls[id]];
      out[id] = kind == FormulaKind::kKnows      ? !f
                : kind == FormulaKind::kPossible ? t
                                                 : !(t && f);  // kSure
    }
    return out;
  }

  const std::vector<std::uint32_t>& Components(ProcessSet g) {
    auto it = components_.find(g.bits());
    if (it != components_.end()) return it->second;
    std::vector<std::uint32_t> parent(space_.size());
    std::iota(parent.begin(), parent.end(), 0u);
    auto find = [&](std::uint32_t a) {
      while (parent[a] != a) a = parent[a] = parent[parent[a]];
      return a;
    };
    g.ForEach([&](ProcessId p) {
      // Union every class with the first member of its [p]-class.
      std::unordered_map<std::uint32_t, std::uint32_t> first;
      for (std::size_t id = 0; id < space_.size(); ++id) {
        const auto x = static_cast<std::uint32_t>(id);
        const auto [slot, fresh] =
            first.emplace(p_class_[static_cast<std::size_t>(p)][id], x);
        if (fresh) continue;
        const std::uint32_t a = find(slot->second), b = find(x);
        parent[std::max(a, b)] = std::min(a, b);
      }
    });
    // Unions hook the larger root under the smaller, so every root is its
    // component's smallest member.
    std::vector<std::uint32_t> root(space_.size());
    for (std::size_t id = 0; id < space_.size(); ++id)
      root[id] = find(static_cast<std::uint32_t>(id));
    return components_.emplace(g.bits(), std::move(root)).first->second;
  }

  const std::vector<bool>& Eval(const Formula* f) {
    auto it = memo_.find(f);
    if (it != memo_.end()) return it->second;
    const std::size_t n = space_.size();
    std::vector<bool> out(n);
    switch (f->kind()) {
      case FormulaKind::kAtom:
        for (std::size_t id = 0; id < n; ++id)
          out[id] = f->atom().Eval(space_.At(id));
        break;
      case FormulaKind::kNot: {
        const auto& a = Eval(f->left().get());
        for (std::size_t id = 0; id < n; ++id) out[id] = !a[id];
        break;
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
      case FormulaKind::kImplies: {
        const auto& a = Eval(f->left().get());
        const auto& b = Eval(f->right().get());
        for (std::size_t id = 0; id < n; ++id)
          out[id] = f->kind() == FormulaKind::kAnd ? a[id] && b[id]
                    : f->kind() == FormulaKind::kOr ? a[id] || b[id]
                                                    : !a[id] || b[id];
        break;
      }
      case FormulaKind::kKnows:
      case FormulaKind::kSure:
      case FormulaKind::kPossible:
        out = Quantify(f->kind(), f->group(), Eval(f->left().get()));
        break;
      case FormulaKind::kEveryone: {
        const auto& child = Eval(f->left().get());
        out.assign(n, true);
        f->group().ForEach([&](ProcessId p) {
          const std::vector<bool> k =
              Quantify(FormulaKind::kKnows, ProcessSet::Of(p), child);
          for (std::size_t id = 0; id < n; ++id) out[id] = out[id] && k[id];
        });
        break;
      }
      case FormulaKind::kCommon: {
        const auto& child = Eval(f->left().get());
        const std::vector<std::uint32_t>& root = Components(f->group());
        std::vector<bool> all(n, true);
        for (std::size_t id = 0; id < n; ++id)
          if (!child[id]) all[root[id]] = false;
        for (std::size_t id = 0; id < n; ++id) out[id] = all[root[id]];
        break;
      }
    }
    return memo_.emplace(f, std::move(out)).first->second;
  }

  const ComputationSpace& space_;
  // p_class_[p][id]: dense [p]-class (or state class) of class id, from
  // materialized projections.
  std::vector<std::vector<std::uint32_t>> p_class_;
  // Keeps every queried formula (and so every memoized node) alive.
  std::vector<FormulaPtr> keep_alive_;
  std::unordered_map<const Formula*, std::vector<bool>> memo_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> components_;
};

}  // namespace hpl

#endif  // HPL_TESTS_CORE_REFERENCE_KNOWLEDGE_H_
