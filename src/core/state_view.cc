#include "core/state_view.h"

#include <algorithm>
#include <map>

namespace hpl {

StateAbstraction StateAbstraction::FullHistory() {
  return StateAbstraction(
      "full-history", [](ProcessId, std::span<const Event> projection) {
        std::string key;
        for (const Event& e : projection) key += e.ToString() + ";";
        return key;
      });
}

StateAbstraction StateAbstraction::EventCount() {
  return StateAbstraction(
      "event-count", [](ProcessId, std::span<const Event> projection) {
        return std::to_string(projection.size());
      });
}

StateAbstraction StateAbstraction::LabelBag() {
  return StateAbstraction(
      "label-bag", [](ProcessId, std::span<const Event> projection) {
        std::map<std::string, int> bag;
        for (const Event& e : projection) ++bag[e.label];
        std::string key;
        for (const auto& [label, n] : bag)
          key += label + ":" + std::to_string(n) + ";";
        return key;
      });
}

StateAbstraction StateAbstraction::LastEvent() {
  return StateAbstraction(
      "last-event", [](ProcessId, std::span<const Event> projection) {
        return projection.empty() ? std::string("(none)")
                                  : projection.back().ToString();
      });
}

StateView::StateView(const ComputationSpace& space,
                     StateAbstraction abstraction)
    : space_(space), abstraction_(std::move(abstraction)) {
  const int np = space.num_processes();
  classes_.assign(space.size() * np, 0);
  buckets_.assign(np, {});
  // One streamed pass fills every process's state classes; each process
  // still sees ids in ascending order, so class ids are first-occurrence.
  std::vector<std::unordered_map<std::string, std::uint32_t>> key_to_class(
      static_cast<std::size_t>(np));
  space.ForEachComputation(
      0, space.size(), [](std::size_t) { return true; },
      [&](std::size_t id, const Computation& x) {
        for (ProcessId p = 0; p < np; ++p) {
          const std::string key = abstraction_.StateOf(p, x.Projection(p));
          auto [it, inserted] = key_to_class[p].emplace(
              key, static_cast<std::uint32_t>(buckets_[p].size()));
          if (inserted) buckets_[p].emplace_back();
          classes_[id * np + p] = it->second;
          buckets_[p][it->second].push_back(static_cast<std::uint32_t>(id));
        }
      });
}

bool StateView::StateIsomorphic(std::size_t a, std::size_t b,
                                ProcessSet set) const {
  bool ok = true;
  set.ForEach([&](ProcessId p) {
    if (ok && StateClass(a, p) != StateClass(b, p)) ok = false;
  });
  return ok;
}

void StateView::ForEachStateIsomorphic(
    std::size_t id, ProcessSet set,
    const std::function<void(std::size_t)>& fn) const {
  if (set.IsEmpty()) {
    for (std::size_t y = 0; y < space_.size(); ++y) fn(y);
    return;
  }
  // Scan the smallest bucket, verify the rest by class ids.
  ProcessId best = set.First();
  std::size_t best_size = SIZE_MAX;
  set.ForEach([&](ProcessId p) {
    const auto size = buckets_[p][StateClass(id, p)].size();
    if (size < best_size) {
      best_size = size;
      best = p;
    }
  });
  for (std::uint32_t y : buckets_[best][StateClass(id, best)])
    if (StateIsomorphic(id, y, set)) fn(y);
}

bool StateView::IsLossless() const {
  for (ProcessId p = 0; p < space_.num_processes(); ++p)
    for (std::size_t a = 0; a < space_.size(); ++a)
      for (std::uint32_t b : buckets_[p][StateClass(a, p)])
        if (space_.ProjectionClass(a, p) != space_.ProjectionClass(b, p))
          return false;
  return true;
}

StateKnowledgeEvaluator::StateKnowledgeEvaluator(const StateView& view)
    : view_(view) {}

bool StateKnowledgeEvaluator::Holds(const FormulaPtr& f, std::size_t id) {
  if (!f) throw ModelError("StateKnowledgeEvaluator::Holds: null formula");
  return Eval(interner_.Intern(f).get(), id);
}

bool StateKnowledgeEvaluator::Knows(ProcessSet p, const Predicate& b,
                                    std::size_t id) {
  return Holds(Formula::Knows(p, Formula::Atom(b)), id);
}

bool StateKnowledgeEvaluator::IsLocalTo(const Predicate& b, ProcessSet p) {
  const Formula* sure =
      interner_.Intern(Formula::Sure(p, Formula::Atom(b))).get();
  for (std::size_t id = 0; id < view_.space().size(); ++id)
    if (!Eval(sure, id)) return false;
  return true;
}

bool StateKnowledgeEvaluator::Eval(const Formula* f, std::size_t id) {
  auto& slot = cache_[f];
  if (slot.empty()) slot.assign(view_.space().size(), 0);
  if (slot[id] != 0) return slot[id] == 2;

  bool result = false;
  switch (f->kind()) {
    case FormulaKind::kAtom:
      result = f->atom().Eval(view_.space().At(id));
      break;
    case FormulaKind::kNot:
      result = !Eval(f->left().get(), id);
      break;
    case FormulaKind::kAnd:
      result = Eval(f->left().get(), id) && Eval(f->right().get(), id);
      break;
    case FormulaKind::kOr:
      result = Eval(f->left().get(), id) || Eval(f->right().get(), id);
      break;
    case FormulaKind::kImplies:
      result = !Eval(f->left().get(), id) || Eval(f->right().get(), id);
      break;
    case FormulaKind::kKnows: {
      result = true;
      view_.ForEachStateIsomorphic(id, f->group(), [&](std::size_t y) {
        if (result && !Eval(f->left().get(), y)) result = false;
      });
      break;
    }
    case FormulaKind::kSure: {
      bool all_true = true, all_false = true;
      view_.ForEachStateIsomorphic(id, f->group(), [&](std::size_t y) {
        if (!all_true && !all_false) return;
        if (Eval(f->left().get(), y))
          all_false = false;
        else
          all_true = false;
      });
      result = all_true || all_false;
      break;
    }
    case FormulaKind::kEveryone: {
      result = true;
      f->group().ForEach([&](ProcessId p) {
        if (!result) return;
        view_.ForEachStateIsomorphic(
            id, ProcessSet::Of(p), [&](std::size_t y) {
              if (result && !Eval(f->left().get(), y)) result = false;
            });
      });
      break;
    }
    case FormulaKind::kPossible: {
      result = false;
      view_.ForEachStateIsomorphic(id, f->group(), [&](std::size_t y) {
        if (!result && Eval(f->left().get(), y)) result = true;
      });
      break;
    }
    case FormulaKind::kCommon:
      throw ModelError(
          "StateKnowledgeEvaluator: CK unsupported; use EveryoneIterated");
  }
  slot[id] = result ? 2 : 1;
  return result;
}

}  // namespace hpl
