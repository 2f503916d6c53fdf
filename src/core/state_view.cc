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
    : space_(space),
      abstraction_(std::move(abstraction)),
      size_(space.size()),
      tables_(static_cast<std::size_t>(space.num_processes())) {
  // One streamed pass fills every process's state classes; each process
  // sees ids in ascending order, so class ids are first-occurrence.
  std::vector<std::unordered_map<std::string, std::uint32_t>> key_to_class(
      tables_.size());
  for (Table& t : tables_) t.cls.resize(size_);
  space.ForEachComputation(
      0, size_, [](std::size_t) { return true; },
      [&](std::size_t id, const Computation& x) {
        for (ProcessId p = 0; p < space.num_processes(); ++p) {
          auto& classes = key_to_class[static_cast<std::size_t>(p)];
          const auto next = static_cast<std::uint32_t>(classes.size());
          tables_[static_cast<std::size_t>(p)].cls[id] =
              classes.emplace(abstraction_.StateOf(p, x.Projection(p)), next)
                  .first->second;
        }
      });
  for (std::size_t p = 0; p < tables_.size(); ++p)
    internal::BucketByClass(tables_[p].cls, key_to_class[p].size(),
                            tables_[p].offsets, tables_[p].ids);
}

bool StateView::StateIsomorphic(std::size_t a, std::size_t b,
                                ProcessSet set) const {
  bool ok = true;
  set.ForEach([&](ProcessId p) {
    if (ok && StateClass(a, p) != StateClass(b, p)) ok = false;
  });
  return ok;
}

Partition StateView::PartitionOf(ProcessSet g) const {
  internal::RequirePartitionGroup(g, space_.num_processes());
  if (g.Size() == 1)
    return tables_[static_cast<std::size_t>(g.First())].View();
  std::lock_guard<std::mutex> lock(group_mutex_);
  std::unique_ptr<Table>& table = groups_[g.bits()];
  if (table == nullptr) {
    // Refine member by member: pairing the classes so far with the next
    // member's and numbering the pairs by first occurrence yields the
    // first-occurrence numbering of the members' state tuples.
    auto built = std::make_unique<Table>();
    std::vector<std::uint32_t> cls =
        tables_[static_cast<std::size_t>(g.First())].cls;
    std::size_t num_classes = 0;
    g.ForEach([&](ProcessId q) {
      if (q == g.First()) return;
      std::unordered_map<std::uint64_t, std::uint32_t> pair_class;
      for (std::size_t id = 0; id < size_; ++id) {
        const std::uint64_t key =
            std::uint64_t{cls[id]} << 32 |
            tables_[static_cast<std::size_t>(q)].cls[id];
        const auto next = static_cast<std::uint32_t>(pair_class.size());
        cls[id] = pair_class.emplace(key, next).first->second;
      }
      num_classes = pair_class.size();
    });
    internal::BucketByClass(cls, num_classes, built->offsets, built->ids);
    built->cls = std::move(cls);
    table = std::move(built);
  }
  return table->View();
}

bool StateView::IsLossless() const {
  // A state is a function of the projection, so each state partition
  // coarsens the [p]-partition; the two are equal iff their class counts
  // are.
  for (ProcessId p = 0; p < space_.num_processes(); ++p)
    if (tables_[static_cast<std::size_t>(p)].offsets.size() - 1 !=
        space_.PartitionOf(ProcessSet::Of(p)).NumClasses())
      return false;
  return true;
}

}  // namespace hpl
