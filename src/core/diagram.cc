#include "core/diagram.h"

#include "core/isomorphism.h"

namespace hpl {

IsomorphismDiagram::IsomorphismDiagram(std::vector<Computation> vertices,
                                       int num_processes,
                                       std::vector<std::string> names,
                                       bool include_empty)
    : vertices_(std::move(vertices)),
      names_(std::move(names)),
      num_processes_(num_processes) {
  if (!names_.empty() && names_.size() != vertices_.size())
    throw ModelError("IsomorphismDiagram: names/vertices size mismatch");
  if (names_.empty()) {
    names_.reserve(vertices_.size());
    for (std::size_t i = 0; i < vertices_.size(); ++i)
      names_.push_back('c' + std::to_string(i));
  }
  const ProcessSet universe = ProcessSet::All(num_processes_);
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    for (std::size_t j = i + 1; j < vertices_.size(); ++j) {
      const ProcessSet label =
          MaxIsomorphismLabel(vertices_[i], vertices_[j], universe);
      if (label.IsEmpty() && !include_empty) continue;
      edges_.push_back(DiagramEdge{i, j, label});
    }
  }
}

IsomorphismDiagram IsomorphismDiagram::FromSpace(
    const ComputationSpace& space, bool include_empty) {
  std::vector<Computation> vertices;
  vertices.reserve(space.size());
  space.ForEachComputation(
      0, space.size(), [](std::size_t) { return true; },
      [&](std::size_t, const Computation& x) { vertices.push_back(x); });
  return IsomorphismDiagram(std::move(vertices), space.num_processes(), {},
                            include_empty);
}

ProcessSet IsomorphismDiagram::LabelBetween(std::size_t a,
                                            std::size_t b) const {
  if (a == b) return ProcessSet::All(num_processes_);  // the [D] self loop
  for (const DiagramEdge& e : edges_)
    if ((e.from == a && e.to == b) || (e.from == b && e.to == a))
      return e.label;
  return ProcessSet::Empty();
}

std::string IsomorphismDiagram::ToDot() const {
  std::string out = "graph isomorphism {\n  node [shape=circle];\n";
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    out += "  \"" + names_[i] + "\" [tooltip=\"" +
           vertices_[i].ToString() + "\"];\n";
  }
  for (const DiagramEdge& e : edges_) {
    out += "  \"" + names_[e.from] + "\" -- \"" + names_[e.to] +
           "\" [label=\"" + e.label.ToString() + "\"];\n";
  }
  out += "}\n";
  return out;
}

std::string IsomorphismDiagram::ToTable() const {
  std::string out;
  for (const DiagramEdge& e : edges_) {
    out += names_[e.from] + " --" + e.label.ToString() + "-- " +
           names_[e.to] + "\n";
  }
  return out;
}

}  // namespace hpl
