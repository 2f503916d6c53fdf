#include "core/knowledge.h"

#include <algorithm>
#include <numeric>
#include <ranges>
#include <unordered_set>
#include <utility>

#include "core/parallel.h"
#include "core/state_view.h"

namespace hpl {
namespace {

// Spaces smaller than this run kernels inline even when the evaluator has
// worker threads; the pass setup would dominate.
constexpr std::size_t kMinParallelSpace = 128;

// Union-find over dense ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t Find(std::uint32_t a) {
    while (parent_[a] != a) {
      parent_[a] = parent_[parent_[a]];
      a = parent_[a];
    }
    return a;
  }
  void Union(std::uint32_t a, std::uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<std::uint32_t> parent_;
};

// Bits of plane word `w` that correspond to real class ids (the last word
// of an n-id plane is only partially populated).
std::uint64_t LiveWordMask(std::size_t n, std::size_t w) {
  const std::size_t tail = n - w * 64;
  return tail >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
}

// True when all `n` verdict bits of `plane` equal `v`.
bool PlaneIsUniform(const std::uint64_t* plane, std::size_t n, bool v) {
  for (std::size_t w = 0; w * 64 < n; ++w)
    if (plane[w] != (v ? LiveWordMask(n, w) : 0)) return false;
  return true;
}

// The quantifier of Knows / Everyone (for all), Possible (exists) or Sure
// (all equal) over `ids`, with `holds(y)` the child verdict at y; stops at
// the first id that decides it.
template <typename Ids, typename Holds>
bool Quantify(FormulaKind kind, const Ids& ids, Holds&& holds) {
  switch (kind) {
    case FormulaKind::kKnows:
    case FormulaKind::kEveryone:
      for (const auto y : ids)
        if (!holds(y)) return false;
      return true;
    case FormulaKind::kPossible:
      for (const auto y : ids)
        if (holds(y)) return true;
      return false;
    case FormulaKind::kSure: {
      // K_P f || K_P !f, decided in one pass.
      bool all_true = true, all_false = true;
      for (const auto y : ids) {
        (holds(y) ? all_false : all_true) = false;
        if (!all_true && !all_false) return false;
      }
      return true;
    }
    default:
      throw ModelError("Quantify: node has no quantifier");
  }
}

// Appends the ids of the set bits of a `words`-word plane, ascending.
void AppendSetBits(const std::uint64_t* plane, std::size_t words,
                   std::vector<std::size_t>& out) {
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t word = plane[w]; word != 0; word &= word - 1)
      out.push_back(w * 64 + static_cast<std::size_t>(__builtin_ctzll(word)));
  }
}

std::size_t Popcount(const std::vector<std::uint64_t>& words) {
  std::size_t n = 0;
  for (std::uint64_t word : words) n += __builtin_popcountll(word);
  return n;
}

}  // namespace

KnowledgeEvaluator::KnowledgeEvaluator(const ComputationSpace& space,
                                       const KnowledgeOptions& options)
    : space_(space),
      words_((space.size() + 63) / 64),
      synced_size_(space.size()),
      num_threads_(internal::ResolveNumThreads(options.num_threads)),
      compiled_kernels_(options.compiled_kernels) {}

KnowledgeEvaluator::KnowledgeEvaluator(const StateView& view,
                                       const KnowledgeOptions& options)
    : KnowledgeEvaluator(view.space(), options) {
  view_ = &view;
}

Partition KnowledgeEvaluator::PartitionOf(ProcessSet g) const {
  return view_ != nullptr ? view_->PartitionOf(g) : space_.PartitionOf(g);
}

KnowledgeEvaluator::~KnowledgeEvaluator() = default;

void KnowledgeEvaluator::Refresh() {
  const std::size_t n = space_.size();
  if (view_ != nullptr && view_->size() != n)
    throw ModelError(
        "KnowledgeEvaluator::Refresh: the space grew after its StateView was "
        "built; build a new StateView and evaluator over the grown space");
  if (n < synced_size_)
    throw ModelError("KnowledgeEvaluator::Refresh: the space shrank");
  // Growth reallocates the partition columns even when it adds no class,
  // so every segment takes a fresh view first.
  for (kernel::Segment& seg : segments_) seg.partition = PartitionOf(seg.group);
  if (n == synced_size_) return;  // edge-only growth never changes verdicts
  const std::size_t old_n = synced_size_;
  const std::size_t old_words = words_;
  const std::size_t new_words = (n + 63) / 64;
  const std::size_t num_nodes = node_index_.size();

  const auto test_bit = [](const std::vector<std::uint64_t>& bits,
                           std::size_t id) {
    return (bits[id / 64] & (std::uint64_t{1} << (id % 64))) != 0;
  };
  const auto set_bit = [](std::vector<std::uint64_t>& bits, std::size_t id) {
    bits[id / 64] |= std::uint64_t{1} << (id % 64);
  };

  // A bucket (the quantifier range of some modal node restricted to one
  // equivalence class) forces recomputation iff it gained a new class or
  // contains an id where the child verdict itself may have changed.
  const auto bucket_dirty = [&](std::span<const std::uint32_t> bucket,
                                const std::vector<std::uint64_t>& child) {
    for (std::uint32_t y : bucket)
      if (y >= old_n || test_bit(child, y)) return true;
    return false;
  };
  // Marks every OLD member of every dirty bucket of `part`.
  const auto close_over = [&](const Partition& part,
                              const std::vector<std::uint64_t>& child,
                              std::vector<std::uint64_t>& out) {
    const auto classes = static_cast<std::uint32_t>(part.NumClasses());
    for (std::uint32_t c = 0; c < classes; ++c) {
      const auto bucket = part.Bucket(c);
      if (!bucket_dirty(bucket, child)) continue;
      for (std::uint32_t y : bucket)
        if (y < old_n) set_bit(out, y);
    }
  };

  // Bottom-up dirty cones over the OLD id range, memoized per subformula:
  // the set of old ids where the node's verdict may differ from before the
  // growth.  Atoms are pure functions of the computation, so they are never
  // dirty; propositional nodes are dirty where a child is; modal nodes
  // close their child's dirt (plus the new ids) over the buckets of their
  // quantifier's partition (Everyone over each member's).  The empty group
  // relates every class and CK components can merge through new classes,
  // so empty-group Knows/Sure/Possible and kCommon are dirty everywhere.
  std::unordered_map<const Formula*, std::vector<std::uint64_t>> dirty;
  const auto mark_all = [&](std::vector<std::uint64_t>& bits) {
    for (std::size_t w = 0; w < old_words; ++w)
      bits[w] = LiveWordMask(old_n, w);
  };
  auto dirty_of = [&](auto&& self,
                      const Formula* f) -> const std::vector<std::uint64_t>& {
    auto it = dirty.find(f);
    if (it != dirty.end()) return it->second;
    std::vector<std::uint64_t> bits(old_words, 0);
    switch (f->kind()) {
      case FormulaKind::kAtom:
        break;
      case FormulaKind::kNot:
        bits = self(self, f->left().get());
        break;
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
      case FormulaKind::kImplies: {
        bits = self(self, f->left().get());
        const auto& rhs = self(self, f->right().get());
        for (std::size_t w = 0; w < old_words; ++w) bits[w] |= rhs[w];
        break;
      }
      case FormulaKind::kKnows:
      case FormulaKind::kSure:
      case FormulaKind::kPossible: {
        const auto& child = self(self, f->left().get());
        if (f->group().IsEmpty())
          mark_all(bits);
        else
          close_over(PartitionOf(f->group()), child, bits);
        break;
      }
      case FormulaKind::kEveryone: {
        const auto& child = self(self, f->left().get());
        f->group().ForEach([&](ProcessId p) {
          close_over(PartitionOf(ProcessSet::Of(p)), child, bits);
        });
        break;
      }
      case FormulaKind::kCommon:
        mark_all(bits);
        break;
    }
    return dirty.emplace(f, std::move(bits)).first->second;
  };

  // Dense planes: re-layout every node row from old_words to new_words,
  // keeping known bits wherever the node's cone is clean.  New ids land in
  // the zeroed tail (unknown), exactly like a fresh evaluator.
  {
    MemoPlanes grown;
    grown.known.assign(num_nodes * new_words, 0);
    grown.value.assign(num_nodes * new_words, 0);
    for (const auto& [f, node] : node_index_) {
      const auto& d = dirty_of(dirty_of, f);
      for (std::size_t w = 0; w < old_words; ++w) {
        const std::uint64_t keep = ~d[w];
        grown.known[node * new_words + w] =
            planes_.known[node * old_words + w] & keep;
        grown.value[node * new_words + w] =
            planes_.value[node * old_words + w] & keep;
      }
    }
    planes_ = std::move(grown);
  }

  // Bucket/group tier: rows are sized by the class counts of their
  // partitions, which grew too.  Re-lay the segment planes out for the new
  // counts; a row cell survives iff its bucket is clean under the owning
  // node's child cone (same rule as the dense tier, one level up).
  if (!segments_.empty()) {
    std::vector<std::uint32_t> new_offsets(segments_.size());
    std::size_t off = 0;
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      new_offsets[s] = static_cast<std::uint32_t>(off);
      off += (segments_[s].partition.NumClasses() + 63) / 64;
    }
    MemoPlanes grown;
    grown.known.assign(off, 0);
    grown.value.assign(off, 0);
    for (const auto& [f, node] : node_index_) {
      if (node_seg_begin_[node] == kNoSegment) continue;
      const auto& child = dirty.at(f->left().get());
      const std::uint32_t begin = node_seg_begin_[node];
      const std::uint32_t count = node_seg_count_[node];
      for (std::uint32_t k = 0; k < count; ++k) {
        const kernel::Segment& seg = segments_[begin + k];
        const Partition& part = seg.partition;
        // The [G]-aggregation row of a multi-process Everyone is an AND of
        // its member rows' verdicts, and each member bucket is a superset
        // of the [G]-bucket — so it must check every member bucket of the
        // class representative (all [G]-equivalent ids share their member
        // classes).  Every other row checks its own bucket.
        const bool aggregate =
            k == 0 && count > 1 && f->kind() == FormulaKind::kEveryone;
        const auto classes = static_cast<std::uint32_t>(part.NumClasses());
        for (std::uint32_t c = 0; c < classes; ++c) {
          if (c / 64 >= seg.words) continue;  // row cell did not exist yet
          const std::uint64_t bit = std::uint64_t{1} << (c % 64);
          if ((bucket_planes_.known[seg.offset + c / 64] & bit) == 0)
            continue;
          bool row_dirty = false;
          if (aggregate) {
            const std::uint32_t rep = part.Representative(c);
            for (std::uint32_t m = 1; m < count && !row_dirty; ++m) {
              const Partition& member = segments_[begin + m].partition;
              row_dirty =
                  bucket_dirty(member.Bucket(member.ClassOf(rep)), child);
            }
          } else {
            row_dirty = bucket_dirty(part.Bucket(c), child);
          }
          if (row_dirty) continue;
          grown.known[new_offsets[begin + k] + c / 64] |= bit;
          if (bucket_planes_.value[seg.offset + c / 64] & bit)
            grown.value[new_offsets[begin + k] + c / 64] |= bit;
        }
      }
    }
    bucket_planes_ = std::move(grown);
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      segments_[s].offset = new_offsets[s];
      segments_[s].words = static_cast<std::uint32_t>(
          (segments_[s].partition.NumClasses() + 63) / 64);
    }
  }

  // Whole-space completion flags, CK components, and compiled kernel
  // programs all key off the old id range / plane layout; drop them
  // wholesale (they are rebuilt lazily, and components can merge through
  // new classes).
  std::fill(node_complete_.begin(), node_complete_.end(), 0);
  components_.clear();
  kernel_programs_.clear();

  words_ = new_words;
  synced_size_ = n;
}

bool KnowledgeEvaluator::UseParallel() const noexcept {
  return num_threads_ > 1 && space_.size() >= kMinParallelSpace;
}

internal::WorkerPool& KnowledgeEvaluator::Pool() {
  if (!pool_) pool_ = std::make_unique<internal::WorkerPool>(num_threads_);
  return *pool_;
}

bool KnowledgeEvaluator::Holds(const FormulaPtr& f, std::size_t id) {
  if (!f) throw ModelError("KnowledgeEvaluator::Holds: null formula");
  const FormulaPtr canon = interner_.Intern(f);
  return Eval(canon.get(), id);
}

bool KnowledgeEvaluator::Holds(const FormulaPtr& f, const Computation& x) {
  return Holds(f, space_.RequireIndex(x));
}

const std::uint64_t* KnowledgeEvaluator::EvaluatedValuePlane(
    const FormulaPtr& f) {
  if (!f) throw ModelError("KnowledgeEvaluator: null formula");
  const FormulaPtr canon = interner_.Intern(f);
  const Formula* root = canon.get();
  EvaluateEverywhere(std::span<const Formula* const>(&root, 1));
  return &planes_.value[InternNode(root) * words_];
}

std::vector<std::uint8_t> KnowledgeEvaluator::HoldsAll(const FormulaPtr& f) {
  if (!f) throw ModelError("KnowledgeEvaluator::HoldsAll: null formula");
  std::vector<std::uint8_t> out(space_.size(), 0);
  if (space_.size() == 0) return out;
  const std::uint64_t* value = EvaluatedValuePlane(f);
  for (std::size_t id = 0; id < space_.size(); ++id)
    out[id] = (value[id / 64] >> (id % 64)) & 1;
  return out;
}

std::vector<std::size_t> KnowledgeEvaluator::SatisfyingSet(
    const FormulaPtr& f) {
  if (!f) throw ModelError("KnowledgeEvaluator::SatisfyingSet: null formula");
  std::vector<std::size_t> out;
  if (space_.size() == 0) return out;
  AppendSetBits(EvaluatedValuePlane(f), words_, out);
  return out;
}

std::vector<std::vector<std::size_t>> KnowledgeEvaluator::SatisfyingSets(
    std::span<const FormulaPtr> formulas) {
  for (const FormulaPtr& f : formulas)
    if (!f)
      throw ModelError("KnowledgeEvaluator::SatisfyingSets: null formula");
  std::vector<std::vector<std::size_t>> out(formulas.size());
  if (formulas.empty() || space_.size() == 0) return out;
  // Canonicalize the batch: structurally equal formulas collapse onto one
  // node, one memo row, and (kernels on) one fused program root.  The
  // interner keeps the canonical nodes alive.
  std::vector<const Formula*> roots;
  roots.reserve(formulas.size());
  for (const FormulaPtr& f : formulas)
    roots.push_back(interner_.Intern(f).get());
  EvaluateEverywhere(
      std::span<const Formula* const>(roots.data(), roots.size()));
  for (std::size_t k = 0; k < roots.size(); ++k)
    AppendSetBits(&planes_.value[InternNode(roots[k]) * words_], words_,
                  out[k]);
  return out;
}

bool KnowledgeEvaluator::Knows(ProcessSet p, const Predicate& b,
                               std::size_t id) {
  return Holds(Formula::Knows(p, Formula::Atom(b)), id);
}

bool KnowledgeEvaluator::Sure(ProcessSet p, const Predicate& b,
                              std::size_t id) {
  return Holds(Formula::Sure(p, Formula::Atom(b)), id);
}

bool KnowledgeEvaluator::IsLocalTo(const Predicate& b, ProcessSet p) {
  return IsLocalTo(Formula::Atom(b), p);
}

bool KnowledgeEvaluator::IsLocalTo(const FormulaPtr& f, ProcessSet p) {
  if (!f) throw ModelError("KnowledgeEvaluator::IsLocalTo: null formula");
  if (space_.size() == 0) return true;
  return PlaneIsUniform(EvaluatedValuePlane(Formula::Sure(p, f)),
                        space_.size(), true);
}

bool KnowledgeEvaluator::IsConstant(const FormulaPtr& f) {
  if (!f) throw ModelError("KnowledgeEvaluator::IsConstant: null formula");
  if (space_.size() == 0) return true;
  const std::uint64_t* value = EvaluatedValuePlane(f);
  return PlaneIsUniform(value, space_.size(), (value[0] & 1) != 0);
}

std::uint32_t KnowledgeEvaluator::CommonComponent(ProcessSet g,
                                                  std::size_t id) {
  return Components(g).root.at(id);
}

const KnowledgeEvaluator::ComponentIndex& KnowledgeEvaluator::Components(
    ProcessSet g) {
  auto it = components_.find(g.bits());
  if (it != components_.end()) return it->second;

  ComponentIndex index;
  index.root.resize(space_.size());
  BuildComponentRoots(g, index.root);
  for (std::size_t id = 0; id < space_.size(); ++id)
    index.members[index.root[id]].push_back(static_cast<std::uint32_t>(id));
  return components_.emplace(g.bits(), std::move(index)).first->second;
}

void KnowledgeEvaluator::BuildComponentRoots(ProcessSet g,
                                             std::vector<std::uint32_t>& root) {
  const Partition classes = PartitionOf(g);
  if (g.Size() == 1) {
    // The union of one equivalence relation is that relation: the
    // components are the [p]-classes, labeled by their smallest member.
    for (std::size_t id = 0; id < root.size(); ++id)
      root[id] = classes.Representative(classes.ClassOf(id));
    return;
  }
  // [G]-contracted build: all members of a [G]-class are mutually related
  // through every p in G, so contract them to one union-find node and run
  // the per-process unions over [G]-class representatives — two
  // [G]-classes are p-adjacent iff their representatives share a
  // [p]-class.  O(classes x |G|) unions instead of O(n x |G|).
  const auto num_classes = static_cast<std::uint32_t>(classes.NumClasses());
  UnionFind uf(num_classes);
  g.ForEach([&](ProcessId p) {
    const Partition member = PartitionOf(ProcessSet::Of(p));
    constexpr std::uint32_t kUnset = UINT32_MAX;
    std::vector<std::uint32_t> first(member.NumClasses(), kUnset);
    for (std::uint32_t c = 0; c < num_classes; ++c) {
      const std::uint32_t pc = member.ClassOf(classes.Representative(c));
      if (first[pc] == kUnset)
        first[pc] = c;
      else
        uf.Union(first[pc], c);
    }
  });
  // Label each component by its smallest member id, whatever union order
  // produced the raw roots.
  constexpr std::uint32_t kUnseen = UINT32_MAX;
  std::vector<std::uint32_t> smallest(num_classes, kUnseen);
  for (std::size_t id = 0; id < root.size(); ++id) {
    const std::uint32_t raw = uf.Find(classes.ClassOf(id));
    if (smallest[raw] == kUnseen)
      smallest[raw] = static_cast<std::uint32_t>(id);
    root[id] = smallest[raw];
  }
}

std::uint32_t KnowledgeEvaluator::InternNode(const Formula* f) {
  // find-before-emplace: kernel passes pre-intern every node of the DAG,
  // so the planes never resize while a pass is in flight.
  auto it = node_index_.find(f);
  if (it != node_index_.end()) return it->second;
  // Projection tiers: the node's rows, laid out append-only in the bucket
  // planes.  Their partitions are resolved before any state changes, so a
  // group the partition source rejects leaves the evaluator untouched.  A
  // multi-process group builds (or reuses) its [G]-table here — always on
  // the interning thread, never inside a kernel pass (passes pre-intern
  // their whole DAG).
  std::vector<kernel::Segment> segments;
  const ProcessSet group = f->group();
  const bool multi = group.Size() >= 2;
  const auto add_row = [&](ProcessSet g) {
    segments.push_back(kernel::Segment{.group = g,
                                       .partition = PartitionOf(g),
                                       .group_tier = multi});
  };
  switch (f->kind()) {
    case FormulaKind::kKnows:
    case FormulaKind::kSure:
    case FormulaKind::kPossible:
      if (!group.IsEmpty()) add_row(group);
      break;
    case FormulaKind::kEveryone:
      if (multi) add_row(group);
      group.ForEach([&](ProcessId p) { add_row(ProcessSet::Of(p)); });
      break;
    default:
      break;
  }
  const auto node = static_cast<std::uint32_t>(node_index_.size());
  node_index_.emplace(f, node);
  planes_.known.resize(planes_.known.size() + words_, 0);
  planes_.value.resize(planes_.value.size() + words_, 0);
  node_complete_.push_back(0);
  node_seg_count_.push_back(static_cast<std::uint32_t>(segments.size()));
  node_seg_begin_.push_back(
      segments.empty() ? kNoSegment
                       : static_cast<std::uint32_t>(segments_.size()));
  for (kernel::Segment& seg : segments) {
    seg.offset = static_cast<std::uint32_t>(bucket_planes_.known.size());
    seg.words = static_cast<std::uint32_t>(
        (seg.partition.NumClasses() + 63) / 64);
    bucket_planes_.known.resize(bucket_planes_.known.size() + seg.words, 0);
    bucket_planes_.value.resize(bucket_planes_.value.size() + seg.words, 0);
    segments_.push_back(seg);
  }
  return node;
}

bool KnowledgeEvaluator::BucketVerdict(const Formula* f, std::uint32_t seg,
                                       std::size_t id) {
  const kernel::Segment& row = segments_[seg];
  const std::uint32_t cls = row.partition.ClassOf(id);
  const std::size_t word = row.offset + cls / 64;
  const std::uint64_t bit = std::uint64_t{1} << (cls % 64);
  if (bucket_planes_.known[word] & bit)
    return (bucket_planes_.value[word] & bit) != 0;

  // Miss: sweep the row's bucket once.  The quantifier ranges exactly over
  // the bucket of the row's partition, so the verdict below is the same for
  // every member; memoizing it per class is what collapses a whole-space
  // sweep of this node from sum-of-bucket-squares to linear.
  const Formula* child = f->left().get();
  const bool result =
      Quantify(f->kind(), row.partition.Bucket(cls), [&](std::size_t y) {
    return Eval(child, y);
  });
  bucket_planes_.known[word] |= bit;
  if (result) bucket_planes_.value[word] |= bit;
  return result;
}

bool KnowledgeEvaluator::Eval(const Formula* f, std::size_t id) {
  const std::uint32_t node = InternNode(f);
  const std::size_t word = node * words_ + id / 64;
  const std::uint64_t bit = std::uint64_t{1} << (id % 64);
  if (planes_.known[word] & bit) return (planes_.value[word] & bit) != 0;

  const std::uint32_t seg = node_seg_begin_[node];
  bool result = false;
  switch (f->kind()) {
    case FormulaKind::kAtom: {
      // An atom local to p reads p's projection alone, streamed from the
      // space's projection trie; any other atom reads the computation At()
      // materializes from the columnar store.  The verdict is memoized, so
      // each (atom node, class) pays the read exactly once per evaluator.
      const Predicate& atom = f->atom();
      const ProcessId p = atom.local_process();
      if (p == kNoProcess || p >= space_.num_processes()) {
        result = atom.Eval(space_.At(id));
        break;
      }
      const std::size_t cls =
          space_.PartitionOf(ProcessSet::Of(p)).ClassOf(id);
      space_.ForEachProjection(
          p, cls, cls + 1, [](std::size_t) { return true; },
          [&](std::size_t, std::span<const Event> projection) {
            result = atom.EvalProjection(projection);
          });
      break;
    }
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
    case FormulaKind::kKnows:
    case FormulaKind::kSure:
    case FormulaKind::kPossible: {
      if (seg != kNoSegment) {
        result = BucketVerdict(f, seg, id);
        break;
      }
      // The empty group has no tier row: x [{}] y for every y, so the
      // quantifier ranges over the whole space.
      result = Quantify(f->kind(),
                        std::views::iota(std::size_t{0}, space_.size()),
                        [&](std::size_t y) { return Eval(f->left().get(), y); });
      break;
    }
    case FormulaKind::kCommon: {
      // Greatest fixpoint: f must hold on the entire G-component of id.
      // The verdict is a function of the component, so cache it for every
      // member at once — later probes anywhere in the component are hits.
      const ComponentIndex& components = Components(f->group());
      const std::vector<std::uint32_t>& members =
          components.members.at(components.root[id]);
      result = true;
      for (std::uint32_t y : members) {
        if (!Eval(f->left().get(), y)) {
          result = false;
          break;
        }
      }
      for (std::uint32_t y : members) {
        const std::uint64_t y_bit = std::uint64_t{1} << (y % 64);
        planes_.known[node * words_ + y / 64] |= y_bit;
        if (result)
          planes_.value[node * words_ + y / 64] |= y_bit;
        else
          planes_.value[node * words_ + y / 64] &= ~y_bit;
      }
      return result;
    }
    case FormulaKind::kEveryone: {
      // Conjunction of the individual K{p} over the group, each conjunct a
      // singleton tier row of this node.
      const std::uint32_t count = node_seg_count_[node];
      if (count == 1) {
        result = BucketVerdict(f, seg, id);  // E{p} == K{p}
        break;
      }
      // Multi-process: row `seg` is the [G]-aggregation row — probe it, fill
      // from the per-member rows on a miss.  The verdict is constant on the
      // [G]-class because [G] refines every member [p].
      const std::uint32_t cls = segments_[seg].partition.ClassOf(id);
      const std::size_t agg_word = segments_[seg].offset + cls / 64;
      const std::uint64_t agg_bit = std::uint64_t{1} << (cls % 64);
      if (bucket_planes_.known[agg_word] & agg_bit) {
        result = (bucket_planes_.value[agg_word] & agg_bit) != 0;
        break;
      }
      result = true;
      for (std::uint32_t k = 1; k < count && result; ++k)
        result = BucketVerdict(f, seg + k, id);
      bucket_planes_.known[agg_word] |= agg_bit;
      if (result) bucket_planes_.value[agg_word] |= agg_bit;
      break;
    }
  }
  planes_.known[word] |= bit;
  if (result) planes_.value[word] |= bit;
  return result;
}

void KnowledgeEvaluator::EvaluateEverywhere(
    std::span<const Formula* const> all_roots) {
  // Roots completed by earlier passes answer from their planes already.
  std::vector<const Formula*> roots;
  roots.reserve(all_roots.size());
  for (const Formula* root : all_roots)
    if (!node_complete_[InternNode(root)]) roots.push_back(root);
  if (roots.empty()) return;
  if (compiled_kernels_ && EvaluateEverywhereKernel(roots)) return;
  // Sequential completion: the lazy recursion over the planes, id-outer so
  // shared subformulas stay memo-warm across a multi-root batch.  This is
  // where a kernel profitability refusal lands — the short-circuiting
  // interpreter touches only the child bits the quantifiers demand, where
  // the kernel would materialize every subformula plane in full.
  for (auto cur = space_.Classes(0, SIZE_MAX, space_.out_of_core());
       cur.Valid(); cur.Next())
    for (std::size_t id = cur.begin(); id < cur.end(); ++id)
      for (const Formula* root : roots) Eval(root, id);
  for (const Formula* root : roots) node_complete_[InternNode(root)] = 1;
}

bool KnowledgeEvaluator::EvaluateEverywhereKernel(
    std::span<const Formula* const> roots) {
  // Fused postorder over the combined DAG, stopping at whole-space-complete
  // subformulas — the compiler reads those as dense leaves, so their
  // subtrees never re-lower.
  std::vector<const Formula*> order;
  {
    std::unordered_set<const Formula*> seen;
    auto walk = [&](auto&& self, const Formula* f) -> void {
      if (f == nullptr || !seen.insert(f).second) return;
      const auto it = node_index_.find(f);
      const bool complete =
          it != node_index_.end() && node_complete_[it->second] != 0;
      if (!complete) {
        self(self, f->left().get());
        self(self, f->right().get());
      }
      order.push_back(f);
    };
    for (const Formula* root : roots) walk(walk, root);
  }
  for (const Formula* f : order) InternNode(f);

  // Profitability: a lone modal root with no worker pool is better served
  // by the lazy interpreter — the kernel computes every subformula plane at
  // every id, while the short-circuiting recursion touches only the atom
  // bits its quantifiers demand (measured ~5x on shallow one-shot `check`
  // queries).  Pure-boolean programs, fused multi-root batches, and
  // parallel passes all need (or amortize) the eager planes, so they stay
  // on the kernel.
  if (roots.size() == 1 && !UseParallel()) {
    for (const Formula* f : order) {
      switch (f->kind()) {
        case FormulaKind::kKnows:
        case FormulaKind::kSure:
        case FormulaKind::kEveryone:
        case FormulaKind::kCommon:
        case FormulaKind::kPossible:
          if (!node_complete_[InternNode(f)]) return false;
          break;
        default:
          break;
      }
    }
  }

  std::vector<std::uint32_t> key;
  key.reserve(roots.size());
  for (const Formula* root : roots) key.push_back(InternNode(root));
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());

  kernel::KernelProgram* program = nullptr;
  const auto cached = kernel_programs_.find(key);
  if (cached != kernel_programs_.end()) {
    program = &cached->second;
  } else {
    std::vector<kernel::CompileNode> nodes;
    nodes.reserve(order.size());
    for (const Formula* f : order) {
      kernel::CompileNode cn;
      cn.f = f;
      cn.node = InternNode(f);
      cn.complete = node_complete_[cn.node] != 0;
      cn.seg_begin = node_seg_begin_[cn.node];
      nodes.push_back(cn);
    }
    kernel::KernelProgram fresh;
    if (!kernel::Compile(nodes, key, /*local_atoms=*/view_ == nullptr,
                         &fresh))
      return false;
    program =
        &kernel_programs_.emplace(std::move(key), std::move(fresh))
             .first->second;
  }

  // Pre-build the CK component labels on this thread; the executor only
  // reads them.
  for (const kernel::Op& op : program->ops)
    if (op.code == kernel::OpCode::kCkComponent) Components(op.node->group());

  kernel::ExecContext ctx;
  ctx.space = &space_;
  ctx.n = space_.size();
  ctx.words = words_;
  ctx.dense_known = planes_.known.data();
  ctx.dense_value = planes_.value.data();
  ctx.bucket_known = bucket_planes_.known.data();
  ctx.bucket_value = bucket_planes_.value.data();
  ctx.segments = segments_.data();
  ctx.ck_roots = [this](const Formula* f) -> std::span<const std::uint32_t> {
    const ComponentIndex& c = components_.at(f->group().bits());
    return std::span<const std::uint32_t>(c.root.data(), c.root.size());
  };
  ctx.pool = UseParallel() ? &Pool() : nullptr;
  ctx.worker_regs = &kernel_worker_regs_;
  ctx.comp_scratch = &kernel_comp_scratch_;
  kernel::Execute(*program, ctx);

  for (const std::uint32_t node : program->completed) node_complete_[node] = 1;
  return true;
}

std::size_t KnowledgeEvaluator::memo_size() const noexcept {
  return Popcount(planes_.known);
}

KnowledgeEvaluator::MemoStats KnowledgeEvaluator::MemoryUsage() const {
  MemoStats s;
  s.dense_entries = Popcount(planes_.known);
  s.bytes_dense =
      (planes_.known.capacity() + planes_.value.capacity()) * sizeof(std::uint64_t);
  // The shared bucket planes interleave [p]-tier rows (singleton nodes) and
  // [G]-tier rows (multi-process nodes); attribute words and known-bit
  // popcounts per segment.
  for (const kernel::Segment& row : segments_) {
    std::size_t entries = 0;
    for (std::uint32_t w = 0; w < row.words; ++w)
      entries += static_cast<std::size_t>(
          __builtin_popcountll(bucket_planes_.known[row.offset + w]));
    const std::size_t bytes = 2 * row.words * sizeof(std::uint64_t);
    if (row.group_tier) {
      s.group_entries += entries;
      s.bytes_group += bytes;
    } else {
      s.bucket_entries += entries;
      s.bytes_bucket += bytes;
    }
  }
  s.kernel_programs = kernel_programs_.size();
  for (const auto& [key, program] : kernel_programs_) {
    s.kernel_ops += program.ops.size();
    s.bytes_kernel +=
        program.MemoryBytes() + key.capacity() * sizeof(std::uint32_t);
  }
  for (const auto& pool : kernel_worker_regs_)
    for (const auto& reg : pool)
      s.bytes_kernel += reg.capacity() * sizeof(std::uint64_t);
  s.bytes_kernel += kernel_comp_scratch_.capacity() * sizeof(std::uint64_t);
  s.bytes_total =
      s.bytes_dense + s.bytes_bucket + s.bytes_group + s.bytes_kernel;
  return s;
}

}  // namespace hpl
