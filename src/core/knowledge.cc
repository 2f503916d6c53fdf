#include "core/knowledge.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <ranges>
#include <string>
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

using Bits = std::vector<std::uint64_t>;

// The ids of the set bits of a plane, ascending.
std::vector<std::size_t> SetBits(std::span<const std::uint64_t> plane) {
  std::vector<std::size_t> out;
  ForEachSetBit(plane, [&](std::size_t id) { out.push_back(id); });
  return out;
}

// The classes of `part` whose quantifier verdicts may have changed when
// the space grew from `old_n` to `n` ids: a verdict over a class is a
// function of its bucket's child verdicts, so it can change only if the
// bucket gained a new id or holds an old id set in `child_dirty`.  One
// pass over those ids, as a class bitmap.
Bits DirtyClasses(const Partition& part, const Bits& child_dirty,
                  std::size_t old_n, std::size_t n) {
  Bits classes((part.NumClasses() + 63) / 64, 0);
  const auto mark = [&](std::size_t id) {
    const std::uint32_t c = part.ClassOf(id);
    classes[c / 64] |= std::uint64_t{1} << (c % 64);
  };
  ForEachSetBit(child_dirty, mark);
  for (std::size_t id = old_n; id < n; ++id) mark(id);
  return classes;
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

  // The dirty classes of each (group, child node) quantifier, computed
  // once: the dense cones gather from them and the tier rows mask by them.
  std::unordered_map<const Formula*, Bits> dirty;
  std::map<std::pair<std::uint64_t, const Formula*>, Bits> dirty_classes;
  const auto classes_of = [&](ProcessSet g,
                              const Formula* child) -> const Bits& {
    auto [it, fresh] = dirty_classes.try_emplace({g.bits(), child});
    if (fresh)
      it->second = DirtyClasses(PartitionOf(g), dirty.at(child), old_n, n);
    return it->second;
  };
  const auto gather = [&](ProcessSet g, const Formula* child, Bits& bits) {
    const Partition part = PartitionOf(g);
    ForEachSetBit(classes_of(g, child), [&](std::size_t c) {
      for (const std::uint32_t y : part.Bucket(static_cast<std::uint32_t>(c))) {
        if (y >= old_n) break;  // buckets ascend: the rest are new ids
        bits[y / 64] |= std::uint64_t{1} << (y % 64);
      }
    });
  };
  const auto mark_all = [&](Bits& bits) {
    for (std::size_t w = 0; w < old_words; ++w)
      bits[w] = LiveWordMask(old_n, w);
  };

  // Bottom-up dirty cones over the OLD id range, memoized per subformula:
  // the old ids where the node's verdict may differ from before the
  // growth.  Atoms are pure functions of the computation, so they are never
  // dirty; propositional nodes are dirty where a child is; modal nodes are
  // dirty on the old members of their dirty classes (Everyone: of each
  // member's).  The empty group relates every class and CK components can
  // merge through new classes, so empty-group Knows/Sure/Possible and
  // kCommon are dirty everywhere.
  auto dirty_of = [&](auto&& self, const Formula* f) -> const Bits& {
    if (const auto it = dirty.find(f); it != dirty.end()) return it->second;
    Bits bits(old_words, 0);
    const Formula* child = f->left().get();
    switch (f->kind()) {
      case FormulaKind::kAtom:
        break;
      case FormulaKind::kNot:
        bits = self(self, child);
        break;
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
      case FormulaKind::kImplies: {
        bits = self(self, child);
        const Bits& rhs = self(self, f->right().get());
        for (std::size_t w = 0; w < old_words; ++w) bits[w] |= rhs[w];
        break;
      }
      case FormulaKind::kKnows:
      case FormulaKind::kSure:
      case FormulaKind::kPossible:
        self(self, child);
        if (f->group().IsEmpty())
          mark_all(bits);
        else
          gather(f->group(), child, bits);
        break;
      case FormulaKind::kEveryone:
        self(self, child);
        f->group().ForEach(
            [&](ProcessId p) { gather(ProcessSet::Of(p), child, bits); });
        break;
      case FormulaKind::kCommon:
        mark_all(bits);
        break;
    }
    return dirty.emplace(f, std::move(bits)).first->second;
  };

  // Dense planes: re-layout every node row from old_words to new_words,
  // keeping known bits wherever the node's cone is clean.  New ids land in
  // the zeroed tail (unknown), exactly like a fresh evaluator.
  MemoPlanes dense;
  dense.known.assign(node_index_.size() * new_words, 0);
  dense.value.assign(node_index_.size() * new_words, 0);
  for (const auto& [f, node] : node_index_) {
    const Bits& d = dirty_of(dirty_of, f);
    for (std::size_t w = 0; w < old_words; ++w) {
      dense.known[node * new_words + w] =
          planes_.known[node * old_words + w] & ~d[w];
      dense.value[node * new_words + w] =
          planes_.value[node * old_words + w] & ~d[w];
    }
  }
  planes_ = std::move(dense);

  // Tier rows, re-laid out for the grown class counts: a row cell survives
  // iff its class is clean.
  std::vector<std::uint32_t> new_offsets(segments_.size());
  std::size_t tier_words = 0;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    new_offsets[s] = static_cast<std::uint32_t>(tier_words);
    tier_words += (segments_[s].partition.NumClasses() + 63) / 64;
  }
  MemoPlanes tier;
  tier.known.assign(tier_words, 0);
  tier.value.assign(tier_words, 0);
  for (const auto& [f, node] : node_index_) {
    const std::uint32_t begin = node_seg_begin_[node];
    if (begin == kNoSegment) continue;
    const Formula* child = f->left().get();
    const std::uint32_t count = node_seg_count_[node];
    for (std::uint32_t k = 0; k < count; ++k) {
      const kernel::Segment& seg = segments_[begin + k];
      const std::uint64_t* known = &bucket_planes_.known[seg.offset];
      const std::uint64_t* value = &bucket_planes_.value[seg.offset];
      std::uint64_t* kept_known = &tier.known[new_offsets[begin + k]];
      std::uint64_t* kept_value = &tier.value[new_offsets[begin + k]];
      const Bits& d = classes_of(seg.group, child);
      for (std::uint32_t w = 0; w < seg.words; ++w) {
        kept_known[w] = known[w] & ~d[w];
        kept_value[w] = value[w] & kept_known[w];
      }
    }
  }
  bucket_planes_ = std::move(tier);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    segments_[s].offset = new_offsets[s];
    segments_[s].words = static_cast<std::uint32_t>(
        (segments_[s].partition.NumClasses() + 63) / 64);
  }

  // Whole-space completion flags and CK components key off the old id
  // range; drop them wholesale (they are rebuilt lazily, and components can
  // merge through new classes).  The compile counters restart with them.
  std::fill(node_complete_.begin(), node_complete_.end(), 0);
  components_.clear();
  kernel_programs_ = 0;
  kernel_ops_ = 0;

  words_ = new_words;
  synced_size_ = n;
}

void KnowledgeEvaluator::RequireId(std::size_t id, const char* query) const {
  if (id >= space_.size())
    throw ModelError("KnowledgeEvaluator::" + std::string(query) +
                     ": class id " + std::to_string(id) +
                     " is out of range (the space has " +
                     std::to_string(space_.size()) + " classes)");
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
  RequireId(id, "Holds");
  const FormulaPtr canon = interner_.Intern(f);
  return Eval(canon.get(), id);
}

bool KnowledgeEvaluator::Holds(const FormulaPtr& f, const Computation& x) {
  return Holds(f, space_.RequireIndex(x));
}

std::span<const std::uint64_t> KnowledgeEvaluator::SatisfyingBits(
    const FormulaPtr& f) {
  return SatisfyingBits(std::span<const FormulaPtr>(&f, 1))[0];
}

std::vector<std::span<const std::uint64_t>> KnowledgeEvaluator::SatisfyingBits(
    std::span<const FormulaPtr> formulas) {
  for (const FormulaPtr& f : formulas)
    if (!f)
      throw ModelError("KnowledgeEvaluator::SatisfyingBits: null formula");
  std::vector<std::span<const std::uint64_t>> out(formulas.size());
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
  // Every root is interned now, so the planes no longer move.
  for (std::size_t k = 0; k < roots.size(); ++k)
    out[k] = {&planes_.value[InternNode(roots[k]) * words_], words_};
  return out;
}

std::vector<std::uint8_t> KnowledgeEvaluator::HoldsAll(const FormulaPtr& f) {
  std::vector<std::uint8_t> out(space_.size(), 0);
  ForEachSetBit(SatisfyingBits(f), [&](std::size_t id) { out[id] = 1; });
  return out;
}

std::vector<std::size_t> KnowledgeEvaluator::SatisfyingSet(
    const FormulaPtr& f) {
  return SetBits(SatisfyingBits(f));
}

std::vector<std::vector<std::size_t>> KnowledgeEvaluator::SatisfyingSets(
    std::span<const FormulaPtr> formulas) {
  std::vector<std::vector<std::size_t>> out;
  out.reserve(formulas.size());
  for (const std::span<const std::uint64_t> plane : SatisfyingBits(formulas))
    out.push_back(SetBits(plane));
  return out;
}

bool KnowledgeEvaluator::Knows(ProcessSet p, const Predicate& b,
                               std::size_t id) {
  RequireId(id, "Knows");
  return Holds(Formula::Knows(p, Formula::Atom(b)), id);
}

bool KnowledgeEvaluator::Sure(ProcessSet p, const Predicate& b,
                              std::size_t id) {
  RequireId(id, "Sure");
  return Holds(Formula::Sure(p, Formula::Atom(b)), id);
}

bool KnowledgeEvaluator::IsLocalTo(const Predicate& b, ProcessSet p) {
  return IsLocalTo(Formula::Atom(b), p);
}

bool KnowledgeEvaluator::IsLocalTo(const FormulaPtr& f, ProcessSet p) {
  if (!f) throw ModelError("KnowledgeEvaluator::IsLocalTo: null formula");
  if (space_.size() == 0) return true;
  return PlaneIsUniform(SatisfyingBits(Formula::Sure(p, f)).data(),
                        space_.size(), true);
}

bool KnowledgeEvaluator::IsConstant(const FormulaPtr& f) {
  if (!f) throw ModelError("KnowledgeEvaluator::IsConstant: null formula");
  if (space_.size() == 0) return true;
  const std::uint64_t* value = SatisfyingBits(f).data();
  return PlaneIsUniform(value, space_.size(), (value[0] & 1) != 0);
}

std::uint32_t KnowledgeEvaluator::CommonComponent(ProcessSet g,
                                                  std::size_t id) {
  RequireId(id, "CommonComponent");
  const Partition components = Components(g);
  return components.Representative(components.ClassOf(id));
}

Partition KnowledgeEvaluator::Components(ProcessSet g) {
  // The union of one equivalence relation is that relation: the
  // components are the [p]-classes.
  if (g.Size() == 1) return PartitionOf(g);
  auto it = components_.find(g.bits());
  if (it != components_.end()) return it->second.View();

  // Union the first member's [p]-classes: each other member's bucket joins
  // the first-member classes of its ids, so a component is a union of
  // first-member classes.  One pass over each member's buckets, with the
  // first member's class per id scattered from its own; no [G]-table.
  const ProcessId first = g.First();
  const Partition base = PartitionOf(ProcessSet::Of(first));
  internal::PartitionTable table;
  std::vector<std::uint32_t>& cls = table.cls;
  cls.resize(space_.size());
  for (std::uint32_t c = 0; c < base.NumClasses(); ++c)
    for (const std::uint32_t id : base.Bucket(c)) cls[id] = c;
  UnionFind uf(base.NumClasses());
  g.Minus(ProcessSet::Of(first)).ForEach([&](ProcessId p) {
    const Partition member = PartitionOf(ProcessSet::Of(p));
    for (std::uint32_t c = 0; c < member.NumClasses(); ++c) {
      const std::span<const std::uint32_t> bucket = member.Bucket(c);
      for (const std::uint32_t id : bucket.subspan(1))
        uf.Union(cls[bucket.front()], cls[id]);
    }
  });
  // Number the components by first occurrence over ascending ids, whatever
  // union order produced the raw roots, so each component's representative
  // is its smallest member.
  constexpr std::uint32_t kUnseen = UINT32_MAX;
  std::vector<std::uint32_t> number(base.NumClasses(), kUnseen);
  std::uint32_t next = 0;
  for (std::uint32_t& c : cls) {
    std::uint32_t& component = number[uf.Find(c)];
    if (component == kUnseen) component = next++;
    c = component;
  }
  table.Fill(next);
  return components_.emplace(g.bits(), std::move(table)).first->second.View();
}

std::uint32_t KnowledgeEvaluator::InternNode(const Formula* f) {
  // find-before-emplace: kernel passes pre-intern every node of the DAG,
  // so the planes never resize while a pass is in flight.
  auto it = node_index_.find(f);
  if (it != node_index_.end()) return it->second;
  // Projection tiers: the node's rows, laid out append-only in the bucket
  // planes.  Their partitions are resolved before any state changes, so a
  // group the partition source rejects leaves the evaluator untouched.  A
  // multi-process Knows / Sure / Possible builds (or reuses) its [G]-table
  // here — always on the interning thread, never inside a kernel pass
  // (passes pre-intern their whole DAG).  Everyone ranges over its
  // members' [p]-relations only, so it never needs one.
  std::vector<kernel::Segment> segments;
  const ProcessSet group = f->group();
  const auto add_row = [&](ProcessSet g) {
    segments.push_back(kernel::Segment{.group = g,
                                       .partition = PartitionOf(g),
                                       .group_tier = group.Size() >= 2});
  };
  switch (f->kind()) {
    case FormulaKind::kKnows:
    case FormulaKind::kSure:
    case FormulaKind::kPossible:
      if (!group.IsEmpty()) add_row(group);
      break;
    case FormulaKind::kEveryone:
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
  const bool result = kernel::Quantify(
      kernel::QuantOf(f->kind()), row.partition.Bucket(cls),
      [&](std::size_t y) { return Eval(child, y); });
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
      result = kernel::Quantify(
          kernel::QuantOf(f->kind()),
          std::views::iota(std::size_t{0}, space_.size()),
          [&](std::size_t y) { return Eval(f->left().get(), y); });
      break;
    }
    case FormulaKind::kCommon: {
      // Greatest fixpoint: f must hold on the entire G-component of id.
      // The verdict is a function of the component, so cache it for every
      // member at once — later probes anywhere in the component are hits.
      const Partition components = Components(f->group());
      const std::span<const std::uint32_t> members =
          components.Bucket(components.ClassOf(id));
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
    case FormulaKind::kEveryone:
      // Conjunction of the individual K{p} over the group, each conjunct a
      // singleton tier row of this node.
      result = true;
      for (std::uint32_t k = 0; k < node_seg_count_[node] && result; ++k)
        result = BucketVerdict(f, seg + k, id);
      break;
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
  // shared subformulas stay memo-warm across a multi-root batch.
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

  // One shape stays on the interpreter: with no worker pool, a lone root
  // that quantifies and loads a non-local atom.  The kernel evaluates such
  // an atom at every id (a local atom costs one evaluation per projection
  // class), while the interpreter's buckets stop at the first member that
  // decides them and evaluate a fraction of the ids.
  if (roots.size() == 1 && !UseParallel()) {
    bool modal = false, nonlocal_atom = false;
    for (const Formula* f : order) {
      if (node_complete_[InternNode(f)]) continue;
      switch (f->kind()) {
        case FormulaKind::kAtom:
          nonlocal_atom |= f->atom().local_process() == kNoProcess;
          break;
        case FormulaKind::kNot:
        case FormulaKind::kAnd:
        case FormulaKind::kOr:
        case FormulaKind::kImplies:
          break;
        default:
          modal = true;
      }
    }
    if (modal && nonlocal_atom) return false;
  }

  // Every root is incomplete here and complete once the program has run,
  // so a program is compiled for one run and dropped.
  std::vector<std::uint32_t> root_nodes;
  root_nodes.reserve(roots.size());
  for (const Formula* root : roots) root_nodes.push_back(InternNode(root));
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
  const kernel::KernelProgram program =
      kernel::Compile(nodes, root_nodes, /*local_atoms=*/view_ == nullptr);
  ++kernel_programs_;
  kernel_ops_ += program.ops.size();

  // Pre-build the CK component partitions on this thread; the executor
  // only reads them.
  for (const kernel::Op& op : program.ops)
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
  ctx.ck_components = [this](const Formula* f) {
    return Components(f->group());
  };
  ctx.pool = UseParallel() ? &Pool() : nullptr;
  ctx.worker_regs = &kernel_worker_regs_;
  ctx.comp_scratch = &kernel_comp_scratch_;
  kernel::Execute(program, ctx);

  for (const std::uint32_t node : program.completed) node_complete_[node] = 1;
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
  s.kernel_programs = kernel_programs_;
  s.kernel_ops = kernel_ops_;
  for (const auto& pool : kernel_worker_regs_)
    for (const auto& reg : pool)
      s.bytes_kernel += reg.capacity() * sizeof(std::uint64_t);
  s.bytes_kernel += kernel_comp_scratch_.capacity() * sizeof(std::uint64_t);
  for (const auto& [bits, table] : components_)
    s.bytes_components += table.MemoryBytes();
  s.bytes_total = s.bytes_dense + s.bytes_bucket + s.bytes_group +
                  s.bytes_kernel + s.bytes_components;
  return s;
}

}  // namespace hpl
