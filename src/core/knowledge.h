// Knowledge evaluation (paper Section 4): a model checker for epistemic
// formulas over the finite computation space of a system.
//
//   (P knows b) at x  ==  for all y: x [P] y : b at y
//
// with the quantifier ranging over *all* computations of the system — hence
// evaluation happens against a fully enumerated ComputationSpace.
//
// Evaluation is memoized per (formula node, [D]-class) through a dense
// two-plane bitset: formula nodes are interned to dense indexes on first
// sight, and each node owns one "known" and one "value" bit per class —
// a cache probe is two word reads instead of a hash lookup.
//
// A second memo tier is granular at the *projection class*: for Knows /
// Sure / Possible over a singleton {p} the quantifier ranges exactly over
// the [p]-bucket of x, so the verdict is constant across the bucket.  Those
// nodes memo per (node, [p]-class) and sweep each bucket once per node
// instead of once per member, collapsing the dominant single-process
// K-sweep cost from the sum of squared bucket sizes to linear in the space.
//
// A third memo tier covers multi-process groups through the [G]-class
// layer (ComputationSpace::EnsureGroupIndex — the common refinement of the
// member [p]-partitions): the [G]-relation of
// Knows/Sure/Possible over |G| >= 2 is exactly the [G]-bucket of x, so
// those nodes memo per (node, [G]-class) and sweep each [G]-bucket once per
// node instead of once per member — the same sum-of-bucket-squares ->
// linear collapse, now for group modalities.  Everyone(G, f) with |G| >= 2
// is a conjunction of singleton K{p} whose verdict is constant on the
// (finer) [G]-class; the tier gives it one [G]-aggregation row probed in
// O(1) plus one per-member [p]-row per conjunct.  Common-knowledge
// components over |G| >= 2 are built through the [G]-index too:
// [G]-classes are contracted first and the per-process unions run over
// [G]-class representatives instead of every computation.
//
// Both tiers are always on.  The only modal nodes without tier rows are
// Knows / Sure / Possible over the empty group, which relate every class
// (x [{}] y for all x, y) and sweep the whole space directly.
//
// Every relation a quantifier ranges over is read through one type, the
// Partition view (space.h): ClassOf, NumClasses, Bucket, Representative.
// The evaluator takes its partitions from one source, chosen once at
// construction: the space's [p]- and [G]-partitions
// (ComputationSpace::PartitionOf), or — for the evaluator built over a
// StateView — the view's state partitions (paper Section 6, state-based
// isomorphism).  Every tier, kernel and Refresh rule below holds for any
// source whose multi-process partitions refine their members', so
// state-based K, Sure, M, E and CK run through this same engine.  Views are
// resolved at intern, Refresh and component-build time, never per id; each
// tier row keeps its view, and Refresh re-resolves them all because the
// space's columns reallocate when it grows.  A group that is empty (where
// a partition is required) or names a process outside the system throws
// ModelError from the source.
//
// Common knowledge CK{G} f is the greatest fixpoint "f and (p knows CK f)
// for all p in G", computed as: f holds at every computation reachable from
// x through the union of the [p] relations, p in G — i.e. on x's whole
// connected component of the "G-indistinguishability" graph; the verdict is
// constant per component and is cached for the entire component at once.
// For G = {p} the components are the [p]-classes themselves.
//
// Two engines answer queries.  Pointwise Holds runs the lazy interpreter
// (Eval), which short-circuits quantifiers and touches only the memo bits it
// needs.  Whole-space queries (SatisfyingSet(s), HoldsAll, IsLocalTo,
// IsConstant) memoize every root at every class id and read the value
// plane: they lower to compiled kernels (kernel.h), range-sharded over
// KnowledgeOptions::num_threads workers, and fall back to one sequential
// lazy pass when kernels are off, the compiler refuses the DAG, or the
// profitability dispatch keeps a lone modal root on the interpreter.  Both
// engines read the same tier rows and partitions.  Common-knowledge
// component labels are the smallest member id of each component, whatever
// the union order, so results are byte-identical at any thread count.
// Kernel atom loads call Predicate::Eval concurrently from multiple
// threads, which is safe for every predicate in the repo because predicates
// are pure functions of the computation; custom predicates must preserve
// that (no mutable state inside Eval).
#ifndef HPL_CORE_KNOWLEDGE_H_
#define HPL_CORE_KNOWLEDGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/formula.h"
#include "core/kernel.h"
#include "core/space.h"

namespace hpl {

class StateView;  // state_view.h

struct KnowledgeOptions {
  // Worker threads for compiled whole-space queries.  0 = hardware
  // concurrency (at least 1); 1 = run inline.  Any value produces
  // byte-identical query results (see the header comment); spaces smaller
  // than an internal threshold always run inline.
  int num_threads = 0;
  // Lowers whole-space queries to compiled kernel programs (kernel.h): the
  // formula DAG becomes a flat postorder array of bitset ops executed
  // word-at-a-time over the memo planes, with constant / local-formula
  // folding, instead of the per-(node, id) interpreted recursion.  Programs
  // are cached per root-set and invalidated by Refresh().  The dispatch
  // keeps one case on the lazy interpreter even when this is on: a lone
  // modal root with no worker pool, where short-circuiting quantifiers beat
  // eager plane materialization.  Off, whole-space queries run one
  // sequential interpreted pass; pointwise Holds always does.  Verdicts are
  // byte-identical either way, at any thread count.
  bool compiled_kernels = true;
};

class KnowledgeEvaluator {
 public:
  explicit KnowledgeEvaluator(const ComputationSpace& space,
                              const KnowledgeOptions& options = {});
  // State-based knowledge (state_view.h): the same engine over
  // `view.space()`, with every quantifier ranging over the view's state
  // partitions instead of the space's [p]/[G]-partitions.  The view must
  // outlive the evaluator; Refresh throws once the space grew past it.
  explicit KnowledgeEvaluator(const StateView& view,
                              const KnowledgeOptions& options = {});
  ~KnowledgeEvaluator();

  KnowledgeEvaluator(const KnowledgeEvaluator&) = delete;
  KnowledgeEvaluator& operator=(const KnowledgeEvaluator&) = delete;

  // Truth of `f` at the computation with class id `id`.
  bool Holds(const FormulaPtr& f, std::size_t id);

  // Truth at a computation given by value (must be in the space).
  bool Holds(const FormulaPtr& f, const Computation& x);

  // Batch Holds: truth of `f` at every class id (1 = holds), read off the
  // value plane of one whole-space pass.
  std::vector<std::uint8_t> HoldsAll(const FormulaPtr& f);

  // All class ids at which `f` holds, ascending.
  std::vector<std::size_t> SatisfyingSet(const FormulaPtr& f);

  // Fused multi-formula sweep: the satisfying sets of every formula in the
  // batch, in input order, computed in ONE pass over the class-id range
  // instead of one whole-space pass per formula.  The batch shares a single
  // plane-stack per columnar sweep — subformula nodes common to several
  // formulas (or memoized by earlier queries) are evaluated once and hit
  // the dense memo for every other root — so a batch of N related formulas
  // costs roughly one sweep plus N plane reads, not N sweeps.  Results are
  // byte-identical to calling SatisfyingSet per formula, at any thread
  // count.  Null formulas throw; an empty batch
  // returns an empty vector.
  std::vector<std::vector<std::size_t>> SatisfyingSets(
      std::span<const FormulaPtr> formulas);

  // (P knows b) at id, for a plain predicate.
  bool Knows(ProcessSet p, const Predicate& b, std::size_t id);

  // (P sure b) at id  ==  K_P b || K_P !b.
  bool Sure(ProcessSet p, const Predicate& b, std::size_t id);

  // "b is local to P"  ==  for all x: (P sure b) at x   (Section 4.2).
  bool IsLocalTo(const Predicate& b, ProcessSet p);
  bool IsLocalTo(const FormulaPtr& f, ProcessSet p);

  // "b is a constant"  ==  b at x == b at y for all x, y.
  bool IsConstant(const FormulaPtr& f);

  // Common knowledge components: id of the connected component of the
  // G-indistinguishability graph containing `id`.  Labels are canonical —
  // the smallest class id in the component — so they are identical at any
  // thread count.  Throws ModelError for an empty `g` (as Formula::Common
  // does) or one naming a process outside the system.
  std::uint32_t CommonComponent(ProcessSet g, std::size_t id);

  const ComputationSpace& space() const noexcept { return space_; }

  // Frontier-aware invalidation after the underlying space grew (a
  // SpaceBuilder::Deepen or Ingest on the space this evaluator wraps).
  // Memoized verdicts survive wherever they provably cannot have changed:
  // a (node, class) verdict is recomputed only when the node's modal cone
  // is touched — its quantifier bucket gained a new member, or a
  // transitively dirty subformula verdict lies inside that bucket.  Atoms
  // and propositional combinations of clean verdicts are kept as-is;
  // common-knowledge nodes invalidate everywhere (new classes can merge
  // indistinguishability components).  The bucket/group tier rows are
  // re-laid out for the grown class counts with the same keep/clear rule.
  // Verdicts after Refresh are byte-identical to a fresh evaluator over
  // the grown space.  Call it after every Deepen or Ingest, even one that
  // added no class: the partition views the memo rows hold go stale.  An
  // evaluator over a StateView throws ModelError instead once the space
  // grew (the view's state classes cover only the old ids).  Not
  // thread-safe against concurrent queries.
  void Refresh();

  // Exact number of (interned formula node, [D]-class) pairs whose verdict
  // is memoized, i.e. the popcount of the "known" plane.  Its value depends
  // on the engine that answered: a kernel pass completes every plane it
  // computes, while the lazy interpreter memoizes only the (node, id) pairs
  // its short-circuiting quantifiers reached.  Exposed for the perf
  // benchmarks.
  std::size_t memo_size() const noexcept;

  // Memo footprint and fill, split by tier: the dense (node, [D]-class)
  // planes, the (node, [p]-class) rows of singleton-group nodes, and the
  // [G]-tier rows of multi-process nodes (their [G]-class rows plus, for
  // Everyone, the per-member conjunct rows).  Bytes are the allocated row
  // sizes; entries are known-bit popcounts.
  struct MemoStats {
    std::size_t dense_entries = 0;
    std::size_t bucket_entries = 0;
    std::size_t group_entries = 0;
    // Compiled kernel cache: program count, total ops across programs, and
    // the bytes held by programs plus the persistent register-plane pools.
    std::size_t kernel_programs = 0;
    std::size_t kernel_ops = 0;
    std::size_t bytes_dense = 0;
    std::size_t bytes_bucket = 0;
    std::size_t bytes_group = 0;
    std::size_t bytes_kernel = 0;
    std::size_t bytes_total = 0;
  };
  MemoStats MemoryUsage() const;

  // The evaluator's structural interner: every formula handed to a query is
  // canonicalized through it, so structurally equal formulas from different
  // parses share one node, one memo row, and one compiled program.
  const FormulaInterner& interner() const noexcept { return interner_; }

 private:
  // Connected components of the union of [p] relations for one group.
  struct ComponentIndex {
    std::vector<std::uint32_t> root;  // per class id: smallest member id
    // root -> all member ids ascending (including the root itself).
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> members;
  };

  // Dense memo planes: `known` and `value` bits, node-major.
  struct MemoPlanes {
    std::vector<std::uint64_t> known;
    std::vector<std::uint64_t> value;
  };

  static constexpr std::uint32_t kNoSegment = UINT32_MAX;

  bool Eval(const Formula* f, std::size_t id);
  // The projection-tier probe/sweep for segment `seg`: returns the memoized
  // verdict of `f`'s quantifier over the bucket of `id` in the row's
  // partition, sweeping the bucket once on a miss.  Not used for the
  // [G]-aggregation row of a multi-process Everyone, which Eval fills from
  // the member rows.
  bool BucketVerdict(const Formula* f, std::uint32_t seg, std::size_t id);
  std::uint32_t InternNode(const Formula* f);
  const ComponentIndex& Components(ProcessSet g);
  void BuildComponentRoots(ProcessSet g, std::vector<std::uint32_t>& root);
  // The partition a quantifier over `g` ranges over: the view's state
  // partition when the evaluator has one, the space's [g]-partition
  // otherwise.  The one place the source is chosen; called at intern,
  // Refresh and component-build time, never per id.
  Partition PartitionOf(ProcessSet g) const;

  // True when whole-space kernels use the worker pool.
  bool UseParallel() const noexcept;
  internal::WorkerPool& Pool();
  // Whole-space dispatch: memoizes every root at every class id in the
  // planes.  Tries the compiled kernel executor (which may refuse — compile
  // failure or profitability, see the .cc), else runs one sequential lazy
  // pass.
  void EvaluateEverywhere(std::span<const Formula* const> roots);
  // The kernel engine: compiles (or reuses) the program for this set of
  // incomplete roots and executes it over the planes.  Returns false when
  // the DAG has a shape the compiler refuses or the program would lose to
  // the lazy interpreter (a lone modal root, no worker pool); true once
  // every root is whole-space memoized.
  bool EvaluateEverywhereKernel(std::span<const Formula* const> roots);
  // Canonicalizes f, runs the whole-space pass, and returns f's value
  // plane (one verdict bit per class id) — the shared preamble of every
  // whole-space query.
  const std::uint64_t* EvaluatedValuePlane(const FormulaPtr& f);

  const ComputationSpace& space_;
  const StateView* view_ = nullptr;  // the partition source, when set
  std::size_t words_ = 0;  // bitset words per formula node: ceil(size/64)
  // space_.size() the memo layout was last sized for; Refresh() compares
  // against it to find the new-id range.
  std::size_t synced_size_ = 0;
  int num_threads_ = 1;
  bool compiled_kernels_ = true;
  std::unique_ptr<internal::WorkerPool> pool_;  // lazily created

  std::unordered_map<const Formula*, std::uint32_t> node_index_;
  MemoPlanes planes_;  // the dense (node, [D]-class) memo
  // Per node: 1 once a whole-space pass has memoized it at every class id,
  // so repeat whole-space queries skip straight to the plane reads.
  std::vector<char> node_complete_;
  // Projection tiers: per node, the index of its first segment in segments_
  // (kNoSegment when the node has no tier rows) and its segment count;
  // segments and the bucket planes grow append-only at intern time.  A
  // node's rows are contiguous: Knows / Sure / Possible over a non-empty
  // group own one row over the group's partition; Everyone one row per
  // member, after a [G]-aggregation row when |G| >= 2.  Knows / Sure /
  // Possible over the empty group relate every class and own none.
  std::vector<std::uint32_t> node_seg_begin_;
  std::vector<std::uint32_t> node_seg_count_;
  std::vector<kernel::Segment> segments_;
  MemoPlanes bucket_planes_;

  // Component indexes keyed by group bits.
  std::unordered_map<std::uint64_t, ComponentIndex> components_;

  // Compiled kernel programs keyed by the sorted, deduplicated node ids of
  // the (incomplete) roots they were lowered from; cleared by Refresh()
  // (the plane re-layout invalidates the baked segment/row references).
  std::map<std::vector<std::uint32_t>, kernel::KernelProgram>
      kernel_programs_;
  // Executor scratch, persistent across runs: per-worker register-plane
  // pools and the CK per-component verdict bits.
  std::vector<std::vector<std::vector<std::uint64_t>>> kernel_worker_regs_;
  std::vector<std::uint64_t> kernel_comp_scratch_;

  // Canonicalizes every queried formula and keeps the canonical nodes (and
  // the nodes they were interned from) alive while their memo rows and
  // compiled programs are cached.
  FormulaInterner interner_;
};

}  // namespace hpl

#endif  // HPL_CORE_KNOWLEDGE_H_
