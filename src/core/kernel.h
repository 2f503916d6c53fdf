// Compiled formula kernels: flat postorder bitset programs for whole-space
// knowledge sweeps (ROADMAP item 5, kernel half).
//
// The interpreted engine in knowledge.cc walks the formula DAG once per
// (node, class id) — a switch on FormulaKind, two memo-plane probes, and a
// recursive call per edge.  For whole-space queries that per-id dispatch is
// pure overhead: every node is evaluated at *every* id anyway, so the DAG
// can be lowered once into a flat postorder array of plane-level ops and
// each op executed word-at-a-time over 64 class ids per instruction:
//
//   kLoadAtomPlane      one predicate plane per atom (persisted in the
//                       evaluator's dense memo row, seeded from bits earlier
//                       queries already memoized — after Refresh, every old
//                       id); only the unknown ids are evaluated, each shard
//                       streaming their computations along the splice chain
//                       (ComputationSpace::ForEachComputation) instead of
//                       rebuilding each one from the root
//   kNot/kAnd/kOr/...   boolean connectives over 64-bit words
//   kKnowSeg            Knows / Sure / Possible via the projection-tier
//                       segment primitive: phase A sweeps each bucket of the
//                       segment's partition over the child plane once per
//                       class (seeded from, and written back to, the
//                       evaluator's tier row), phase B scatters the
//                       per-class verdicts to the id plane
//   kEveryoneSeg        multi-process Everyone: per-member kKnowSeg rows
//                       folded with word-AND, plus the [G]-aggregation row
//   kCkComponent        common knowledge: per-component AND over the
//                       component labels the evaluator already builds
//
// Segment ops name no relation themselves: each reads its partition(s)
// from the evaluator's segment table (ExecContext::segments), the same rows
// the interpreter probes, so a program cannot quantify over a different
// relation than the interpreter does.
//
// Interior results live in a register pool of bitset planes sized by DAG
// liveness (linear scan over the postorder, registers freed after their
// last consumer), so a deep formula chain needs O(live width) planes, not
// O(nodes).  Atom and root planes write the evaluator's dense memo rows
// directly and are whole-space complete after one run.
//
// Folding: the compiler inlines the decision procedures behind
// KnowledgeEvaluator::IsConstant / IsLocalTo.
//   - Local-formula folding (IsLocalTo, compile time): when a modal child is
//     *syntactically local* to the operator's view — constant on the
//     operator's indistinguishability classes, e.g. K{H} g under K{P} with
//     H subset of P, or CK{G} g under any K{P} with P meeting G — S5 algebra
//     collapses the operator: K{P} f == M{P} f == f and Sure{P} f == true.
//   - Constant folding (IsConstant, run time): before sweeping any buckets,
//     a modal op scans its child plane once; an all-true or all-false child
//     decides every bucket verdict in O(n/64) words and the sweep is
//     skipped (tier rows are still filled, so memo stats match the
//     interpreter on whole-space sweeps).
//
// Execution is range-sharded over the evaluator's parallel.h worker pool.
// Programs with only pointwise ops (atoms + connectives) run as ONE fused
// pass: each worker streams its id chunks through the whole op array with a
// per-worker register pool, no barriers.  Programs with segment ops run
// op-by-op, each op a ParallelFor pass whose chunks are 64-aligned so
// concurrent writes to the shared planes never touch the same word; the
// pass barrier orders plane reads after writes.  With a null pool every
// pass runs inline — kernels speed up single-threaded sweeps too.
//
// Verdicts are byte-identical to the interpreted engine at any thread
// count: every op computes the same pure function of
// (node, class id) the lazy recursion computes, folds are S5-sound, and
// seeded memo bits were produced by the same functions.
#ifndef HPL_CORE_KERNEL_H_
#define HPL_CORE_KERNEL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/formula.h"
#include "core/parallel.h"
#include "core/space.h"

namespace hpl::kernel {

inline constexpr std::uint32_t kNoSegment = UINT32_MAX;

enum class OpCode : std::uint8_t {
  kLoadConst,      // dst := const_value at every live id
  kLoadAtomPlane,  // dst := atom verdict per id (dense row, seeded)
  kCopy,           // dst := a  (materializes a folded root)
  kNot,            // dst := !a, masked to live ids
  kAnd,            // dst := a & b
  kOr,             // dst := a | b
  kImplies,        // dst := !a | b, masked to live ids
  kKnowSeg,        // dst := quantifier over the [p]- or [G]-bucket of a
  kEveryoneSeg,    // dst := AND of member K{p} rows (+ [G]-aggregation row)
  kCkComponent,    // dst := component-wide AND of a over CK components
};

enum class Quant : std::uint8_t { kForAll, kExists, kSure };

// Where an op reads or writes one verdict bit per class id: a register in
// the executor's scratch pool, or (dense == true) the evaluator's dense
// memo row of node `index` — used for atoms, roots, and already-complete
// subformulas folded into the program as read-only leaves.
struct Slot {
  std::uint32_t index = 0;
  bool dense = false;
};

// One projection-tier row of the evaluator's bucket planes: one known and
// one value bit per class of `partition`, the relation the owning node's
// quantifier ranges over.
struct Segment {
  ProcessSet group;  // whose partition (re-resolved after the space grows)
  Partition partition;
  std::uint32_t offset = 0;  // word offset in the bucket planes
  std::uint32_t words = 0;   // ceil(partition.NumClasses() / 64)
  bool group_tier = false;   // owned by a multi-process node (memo stats)
};

struct Op {
  OpCode code = OpCode::kLoadConst;
  Quant quant = Quant::kForAll;  // kKnowSeg only
  bool const_value = false;      // kLoadConst only
  // The owning formula node: predicate for kLoadAtomPlane, group and child
  // for the segment ops.
  const Formula* node = nullptr;
  // Unused operand slots keep the dense null default (never read by the
  // executor) so the register allocator skips them.
  Slot dst;
  Slot a{0, true};
  Slot b{0, true};
  // First projection-tier segment of `node` in the evaluator's segment
  // table: the one row of kKnowSeg; the [G]-aggregation row of
  // kEveryoneSeg, followed by one member row per process in group ForEach
  // order.
  std::uint32_t seg = kNoSegment;
};

struct KernelProgram {
  std::vector<Op> ops;
  std::uint32_t num_registers = 0;
  // True when every op is pointwise (no segment/component ops): the program
  // runs as one fused range-sharded pass with per-worker registers.
  bool pointwise = true;
  // Dense node ids whose rows are whole-space complete after one run
  // (atoms and roots); the evaluator flips their completion flags.
  std::vector<std::uint32_t> completed;
  // Dense node ids of the requested roots, in request order.
  std::vector<std::uint32_t> roots;

  std::size_t MemoryBytes() const;
};

// One postorder entry of the DAG under compilation, supplied by the
// evaluator (children strictly before parents).
struct CompileNode {
  const Formula* f = nullptr;
  std::uint32_t node = 0;   // dense memo row id
  bool complete = false;    // whole-space memoized: compile as a leaf
  // First tier segment; every modal node over a non-empty group has one.
  std::uint32_t seg_begin = kNoSegment;
};

// Lowers the DAG to a program.  `postorder` must cover every node reachable
// from `roots` (complete nodes may stop the walk); `roots` are dense node
// ids and must be incomplete.  Returns false when the DAG contains a shape
// the kernels do not cover (currently: modal operators over an empty
// process set) — callers fall back to the interpreted engine.
bool Compile(std::span<const CompileNode> postorder,
             std::span<const std::uint32_t> roots, KernelProgram* out);

// Everything one execution needs to locate the evaluator's memo state and
// scratch.  All pointers remain owned by the caller.
struct ExecContext {
  const ComputationSpace* space = nullptr;
  std::size_t n = 0;      // class-id count
  std::size_t words = 0;  // ceil(n / 64)
  // Dense memo planes, node-major, `words` words per row.
  std::uint64_t* dense_known = nullptr;
  std::uint64_t* dense_value = nullptr;
  // Shared projection-tier planes and the evaluator's segment table.
  std::uint64_t* bucket_known = nullptr;
  std::uint64_t* bucket_value = nullptr;
  const Segment* segments = nullptr;
  // CK component labels (smallest member id per class), pre-built by the
  // caller for every kCkComponent node in the program.
  std::function<std::span<const std::uint32_t>(const Formula*)> ck_roots;
  internal::WorkerPool* pool = nullptr;  // null => run inline
  // Register pools, one per worker (pointwise programs) — segment programs
  // share pool 0 across 64-aligned shards.  Resized by the executor and
  // persistent across runs so repeat sweeps skip the allocations.
  std::vector<std::vector<std::vector<std::uint64_t>>>* worker_regs = nullptr;
  std::vector<std::uint64_t>* comp_scratch = nullptr;  // CK verdict bits
};

void Execute(const KernelProgram& program, const ExecContext& ctx);

}  // namespace hpl::kernel

#endif  // HPL_CORE_KERNEL_H_
