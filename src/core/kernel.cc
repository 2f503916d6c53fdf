#include "core/kernel.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace hpl::kernel {
namespace {

// Bits of plane word `w` that correspond to real ids/classes (the last word
// of an n-bit plane is only partially populated).
std::uint64_t LiveMask(std::size_t n, std::size_t w) {
  const std::size_t tail = n - w * 64;
  return tail >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

// Syntactic locality (the compile-time half of IsLocalTo): true when `f` is
// provably constant on the [view]-indistinguishability classes.  Sound S5
// reasoning over equivalence relations:
//   - K/Sure/M/E{H} g is constant on [H]-classes, and [view] refines [H]
//     whenever H is a subset of view, so H subset-of view suffices.
//   - CK{G} g is constant on every member's [p]-classes individually (a
//     whole [p]-bucket sits inside one component), so any p in both G and
//     view suffices.
//   - Propositional combinations of view-constant formulas stay constant.
//   - An atom local to p by construction (Predicate::OnProjection) is
//     constant on [p]-classes, and [view] refines [p] whenever p is in
//     view — but only when the partitions are the space's own: a state
//     partition (StateView) is coarser than [p], so `local_atoms` is off.
// Under K{P} / M{P} a P-constant child collapses the quantifier to the
// child itself; under Sure{P} it collapses to `true`.
bool ViewConstant(const Formula* f, ProcessSet view, bool local_atoms) {
  switch (f->kind()) {
    case FormulaKind::kAtom: {
      const ProcessId p = f->atom().local_process();
      return local_atoms && p != kNoProcess && view.Contains(p);
    }
    case FormulaKind::kNot:
      return ViewConstant(f->left().get(), view, local_atoms);
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
      return ViewConstant(f->left().get(), view, local_atoms) &&
             ViewConstant(f->right().get(), view, local_atoms);
    case FormulaKind::kKnows:
    case FormulaKind::kSure:
    case FormulaKind::kPossible:
    case FormulaKind::kEveryone: {
      const std::uint64_t g = f->group().bits();
      return g != 0 && (g & ~view.bits()) == 0;
    }
    case FormulaKind::kCommon:
      return (f->group().bits() & view.bits()) != 0;
  }
  return false;
}

}  // namespace

KernelProgram Compile(std::span<const CompileNode> postorder,
                      std::span<const std::uint32_t> roots, bool local_atoms) {
  KernelProgram p;
  std::unordered_map<const Formula*, Slot> slot_of;
  std::unordered_set<std::uint32_t> root_set(roots.begin(), roots.end());
  std::unordered_set<std::uint32_t> completed_set;
  // Register dsts carry a dense "value id" until the liveness pass below
  // assigns physical registers; last_use[v] is the index of v's final
  // consumer op (-1 = never read).
  std::vector<std::int64_t> last_use;

  auto use = [&](const Formula* f) {
    const Slot s = slot_of.at(f);
    if (!s.dense) last_use[s.index] = static_cast<std::int64_t>(p.ops.size());
    return s;
  };
  auto mark_complete = [&](std::uint32_t node) {
    if (completed_set.insert(node).second) p.completed.push_back(node);
  };

  for (const CompileNode& cn : postorder) {
    const Formula* f = cn.f;
    if (cn.complete) {
      slot_of[f] = Slot{cn.node, true};
      continue;
    }
    const bool is_root = root_set.contains(cn.node);
    auto make_dst = [&]() -> Slot {
      if (is_root) {
        mark_complete(cn.node);
        return Slot{cn.node, true};
      }
      last_use.push_back(-1);
      return Slot{static_cast<std::uint32_t>(last_use.size() - 1), false};
    };
    auto emit = [&](Op op) {
      slot_of[f] = op.dst;
      p.ops.push_back(op);
    };
    // Fold K{P}/M{P}/E{G} of a view-constant child to the child itself: no
    // op off the root path, a kCopy to the root's dense row otherwise.
    auto alias_child = [&]() {
      if (!is_root) {
        slot_of[f] = slot_of.at(f->left().get());
        return;
      }
      Op op;
      op.code = OpCode::kCopy;
      op.a = use(f->left().get());
      op.dst = make_dst();
      emit(op);
    };

    switch (f->kind()) {
      case FormulaKind::kAtom: {
        Op op;
        op.code = OpCode::kLoadAtomPlane;
        op.node = f;
        op.dst = Slot{cn.node, true};
        mark_complete(cn.node);
        emit(op);
        break;
      }
      case FormulaKind::kNot: {
        Op op;
        op.code = OpCode::kNot;
        op.a = use(f->left().get());
        op.dst = make_dst();
        emit(op);
        break;
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
      case FormulaKind::kImplies: {
        Op op;
        op.code = f->kind() == FormulaKind::kAnd  ? OpCode::kAnd
                  : f->kind() == FormulaKind::kOr ? OpCode::kOr
                                                  : OpCode::kImplies;
        op.a = use(f->left().get());
        op.b = use(f->right().get());
        op.dst = make_dst();
        emit(op);
        break;
      }
      case FormulaKind::kKnows:
      case FormulaKind::kSure:
      case FormulaKind::kPossible: {
        if (ViewConstant(f->left().get(), f->group(), local_atoms)) {
          if (f->kind() == FormulaKind::kSure) {
            Op op;
            op.code = OpCode::kLoadConst;
            op.const_value = true;
            op.dst = make_dst();
            emit(op);
          } else {
            alias_child();
          }
          break;
        }
        // One forall / exists / sure row over the node's partition, or
        // over the whole space for the empty group (no row).
        Op op;
        op.code = OpCode::kKnowSeg;
        op.quant = QuantOf(f->kind());
        op.node = f;
        op.seg = cn.seg_begin;
        op.a = use(f->left().get());
        op.dst = make_dst();
        emit(op);
        break;
      }
      case FormulaKind::kEveryone: {
        bool member_local = true;
        f->group().ForEach([&](ProcessId q) {
          member_local = member_local && ViewConstant(f->left().get(),
                                                      ProcessSet::Of(q),
                                                      local_atoms);
        });
        if (member_local) {
          // E{G} f == AND of K{p} f == f when f is local to every member.
          alias_child();
          break;
        }
        Op op;
        op.code = OpCode::kEveryoneSeg;
        op.node = f;
        op.seg = cn.seg_begin;
        op.a = use(f->left().get());
        op.dst = make_dst();
        emit(op);
        break;
      }
      case FormulaKind::kCommon: {
        Op op;
        op.code = OpCode::kCkComponent;
        op.node = f;
        op.a = use(f->left().get());
        op.dst = make_dst();
        emit(op);
        break;
      }
    }
  }

  p.pointwise =
      std::none_of(p.ops.begin(), p.ops.end(), [](const Op& op) {
        return op.code == OpCode::kKnowSeg || op.code == OpCode::kEveryoneSeg ||
               op.code == OpCode::kCkComponent;
      });

  // Liveness register assignment: linear scan over the emitted ops, one
  // physical register per live value.  The dst is allocated before its
  // operands are released, so an op never aliases input and output planes
  // (kEveryoneSeg accumulates into dst while re-reading its child).
  std::vector<std::uint32_t> reg_of(last_use.size(), UINT32_MAX);
  std::vector<std::uint32_t> free_regs;
  std::uint32_t high_water = 0;
  for (std::size_t i = 0; i < p.ops.size(); ++i) {
    Op& op = p.ops[i];
    const std::uint32_t va = op.a.dense ? UINT32_MAX : op.a.index;
    const std::uint32_t vb = op.b.dense ? UINT32_MAX : op.b.index;
    std::uint32_t dead_dst_reg = UINT32_MAX;
    if (!op.dst.dense) {
      const std::uint32_t v = op.dst.index;
      std::uint32_t r;
      if (free_regs.empty()) {
        r = high_water++;
      } else {
        r = free_regs.back();
        free_regs.pop_back();
      }
      reg_of[v] = r;
      op.dst.index = r;
      if (last_use[v] < 0) dead_dst_reg = r;  // value with no consumer
    }
    if (va != UINT32_MAX) op.a.index = reg_of[va];
    if (vb != UINT32_MAX) op.b.index = reg_of[vb];
    if (va != UINT32_MAX && last_use[va] == static_cast<std::int64_t>(i))
      free_regs.push_back(reg_of[va]);
    if (vb != UINT32_MAX && vb != va &&
        last_use[vb] == static_cast<std::int64_t>(i))
      free_regs.push_back(reg_of[vb]);
    if (dead_dst_reg != UINT32_MAX) free_regs.push_back(dead_dst_reg);
  }
  p.num_registers = high_water;
  return p;
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------
namespace {

using Regs = std::vector<std::vector<std::uint64_t>>;

std::uint64_t* DenseKnownRow(const ExecContext& ctx, std::uint32_t node) {
  return ctx.dense_known + static_cast<std::size_t>(node) * ctx.words;
}
std::uint64_t* DenseValueRow(const ExecContext& ctx, std::uint32_t node) {
  return ctx.dense_value + static_cast<std::size_t>(node) * ctx.words;
}

std::uint64_t ReadWord(const ExecContext& ctx, const Regs& regs, Slot s,
                       std::size_t w) {
  return s.dense ? DenseValueRow(ctx, s.index)[w] : regs[s.index][w];
}

std::uint64_t ReadBit(const ExecContext& ctx, const Regs& regs, Slot s,
                      std::size_t id) {
  return (ReadWord(ctx, regs, s, id / 64) >> (id % 64)) & 1;
}

// Whole-word store; dense rows also get their known word completed, so one
// run leaves the row whole-space memoized.
void StoreWord(const ExecContext& ctx, Regs& regs, Slot s, std::size_t w,
               std::uint64_t word) {
  if (s.dense) {
    DenseValueRow(ctx, s.index)[w] = word;
    DenseKnownRow(ctx, s.index)[w] = LiveMask(ctx.n, w);
  } else {
    regs[s.index][w] = word;
  }
}

enum class FoldScan { kMixed, kAllTrue, kAllFalse };

// The run-time constant fold (IsConstant inlined): one O(n/64) scan of the
// child plane decides every bucket verdict when the child is constant.
FoldScan ScanConstant(const ExecContext& ctx, const Regs& regs, Slot s) {
  bool all_true = true, all_false = true;
  for (std::size_t w = 0; w < ctx.words && (all_true || all_false); ++w) {
    const std::uint64_t live = LiveMask(ctx.n, w);
    const std::uint64_t v = ReadWord(ctx, regs, s, w) & live;
    if (v != live) all_true = false;
    if (v != 0) all_false = false;
  }
  if (all_true) return FoldScan::kAllTrue;
  if (all_false) return FoldScan::kAllFalse;
  return FoldScan::kMixed;
}

void FillPlane(const ExecContext& ctx, Regs& regs, Slot dst, bool value) {
  for (std::size_t w = 0; w < ctx.words; ++w)
    StoreWord(ctx, regs, dst, w, value ? LiveMask(ctx.n, w) : 0);
}

// Completes a tier row wholesale: every class known, every verdict `value`.
void FillRow(std::uint64_t* row_known, std::uint64_t* row_value,
             std::size_t classes, bool value) {
  const std::size_t row_words = (classes + 63) / 64;
  for (std::size_t w = 0; w < row_words; ++w) {
    const std::uint64_t mask = LiveMask(classes, w);
    row_known[w] = mask;
    row_value[w] = value ? mask : 0;
  }
}

bool TestBit(const std::uint64_t* bits, std::size_t i) {
  return (bits[i / 64] >> (i % 64)) & 1;
}

// The verdicts of an atom local to p (Predicate::OnProjection), one bit per
// [p]-class: a local atom is constant on [p]-classes, so its plane is
// decided by one predicate call per class and scattered to the ids.  Empty
// for every other op.
struct ClassVerdicts {
  Partition partition;               // the space's [p]-partition
  std::vector<std::uint64_t> value;  // one bit per [p]-class
};

// The class pass of a local atom, run before the id scatter: a class whose
// representative's bit is already known (seeded by earlier pointwise
// queries; after Refresh, every old class) copies it, every other class
// calls the predicate once on its projection, streamed along the space's
// projection trie.  64-aligned class chunks keep the bit writes disjoint.
void EvaluateClasses(const ExecContext& ctx, const Op& op, ClassVerdicts& out) {
  const Predicate& atom = op.node->atom();
  const ProcessId p = atom.local_process();
  out.partition = ctx.space->PartitionOf(ProcessSet::Of(p));
  const std::size_t classes = out.partition.NumClasses();
  out.value.assign((classes + 63) / 64, 0);
  const std::uint64_t* known_row = DenseKnownRow(ctx, op.dst.index);
  const std::uint64_t* value_row = DenseValueRow(ctx, op.dst.index);
  const auto set = [class_row = out.value.data()](std::size_t cls) {
    class_row[cls / 64] |= std::uint64_t{1} << (cls % 64);
  };
  internal::ParallelFor(
      ctx.pool, classes, /*align=*/64, [&](std::size_t b, std::size_t e) {
        ctx.space->ForEachProjection(
            p, b, e,
            [&](std::size_t cls) {
              const std::uint32_t rep = out.partition.Representative(
                  static_cast<std::uint32_t>(cls));
              if (!TestBit(known_row, rep)) return true;
              if (TestBit(value_row, rep)) set(cls);
              return false;
            },
            [&](std::size_t cls, std::span<const Event> projection) {
              if (atom.EvalProjection(projection)) set(cls);
            });
      });
}

// The atom pass shared by both execution modes: per 64-id word, verdicts
// seeded from bits earlier pointwise queries memoized (after Refresh that is
// every old id); the rest come from the class verdicts of a local atom, or
// else are evaluated against computations streamed along the splice chain —
// only ids whose known bit is clear are materialized.  The dense row comes
// out complete.  [begin, end) is 64-aligned at `begin`.
void LoadAtomRange(const ExecContext& ctx, const Op& op,
                   const ClassVerdicts& local, std::size_t begin,
                   std::size_t end) {
  std::uint64_t* known_row = DenseKnownRow(ctx, op.dst.index);
  std::uint64_t* value_row = DenseValueRow(ctx, op.dst.index);
  const std::size_t wb = begin / 64;
  const std::size_t we = (end + 63) / 64;
  for (std::size_t w = wb; w < we; ++w) value_row[w] &= known_row[w];
  const auto bit = [](std::size_t id) {
    return std::uint64_t{1} << (id % 64);
  };
  if (!local.value.empty()) {
    for (std::size_t w = wb; w < we; ++w) {
      std::uint64_t unknown = ~known_row[w] & LiveMask(ctx.n, w);
      std::uint64_t word = 0;
      while (unknown != 0) {
        const std::size_t id =
            w * 64 + static_cast<std::size_t>(__builtin_ctzll(unknown));
        if (TestBit(local.value.data(), local.partition.ClassOf(id)))
          word |= bit(id);
        unknown &= unknown - 1;
      }
      value_row[w] |= word;
    }
  } else {
    const Predicate& atom = op.node->atom();
    ctx.space->ForEachComputation(
        begin, end,
        [&](std::size_t id) { return (known_row[id / 64] & bit(id)) == 0; },
        [&](std::size_t id, const Computation& x) {
          if (atom.Eval(x)) value_row[id / 64] |= bit(id);
        });
  }
  for (std::size_t w = wb; w < we; ++w) known_row[w] = LiveMask(ctx.n, w);
}

// One pointwise op over the word range [wb, we) — the fused-mode inner loop
// and the sharded body of segmented-mode boolean passes.  `local` holds the
// class verdicts of a local atom op.
void RunPointwiseOp(const ExecContext& ctx, Regs& regs, const Op& op,
                    const ClassVerdicts& local, std::size_t wb,
                    std::size_t we) {
  switch (op.code) {
    case OpCode::kLoadConst:
      for (std::size_t w = wb; w < we; ++w)
        StoreWord(ctx, regs, op.dst, w,
                  op.const_value ? LiveMask(ctx.n, w) : 0);
      break;
    case OpCode::kLoadAtomPlane:
      LoadAtomRange(ctx, op, local, wb * 64, std::min(ctx.n, we * 64));
      break;
    case OpCode::kCopy:
      for (std::size_t w = wb; w < we; ++w)
        StoreWord(ctx, regs, op.dst, w, ReadWord(ctx, regs, op.a, w));
      break;
    case OpCode::kNot:
      for (std::size_t w = wb; w < we; ++w)
        StoreWord(ctx, regs, op.dst, w,
                  ~ReadWord(ctx, regs, op.a, w) & LiveMask(ctx.n, w));
      break;
    case OpCode::kAnd:
      for (std::size_t w = wb; w < we; ++w)
        StoreWord(ctx, regs, op.dst, w,
                  ReadWord(ctx, regs, op.a, w) & ReadWord(ctx, regs, op.b, w));
      break;
    case OpCode::kOr:
      for (std::size_t w = wb; w < we; ++w)
        StoreWord(ctx, regs, op.dst, w,
                  ReadWord(ctx, regs, op.a, w) | ReadWord(ctx, regs, op.b, w));
      break;
    case OpCode::kImplies:
      for (std::size_t w = wb; w < we; ++w)
        StoreWord(ctx, regs, op.dst, w,
                  (~ReadWord(ctx, regs, op.a, w) |
                   ReadWord(ctx, regs, op.b, w)) &
                      LiveMask(ctx.n, w));
      break;
    default:
      throw ModelError("kernel: segment op in a pointwise pass");
  }
}

// Phase A of a segment op: the per-class quantifier sweep over one row.
// Chunks are 64-class aligned, so each row word is owned by one chunk;
// seeded (known) classes keep their memoized verdict, exactly like the
// interpreter's BucketVerdict probe.
void SweepRowRange(const ExecContext& ctx, const Regs& regs, Slot child,
                   Quant quant, const Partition& part,
                   std::uint64_t* row_known, std::uint64_t* row_value,
                   std::size_t begin, std::size_t end) {
  for (std::size_t w = begin / 64; w * 64 < end; ++w) {
    std::uint64_t known = row_known[w];
    std::uint64_t value = row_value[w];
    const std::size_t c_end = std::min(end, w * 64 + 64);
    for (std::size_t c = w * 64; c < c_end; ++c) {
      const std::uint64_t bit = std::uint64_t{1} << (c % 64);
      if (known & bit) continue;
      known |= bit;
      if (Quantify(quant, part.Bucket(static_cast<std::uint32_t>(c)),
                   [&](std::uint32_t y) {
                     return ReadBit(ctx, regs, child, y) != 0;
                   }))
        value |= bit;
    }
    row_known[w] = known;
    row_value[w] = value;
  }
}

// Phase B: scatter per-class verdicts back to the id plane — or, with
// `and_into`, fold them into what dst already holds with word-AND.
template <typename ClassOfFn>
void ScatterRange(const ExecContext& ctx, Regs& regs, Slot dst,
                  const std::uint64_t* row_value, ClassOfFn&& class_of,
                  bool and_into, std::size_t begin, std::size_t end) {
  for (std::size_t w = begin / 64; w * 64 < end; ++w) {
    std::uint64_t word = 0;
    const std::size_t id_end = std::min(end, w * 64 + 64);
    for (std::size_t id = w * 64; id < id_end; ++id) {
      const std::uint32_t cls = class_of(id);
      if ((row_value[cls / 64] >> (cls % 64)) & 1)
        word |= std::uint64_t{1} << (id % 64);
    }
    if (and_into) word &= ReadWord(ctx, regs, dst, w);
    StoreWord(ctx, regs, dst, w, word);
  }
}

// A tier row of the evaluator's bucket planes, with its partition.
struct TierRow {
  std::uint64_t* known;
  std::uint64_t* value;
  const Partition& partition;

  TierRow(const ExecContext& ctx, std::uint32_t seg)
      : known(ctx.bucket_known + ctx.segments[seg].offset),
        value(ctx.bucket_value + ctx.segments[seg].offset),
        partition(ctx.segments[seg].partition) {}
};

// Sweeps row `seg` for the quantifier over the child plane `a`, then
// scatters (or, with `and_into`, AND-folds) its verdicts into `dst`.
void SweepAndScatter(const ExecContext& ctx, Regs& regs, Slot a, Slot dst,
                     Quant quant, std::uint32_t seg, bool and_into) {
  const TierRow row(ctx, seg);
  internal::ParallelFor(ctx.pool, row.partition.NumClasses(), /*align=*/64,
                        [&](std::size_t b, std::size_t e) {
                          SweepRowRange(ctx, regs, a, quant, row.partition,
                                        row.known, row.value, b, e);
                        });
  internal::ParallelFor(
      ctx.pool, ctx.n, /*align=*/64, [&](std::size_t b, std::size_t e) {
        ScatterRange(ctx, regs, dst, row.value,
                     [&](std::size_t id) { return row.partition.ClassOf(id); },
                     and_into, b, e);
      });
}

void ExecKnowSeg(const ExecContext& ctx, Regs& regs, const Op& op) {
  const FoldScan fold = ScanConstant(ctx, regs, op.a);
  if (fold != FoldScan::kMixed || op.seg == kNoSegment) {
    // A constant child decides every bucket (buckets are reflexive, never
    // empty), and the empty group's one bucket is the whole space: either
    // way the scan is the verdict.
    const bool verdict = op.quant == Quant::kForAll ? fold == FoldScan::kAllTrue
                         : op.quant == Quant::kExists
                             ? fold != FoldScan::kAllFalse
                             : fold != FoldScan::kMixed;
    if (op.seg != kNoSegment) {
      const TierRow row(ctx, op.seg);
      FillRow(row.known, row.value, row.partition.NumClasses(), verdict);
    }
    FillPlane(ctx, regs, op.dst, verdict);
    return;
  }
  SweepAndScatter(ctx, regs, op.a, op.dst, op.quant, op.seg,
                  /*and_into=*/false);
}

void ExecEveryoneSeg(const ExecContext& ctx, Regs& regs, const Op& op) {
  // Rows op.seg .. op.seg + |G| - 1 are the member K{q} rows.
  const auto members = static_cast<std::uint32_t>(op.node->group().Size());
  const FoldScan fold = ScanConstant(ctx, regs, op.a);
  if (fold != FoldScan::kMixed) {
    const bool verdict = fold == FoldScan::kAllTrue;
    for (std::uint32_t k = 0; k < members; ++k) {
      const TierRow row(ctx, op.seg + k);
      FillRow(row.known, row.value, row.partition.NumClasses(), verdict);
    }
    FillPlane(ctx, regs, op.dst, verdict);
    return;
  }
  // Fold each member's K{q} plane into dst with word-AND.
  for (std::uint32_t k = 0; k < members; ++k)
    SweepAndScatter(ctx, regs, op.a, op.dst, Quant::kForAll, op.seg + k,
                    /*and_into=*/k > 0);
}

void ExecCkComponent(const ExecContext& ctx, Regs& regs, const Op& op) {
  const FoldScan fold = ScanConstant(ctx, regs, op.a);
  if (fold != FoldScan::kMixed) {
    FillPlane(ctx, regs, op.dst, fold == FoldScan::kAllTrue);
    return;
  }
  const Partition components = ctx.ck_components(op.node);
  // comp[c] = AND of the child plane over component c: start all-true,
  // clear the component of every id where the child fails.  One sequential
  // O(n) bit pass — the scatter below is the parallel part.
  std::vector<std::uint64_t>& comp = *ctx.comp_scratch;
  comp.assign((components.NumClasses() + 63) / 64, ~std::uint64_t{0});
  for (std::size_t w = 0; w < ctx.words; ++w) {
    std::uint64_t miss =
        ~ReadWord(ctx, regs, op.a, w) & LiveMask(ctx.n, w);
    while (miss != 0) {
      const std::uint32_t c = components.ClassOf(
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(miss)));
      comp[c / 64] &= ~(std::uint64_t{1} << (c % 64));
      miss &= miss - 1;
    }
  }
  internal::ParallelFor(
      ctx.pool, ctx.n, /*align=*/64, [&](std::size_t b, std::size_t e) {
        ScatterRange(ctx, regs, op.dst, comp.data(),
                     [&](std::size_t id) { return components.ClassOf(id); },
                     /*and_into=*/false, b, e);
      });
}

}  // namespace

void Execute(const KernelProgram& program, const ExecContext& ctx) {
  if (ctx.n == 0) return;
  std::vector<Regs>& pools = *ctx.worker_regs;
  const int workers =
      program.pointwise && ctx.pool != nullptr ? ctx.pool->size() : 1;
  if (pools.size() < static_cast<std::size_t>(workers))
    pools.resize(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    Regs& regs = pools[static_cast<std::size_t>(i)];
    if (regs.size() < program.num_registers) regs.resize(program.num_registers);
    for (std::uint32_t r = 0; r < program.num_registers; ++r)
      if (regs[r].size() != ctx.words) regs[r].resize(ctx.words);
  }

  // Local atoms run their class pass first, once per program, so each
  // class is evaluated once whichever id chunk its members fall in.  An
  // atom local to a process outside the system (its projection is always
  // empty) takes the per-id path.
  std::vector<ClassVerdicts> local(program.ops.size());
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    const Op& op = program.ops[i];
    if (op.code != OpCode::kLoadAtomPlane) continue;
    const ProcessId p = op.node->atom().local_process();
    if (p != kNoProcess && p < ctx.space->num_processes())
      EvaluateClasses(ctx, op, local[i]);
  }

  if (program.pointwise) {
    // Fused mode: every op is word-local, so each worker streams its
    // 64-aligned id chunks through the whole op array with private
    // registers — one pass, no barriers, registers hot in cache.
    internal::ParallelForIndexed(
        ctx.pool, ctx.n, /*align=*/64,
        [&](int worker, std::size_t begin, std::size_t end) {
          Regs& regs = pools[static_cast<std::size_t>(worker)];
          const std::size_t wb = begin / 64;
          const std::size_t we = (end + 63) / 64;
          for (std::size_t i = 0; i < program.ops.size(); ++i)
            RunPointwiseOp(ctx, regs, program.ops[i], local[i], wb, we);
        });
    if (ctx.space->out_of_core()) ctx.space->TrimResidency();
    return;
  }

  // Segmented mode: one barrier pass per op; 64-aligned chunks keep every
  // shared plane word single-writer within a pass, and the pass barrier
  // orders the next op's reads after this op's writes.  Each pass barrier
  // is a quiescent point for the segment store, so an out-of-core space
  // trims residency between ops — the kernel streams the space's segments
  // op by op instead of faulting the whole space resident.
  Regs& regs = pools[0];
  for (std::size_t i = 0; i < program.ops.size(); ++i) {
    const Op& op = program.ops[i];
    if (ctx.space->out_of_core()) ctx.space->TrimResidency();
    switch (op.code) {
      case OpCode::kKnowSeg:
        ExecKnowSeg(ctx, regs, op);
        break;
      case OpCode::kEveryoneSeg:
        ExecEveryoneSeg(ctx, regs, op);
        break;
      case OpCode::kCkComponent:
        ExecCkComponent(ctx, regs, op);
        break;
      case OpCode::kLoadAtomPlane:
        internal::ParallelFor(ctx.pool, ctx.n, /*align=*/64,
                              [&](std::size_t b, std::size_t e) {
                                LoadAtomRange(ctx, op, local[i], b, e);
                              });
        break;
      default:
        internal::ParallelFor(ctx.pool, ctx.words, /*align=*/1,
                              [&](std::size_t wb, std::size_t we) {
                                RunPointwiseOp(ctx, regs, op, local[i], wb,
                                               we);
                              });
        break;
    }
  }
  if (ctx.space->out_of_core()) ctx.space->TrimResidency();
}

}  // namespace hpl::kernel
