// Epistemic formulas over system computations.
//
// Grammar (paper Section 4):
//   f ::= atom b                 (a [D]-invariant predicate)
//       | !f | f && f | f || f | f => f
//       | K{P} f                 ("P knows f")
//       | Sure{P} f              (K{P} f || K{P} !f)
//       | CK{G} f                (common knowledge: greatest fixpoint)
//
// Formulas are immutable DAGs of shared nodes; evaluation is performed by
// knowledge.h's KnowledgeEvaluator against a ComputationSpace, memoized per
// (node, computation-class).
//
// A small text syntax is provided for tests and tooling, e.g.
//   "K{0} (b && !K{1,2} c)"  — K{...} takes a comma-separated process list.
#ifndef HPL_CORE_FORMULA_H_
#define HPL_CORE_FORMULA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/predicate.h"
#include "core/types.h"

namespace hpl {

enum class FormulaKind : std::uint8_t {
  kAtom,
  kNot,
  kAnd,
  kOr,
  kImplies,
  kKnows,     // K{P}: distributed knowledge of the set P ("P knows")
  kSure,      // Sure{P}
  kCommon,    // CK{G}: greatest-fixpoint common knowledge
  kEveryone,  // E{G}: every process in G individually knows
  kPossible,  // M{P}: P considers possible == !K{P}!f
};

// Formula::Parse rejects text nesting deeper than this, or building a tree
// taller than this (left-folded && / || chains grow the tree without
// nesting): every evaluator, printer and destructor of a formula recurses
// once per level, so an unbounded request could overflow the stack.
inline constexpr int kMaxFormulaHeight = 1000;

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

class Formula {
 public:
  FormulaKind kind() const noexcept { return kind_; }
  const Predicate& atom() const { return atom_; }
  const FormulaPtr& left() const { return left_; }
  const FormulaPtr& right() const { return right_; }
  ProcessSet group() const noexcept { return group_; }

  std::string ToString() const;

  // Depth of K/Sure/CK nesting (0 for purely propositional formulas).
  int ModalDepth() const;
  // Nodes on the longest root-to-leaf path (1 for an atom).
  int Height() const noexcept { return height_; }

  // --- Constructors -------------------------------------------------------
  static FormulaPtr Atom(Predicate b);
  static FormulaPtr Not(FormulaPtr f);
  static FormulaPtr And(FormulaPtr a, FormulaPtr b);
  static FormulaPtr Or(FormulaPtr a, FormulaPtr b);
  static FormulaPtr Implies(FormulaPtr a, FormulaPtr b);
  // P knows f.
  static FormulaPtr Knows(ProcessSet p, FormulaPtr f);
  static FormulaPtr Knows(ProcessId p, FormulaPtr f);
  // P sure f == (P knows f) || (P knows !f).
  static FormulaPtr Sure(ProcessSet p, FormulaPtr f);
  // Common knowledge among G (greatest fixpoint, paper Section 4.2).
  static FormulaPtr Common(ProcessSet g, FormulaPtr f);

  // "Everyone in G knows f": the conjunction of K{p} f over p in G.  Note
  // the contrast with Knows(G, f), which is *distributed* knowledge (the
  // joint view); E{G} f implies nothing about pooled information.
  static FormulaPtr Everyone(ProcessSet g, FormulaPtr f);

  // E^k: Everyone nested k times — the finite approximations whose limit
  // is common knowledge (Halpern & Moses [3], cited in Section 4.2).
  static FormulaPtr EveryoneIterated(ProcessSet g, int k, FormulaPtr f);

  // "P considers f possible": !K{P} !f.
  static FormulaPtr Possible(ProcessSet p, FormulaPtr f);

  // Nested knowledge K{P1} K{P2} ... K{Pn} f — the shape of Theorems 4-6.
  static FormulaPtr KnowsChain(const std::vector<ProcessSet>& chain,
                               FormulaPtr f);

  // Parses the text syntax; atoms are resolved by name through `atoms`.
  // Throws ModelError on syntax errors, unknown atom names, and text
  // nesting or building a tree deeper than kMaxFormulaHeight.
  static FormulaPtr Parse(const std::string& text,
                          const std::vector<Predicate>& atoms);

 private:
  friend struct FormulaBuilder;
  Formula() = default;

  FormulaKind kind_ = FormulaKind::kAtom;
  int height_ = 1;
  Predicate atom_;
  FormulaPtr left_;
  FormulaPtr right_;
  ProcessSet group_;
};

// Structural interner (hash-consing): maps every formula to a canonical
// node, so structurally equal formulas built by different code paths — or
// parsed from different request strings — share one node pointer.  Pointer-
// keyed consumers (KnowledgeEvaluator's dense memo rows, compiled kernel
// programs) then see one node, one memo row, and one compiled program
// instead of re-deriving state per parse.
//
// Identity contract: atoms are keyed by predicate *name* (the same contract
// the text parser and serve protocol already rely on) — two predicates with
// the same name are treated as the same atom, so names must identify
// predicate semantics within one interner.  Interior nodes are keyed by
// (kind, group, canonical child pointers), which makes a key probe O(1) per
// node instead of O(formula text).
//
// The interner retains every canonical node and every node it was shown
// (preventing pointer reuse from aliasing the cache), so canonical pointers
// stay valid for the interner's lifetime.  Not thread-safe.
class FormulaInterner {
 public:
  // Returns the canonical node structurally equal to `f`, interning it (and
  // its whole subtree) on first sight.  Idempotent: canonical nodes intern
  // to themselves.  Throws ModelError on null.
  FormulaPtr Intern(const FormulaPtr& f);

  // Number of distinct canonical nodes (subformulas included).
  std::size_t size() const noexcept { return by_key_.size(); }

  std::size_t MemoryBytes() const;

 private:
  struct Seen {
    FormulaPtr source;     // keeps the key pointer alive
    FormulaPtr canonical;
  };
  FormulaPtr InternNode(const FormulaPtr& f);

  std::unordered_map<std::string, FormulaPtr> by_key_;
  std::unordered_map<const Formula*, Seen> by_node_;  // pointer fast path
};

}  // namespace hpl

#endif  // HPL_CORE_FORMULA_H_
