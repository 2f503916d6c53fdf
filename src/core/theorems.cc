#include "core/theorems.h"

#include <algorithm>

#include "core/isomorphism.h"

namespace hpl {
namespace {

// Nested-knowledge formula K{P1} K{P2} ... K{Pn} atom(b).
FormulaPtr NestedKnows(const std::vector<ProcessSet>& chain,
                       const Predicate& b) {
  return Formula::KnowsChain(chain, Formula::Atom(b));
}

}  // namespace

Theorem1Result CheckTheorem1(const ComputationSpace& space,
                             const Computation& x, const Computation& z,
                             const std::vector<ProcessSet>& stages) {
  if (!x.IsPrefixOf(z))
    throw ModelError("CheckTheorem1: x must be a prefix of z");
  Theorem1Result result;
  result.composed_isomorphic = space.ComposedIsomorphic(
      space.RequireIndex(x), space.RequireIndex(z), stages);
  ChainDetector detector(z, space.num_processes(), x.size());
  result.chain = detector.FindChain(stages);
  return result;
}

ExtensionPrincipleResult CheckExtensionPrinciple(
    const ComputationSpace& space) {
  // Every class is materialized once, up front: the pair loop below reads
  // each y once per (x, successor), which through At() would replay y's
  // splice chain O(n^2) times.
  std::vector<Computation> all;
  all.reserve(space.size());
  space.ForEachComputation(
      0, space.size(), [](std::size_t) { return true; },
      [&](std::size_t, const Computation& x) { all.push_back(x); });

  ExtensionPrincipleResult out;
  for (std::size_t xid = 0; xid < all.size(); ++xid) {
    const Computation& x = all[xid];
    for (const auto& succ : space.SuccessorsOf(xid)) {
      const Event& e = succ.event;
      const ProcessSet p = ProcessSet::Of(e.process);
      const Computation xe = x.Extended(e);
      for (const Computation& y : all) {
        // Part 1: e internal or send, x [P] y, (x;e) computation => (y;e)
        // computation (and the system, being one fixed system, must admit
        // it — we check admissibility in the model sense: validity).
        if ((e.IsInternal() || e.IsSend()) && IsomorphicWrt(x, y, p)) {
          ++out.instances_checked;
          if (!CanExtend(y, e)) {
            // A send may be invalid on y only if y already contains the
            // message id; isomorphic-on-P computations share p's events, so
            // this cannot happen for sends from p... report violation.
            out.holds = false;
            out.violation = "part 1 failed at x=" + x.ToString() +
                            " y=" + y.ToString() + " e=" + e.ToString();
            return out;
          }
        }
        // Part 2: e internal or receive, (x;e) [P] y => (y - e) computation.
        if ((e.IsInternal() || e.IsReceive()) && IsomorphicWrt(xe, y, p)) {
          ++out.instances_checked;
          // y must contain e (p's projections match); removing it must
          // leave a computation.
          auto events = y.events();
          auto it = std::find(events.begin(), events.end(), e);
          if (it == events.end()) {
            out.holds = false;
            out.violation = "part 2: e missing from y";
            return out;
          }
          events.erase(it);
          try {
            Computation check(std::move(events));
          } catch (const ModelError& err) {
            out.holds = false;
            out.violation = std::string("part 2: (y - e) invalid: ") +
                            err.what();
            return out;
          }
        }
      }
    }
  }
  return out;
}

Theorem3Result CheckTheorem3(const ComputationSpace& space,
                             const Computation& x, const Event& e,
                             ProcessSet p) {
  if (!e.IsOn(p)) throw ModelError("CheckTheorem3: e must be on P");
  Theorem3Result result;
  result.kind = e.kind;
  const ProcessSet pbar = p.ComplementIn(space.AllProcesses());
  const std::vector<ProcessSet> stages{p, pbar};

  const auto before =
      space.ComposedReachable(space.RequireIndex(x), stages);
  const auto after =
      space.ComposedReachable(space.RequireIndex(x.Extended(e)), stages);
  result.before_size = before.size();
  result.after_size = after.size();

  const bool after_subset =
      std::includes(before.begin(), before.end(), after.begin(), after.end());
  const bool before_subset =
      std::includes(after.begin(), after.end(), before.begin(), before.end());
  switch (e.kind) {
    case EventKind::kReceive:
      result.holds = after_subset;
      break;
    case EventKind::kSend:
      result.holds = before_subset;
      break;
    case EventKind::kInternal:
      result.holds = after_subset && before_subset;
      break;
  }
  return result;
}

Theorem4Result CheckTheorem4(KnowledgeEvaluator& eval,
                             const std::vector<ProcessSet>& chain,
                             const Predicate& b, const Computation& x,
                             const Computation& y) {
  if (chain.empty()) throw ModelError("CheckTheorem4: empty chain");
  const ComputationSpace& space = eval.space();
  const std::size_t xid = space.RequireIndex(x);
  const std::size_t yid = space.RequireIndex(y);

  Theorem4Result result;
  const bool nested = eval.Holds(NestedKnows(chain, b), xid);
  const bool path = space.ComposedIsomorphic(xid, yid, chain);
  result.antecedent = nested && path;
  result.consequent =
      eval.Holds(Formula::Knows(chain.back(), Formula::Atom(b)), yid);
  return result;
}

Theorem4Result CheckTheorem4Negative(KnowledgeEvaluator& eval,
                                     const std::vector<ProcessSet>& chain,
                                     const Predicate& b, const Computation& x,
                                     const Computation& y) {
  if (chain.empty()) throw ModelError("CheckTheorem4Negative: empty chain");
  const ComputationSpace& space = eval.space();
  const std::size_t xid = space.RequireIndex(x);
  const std::size_t yid = space.RequireIndex(y);

  // K{P1} ... K{P_{n-1}} !K{Pn} atom(b).
  FormulaPtr inner =
      Formula::Not(Formula::Knows(chain.back(), Formula::Atom(b)));
  std::vector<ProcessSet> outer(chain.begin(), chain.end() - 1);
  const FormulaPtr nested = Formula::KnowsChain(outer, inner);

  Theorem4Result result;
  result.antecedent = eval.Holds(nested, xid) &&
                      space.ComposedIsomorphic(xid, yid, chain);
  result.consequent =
      !eval.Holds(Formula::Knows(chain.back(), Formula::Atom(b)), yid);
  return result;
}

Lemma4Result CheckLemma4(KnowledgeEvaluator& eval, ProcessSet p,
                         const Predicate& b, const Computation& x,
                         const Event& e) {
  if (!e.IsOn(p)) throw ModelError("CheckLemma4: e must be on P");
  Lemma4Result result;
  result.kind = e.kind;
  const FormulaPtr kb = Formula::Knows(p, Formula::Atom(b));
  result.knows_before = eval.Holds(kb, eval.space().RequireIndex(x));
  result.knows_after =
      eval.Holds(kb, eval.space().RequireIndex(x.Extended(e)));
  switch (e.kind) {
    case EventKind::kReceive:  // knowledge is not lost
      result.holds = !result.knows_before || result.knows_after;
      break;
    case EventKind::kSend:  // knowledge is not gained
      result.holds = !result.knows_after || result.knows_before;
      break;
    case EventKind::kInternal:  // neither
      result.holds = result.knows_before == result.knows_after;
      break;
  }
  return result;
}

KnowledgeTransferResult CheckTheorem5(KnowledgeEvaluator& eval,
                                      const std::vector<ProcessSet>& chain,
                                      const Predicate& b,
                                      const Computation& x,
                                      const Computation& y) {
  if (chain.empty()) throw ModelError("CheckTheorem5: empty chain");
  if (!x.IsPrefixOf(y))
    throw ModelError("CheckTheorem5: x must be a prefix of y");
  const ComputationSpace& space = eval.space();

  KnowledgeTransferResult result;
  const bool not_known_at_x = !eval.Holds(
      Formula::Knows(chain.back(), Formula::Atom(b)),
      space.RequireIndex(x));
  const bool nested_at_y =
      eval.Holds(NestedKnows(chain, b), space.RequireIndex(y));
  result.antecedent = not_known_at_x && nested_at_y;

  // Chain <Pn ... P1> in (x, y).
  std::vector<ProcessSet> reversed(chain.rbegin(), chain.rend());
  ChainDetector detector(y, space.num_processes(), x.size());
  result.chain = detector.FindChain(reversed);
  return result;
}

KnowledgeTransferResult CheckTheorem6(KnowledgeEvaluator& eval,
                                      const std::vector<ProcessSet>& chain,
                                      const Predicate& b,
                                      const Computation& x,
                                      const Computation& y) {
  if (chain.empty()) throw ModelError("CheckTheorem6: empty chain");
  if (!x.IsPrefixOf(y))
    throw ModelError("CheckTheorem6: x must be a prefix of y");
  const ComputationSpace& space = eval.space();

  KnowledgeTransferResult result;
  const bool nested_at_x =
      eval.Holds(NestedKnows(chain, b), space.RequireIndex(x));
  const bool not_known_at_y = !eval.Holds(
      Formula::Knows(chain.back(), Formula::Atom(b)),
      space.RequireIndex(y));
  result.antecedent = nested_at_x && not_known_at_y;

  // Chain <P1 ... Pn> in (x, y).
  ChainDetector detector(y, space.num_processes(), x.size());
  result.chain = detector.FindChain(chain);
  return result;
}

namespace {

// K{P1} ... K{P_{n-1}} Sure{Pn} atom(b) — the sure-variant nesting (see
// the header for why only the innermost operator is replaced).
FormulaPtr NestedSure(const std::vector<ProcessSet>& chain,
                      const Predicate& b) {
  FormulaPtr out = Formula::Sure(chain.back(), Formula::Atom(b));
  std::vector<ProcessSet> outer(chain.begin(), chain.end() - 1);
  return Formula::KnowsChain(outer, std::move(out));
}

}  // namespace

KnowledgeTransferResult CheckTheorem5Sure(
    KnowledgeEvaluator& eval, const std::vector<ProcessSet>& chain,
    const Predicate& b, const Computation& x, const Computation& y) {
  if (chain.empty()) throw ModelError("CheckTheorem5Sure: empty chain");
  if (!x.IsPrefixOf(y))
    throw ModelError("CheckTheorem5Sure: x must be a prefix of y");
  const ComputationSpace& space = eval.space();

  KnowledgeTransferResult result;
  const bool not_sure_at_x = !eval.Holds(
      Formula::Sure(chain.back(), Formula::Atom(b)), space.RequireIndex(x));
  const bool nested_at_y =
      eval.Holds(NestedSure(chain, b), space.RequireIndex(y));
  result.antecedent = not_sure_at_x && nested_at_y;

  std::vector<ProcessSet> reversed(chain.rbegin(), chain.rend());
  ChainDetector detector(y, space.num_processes(), x.size());
  result.chain = detector.FindChain(reversed);
  return result;
}

KnowledgeTransferResult CheckTheorem6Sure(
    KnowledgeEvaluator& eval, const std::vector<ProcessSet>& chain,
    const Predicate& b, const Computation& x, const Computation& y) {
  if (chain.empty()) throw ModelError("CheckTheorem6Sure: empty chain");
  if (!x.IsPrefixOf(y))
    throw ModelError("CheckTheorem6Sure: x must be a prefix of y");
  const ComputationSpace& space = eval.space();

  KnowledgeTransferResult result;
  const bool nested_at_x =
      eval.Holds(NestedSure(chain, b), space.RequireIndex(x));
  const bool not_sure_at_y = !eval.Holds(
      Formula::Sure(chain.back(), Formula::Atom(b)), space.RequireIndex(y));
  result.antecedent = nested_at_x && not_sure_at_y;

  ChainDetector detector(y, space.num_processes(), x.size());
  result.chain = detector.FindChain(chain);
  return result;
}

GainLossEventResult CheckGainRequiresReceive(KnowledgeEvaluator& eval,
                                             ProcessSet p, const Predicate& b,
                                             const Computation& x,
                                             const Computation& y) {
  if (!x.IsPrefixOf(y))
    throw ModelError("CheckGainRequiresReceive: x must be a prefix of y");
  const ComputationSpace& space = eval.space();
  const ProcessSet pbar = p.ComplementIn(space.AllProcesses());
  KnowledgeEvaluator& ev = eval;
  if (!ev.IsLocalTo(b, pbar))
    throw ModelError("CheckGainRequiresReceive: b must be local to P̄");

  GainLossEventResult result;
  const FormulaPtr kb = Formula::Knows(p, Formula::Atom(b));
  const bool before = ev.Holds(kb, space.RequireIndex(x));
  const bool after = ev.Holds(kb, space.RequireIndex(y));
  result.antecedent = !before && after;
  for (const Event& e : y.SuffixAfter(x))
    if (e.IsReceive() && e.IsOn(p)) result.event_found = true;
  return result;
}

GainLossEventResult CheckLossRequiresSend(KnowledgeEvaluator& eval,
                                          ProcessSet p, const Predicate& b,
                                          const Computation& x,
                                          const Computation& y) {
  if (!x.IsPrefixOf(y))
    throw ModelError("CheckLossRequiresSend: x must be a prefix of y");
  const ComputationSpace& space = eval.space();
  const ProcessSet pbar = p.ComplementIn(space.AllProcesses());
  if (!eval.IsLocalTo(b, pbar))
    throw ModelError("CheckLossRequiresSend: b must be local to P̄");

  GainLossEventResult result;
  const FormulaPtr kb = Formula::Knows(p, Formula::Atom(b));
  const bool before = eval.Holds(kb, space.RequireIndex(x));
  const bool after = eval.Holds(kb, space.RequireIndex(y));
  result.antecedent = before && !after;
  for (const Event& e : y.SuffixAfter(x))
    if (e.IsSend() && e.IsOn(p)) result.event_found = true;
  return result;
}

}  // namespace hpl
