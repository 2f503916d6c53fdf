// State-based isomorphism (paper Section 6 Discussion): coarser relations,
// knowledge monotonicity, and survival of the transfer theorems.
#include "core/state_view.h"

#include <gtest/gtest.h>

#include <string>

#include "core/knowledge.h"
#include "core/process_chain.h"
#include "core/random_system.h"
#include "protocols/relay.h"
#include "protocols/token_bus.h"

namespace hpl {
namespace {

ComputationSpace SmallSpace(std::uint64_t seed) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.internal_events = 1;
  options.seed = seed;
  RandomSystem system(options);
  return ComputationSpace::Enumerate(system, {.max_depth = 24});
}

TEST(StateViewTest, FullHistoryIsLossless) {
  auto space = SmallSpace(1);
  StateView view(space, StateAbstraction::FullHistory());
  EXPECT_TRUE(view.IsLossless());
  // Relation coincides with [P] exactly.
  for (std::size_t a = 0; a < space.size(); a += 5) {
    for (std::size_t b = 0; b < space.size(); b += 7) {
      for (ProcessId p = 0; p < 3; ++p) {
        EXPECT_EQ(view.StateIsomorphic(a, b, ProcessSet::Of(p)),
                  space.Isomorphic(a, b, ProcessSet::Of(p)))
            << a << "," << b;
      }
    }
  }
}

TEST(StateViewTest, ForgetfulAbstractionsAreCoarser) {
  auto space = SmallSpace(2);
  for (const StateAbstraction& abstraction :
       {StateAbstraction::EventCount(), StateAbstraction::LabelBag(),
        StateAbstraction::LastEvent()}) {
    StateView view(space, abstraction);
    for (std::size_t a = 0; a < space.size(); a += 3) {
      for (std::size_t b = 0; b < space.size(); b += 5) {
        // [P]-equal implies state-equal, never the reverse being forced.
        if (space.Isomorphic(a, b, ProcessSet{0, 1, 2})) {
          EXPECT_TRUE(view.StateIsomorphic(a, b, ProcessSet{0, 1, 2}))
              << abstraction.name();
        }
      }
    }
  }
}

TEST(StateViewTest, EventCountIsGenuinelyLossy) {
  auto space = SmallSpace(3);
  StateView view(space, StateAbstraction::EventCount());
  EXPECT_FALSE(view.IsLossless());
}

TEST(StateViewTest, StateKnowledgeMatchesComputationKnowledgeWhenLossless) {
  auto space = SmallSpace(4);
  StateView view(space, StateAbstraction::FullHistory());
  KnowledgeEvaluator state_eval(view);
  KnowledgeEvaluator eval(space);
  const Predicate b = Predicate::CountOnAtLeast(0, 1);
  for (std::size_t id = 0; id < space.size(); ++id) {
    for (ProcessId p = 0; p < 3; ++p) {
      EXPECT_EQ(state_eval.Knows(ProcessSet::Of(p), b, id),
                eval.Knows(ProcessSet::Of(p), b, id))
          << id << " p" << p;
    }
  }
}

TEST(StateViewTest, StateKnowledgeImpliesComputationKnowledge) {
  // Coarser relation quantifies over more worlds: K_state => K_comp.
  auto space = SmallSpace(5);
  KnowledgeEvaluator eval(space);
  for (const StateAbstraction& abstraction :
       {StateAbstraction::EventCount(), StateAbstraction::LabelBag(),
        StateAbstraction::LastEvent()}) {
    StateView view(space, abstraction);
    KnowledgeEvaluator state_eval(view);
    const Predicate b = Predicate::Sent(0);
    int state_known = 0, comp_known = 0;
    for (std::size_t id = 0; id < space.size(); ++id) {
      for (ProcessId p = 0; p < 3; ++p) {
        const bool ks = state_eval.Knows(ProcessSet::Of(p), b, id);
        const bool kc = eval.Knows(ProcessSet::Of(p), b, id);
        if (ks) {
          EXPECT_TRUE(kc) << abstraction.name() << " id=" << id;
          ++state_known;
        }
        if (kc) ++comp_known;
      }
    }
    EXPECT_LE(state_known, comp_known);
  }
}

// The Discussion's claim: "most of the results in this paper are
// applicable" to state-based isomorphism.  Verify the Theorem 5 analogue:
// gaining state-knowledge of a remote fact still requires a process chain.
TEST(StateViewTest, TheoremFiveSurvivesStateAbstraction) {
  protocols::RelaySystem relay(3);
  auto space = ComputationSpace::Enumerate(relay, {.max_depth = 10});
  for (const StateAbstraction& abstraction :
       {StateAbstraction::FullHistory(), StateAbstraction::LabelBag(),
        StateAbstraction::EventCount()}) {
    StateView view(space, abstraction);
    KnowledgeEvaluator state_eval(view);
    const Predicate fact = relay.Fact();
    int gains = 0;
    for (std::size_t yid = 0; yid < space.size(); ++yid) {
      const Computation& y = space.At(yid);
      for (std::size_t cut = 0; cut < y.size(); ++cut) {
        const Computation x = y.Prefix(cut);
        const bool before = state_eval.Knows(
            ProcessSet{2}, fact, space.RequireIndex(x));
        const bool after = state_eval.Knows(ProcessSet{2}, fact, yid);
        if (!before && after) {
          ++gains;
          ChainDetector detector(y, 3, x.size());
          EXPECT_TRUE(detector.HasChain({ProcessSet{2}}))
              << abstraction.name() << ": gain without p2 acting, x="
              << x.ToString() << " y=" << y.ToString();
        }
      }
    }
    EXPECT_GT(gains, 0) << abstraction.name();
  }
}

TEST(StateViewTest, RepeatedKnowsHitsTheMemo) {
  // Knows builds fresh K and atom nodes on every call; the evaluator must
  // canonicalize them onto the first call's memo rows instead of
  // re-evaluating the atom over the whole bucket.
  auto space = SmallSpace(8);
  StateView view(space, StateAbstraction::EventCount());
  KnowledgeEvaluator eval(view);
  const Predicate sent = Predicate::Sent(0);
  std::size_t calls = 0;
  const Predicate counted("counted_sent_m0", [&](const Computation& x) {
    ++calls;
    return sent.Eval(x);
  });
  const bool first = eval.Knows(ProcessSet{1}, counted, 0);
  EXPECT_GT(calls, 0u);
  calls = 0;
  EXPECT_EQ(eval.Knows(ProcessSet{1}, counted, 0), first);
  EXPECT_EQ(calls, 0u);
}

TEST(StateViewTest, CommonKnowledgeSupported) {
  // CK runs through the one engine: the greatest fixpoint over the union of
  // the members' state partitions.  EveryoneIterated still approximates it
  // from above, and the coarser relation makes state CK imply computation
  // CK.
  auto space = SmallSpace(6);
  StateView view(space, StateAbstraction::EventCount());
  KnowledgeEvaluator eval(view);
  KnowledgeEvaluator comp(space);
  const ProcessSet g{0, 1};
  EXPECT_TRUE(eval.Holds(
      Formula::Common(g, Formula::Atom(Predicate::True())), 0));
  const FormulaPtr b = Formula::Atom(Predicate::CountOnAtLeast(0, 1));
  const FormulaPtr ck = Formula::Common(g, b);
  const FormulaPtr e2 = Formula::EveryoneIterated(g, 2, b);
  for (std::size_t id = 0; id < space.size(); ++id) {
    if (!eval.Holds(ck, id)) continue;
    EXPECT_TRUE(eval.Holds(e2, id)) << id;
    EXPECT_TRUE(comp.Holds(ck, id)) << id;
  }
  // Components are unions of state classes, so they are coarser too.
  for (std::size_t a = 0; a < space.size(); ++a) {
    for (std::size_t c = 0; c < space.size(); c += 3) {
      if (comp.CommonComponent(g, a) == comp.CommonComponent(g, c)) {
        EXPECT_EQ(eval.CommonComponent(g, a), eval.CommonComponent(g, c));
      }
    }
  }
  EXPECT_THROW(eval.Holds(Formula::Knows(ProcessSet{7}, b), 0), ModelError);
  EXPECT_THROW(eval.CommonComponent(ProcessSet{}, 0), ModelError);
}

TEST(StateViewTest, RefreshAfterGrowthNamesTheStaleView) {
  // The view's state classes cover the space as it was when the view was
  // built; an evaluator over it refuses to re-sync past growth.
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  builder.Build(bus, {.max_depth = 3, .allow_truncation = true});
  StateView view(builder.space(), StateAbstraction::LabelBag());
  KnowledgeEvaluator eval(view);
  const FormulaPtr f =
      Formula::Knows(ProcessSet{0}, Formula::Atom(bus.HoldsToken(1)));
  const auto before = eval.SatisfyingSet(f);
  eval.Refresh();  // no growth: a no-op
  EXPECT_EQ(eval.SatisfyingSet(f), before);
  ASSERT_GT(builder.Deepen(1), 0u);
  try {
    eval.Refresh();
    ADD_FAILURE() << "Refresh after Deepen did not throw";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string(e.what()).find("StateView"), std::string::npos)
        << e.what();
  }
}

TEST(StateViewTest, LocalPredicatesUnderAbstraction) {
  // A predicate readable from the abstract state stays local; one that
  // needs forgotten history loses localness.
  auto space = SmallSpace(7);
  StateView count_view(space, StateAbstraction::EventCount());
  KnowledgeEvaluator count_eval(count_view);
  // "p0 performed >= 1 event" is readable from p0's event count.
  EXPECT_TRUE(count_eval.IsLocalTo(Predicate::CountOnAtLeast(0, 1),
                                   ProcessSet{0}));
  // "message m0 was sent (by whoever)" needs labels, which EventCount
  // forgets — p0 alone can no longer always be sure of its own sends'
  // identity... use a label-sensitive predicate owned by p0:
  const Predicate did = Predicate::DidInternal(0, "i0_0");
  StateView bag_view(space, StateAbstraction::LabelBag());
  KnowledgeEvaluator bag_eval(bag_view);
  // LabelBag keeps labels: still local.
  EXPECT_TRUE(bag_eval.IsLocalTo(did, ProcessSet{0}));
}

}  // namespace
}  // namespace hpl
