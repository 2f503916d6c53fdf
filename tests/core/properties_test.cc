// Property-based verification of the paper's algebraic laws over seeded
// random systems: isomorphism properties 1-10 (Section 3), knowledge facts
// 1-12 (Section 4.1) and Lemma 2.  Each TEST_P sweeps every computation (or
// a stride of pairs) of the enumerated space.
#include <gtest/gtest.h>

#include "core/isomorphism.h"
#include "core/knowledge.h"
#include "core/random_system.h"
#include "core/theorems.h"

namespace hpl {
namespace {

struct SpaceBundle {
  explicit SpaceBundle(std::uint64_t seed)
      : system([&] {
          RandomSystemOptions options;
          options.num_processes = 3;
          options.num_messages = 3;
          options.internal_events = 1;
          options.seed = seed;
          return RandomSystem(options);
        }()),
        space(ComputationSpace::Enumerate(system, {.max_depth = 24})),
        eval(space) {}

  RandomSystem system;
  ComputationSpace space;
  KnowledgeEvaluator eval;
};

class IsomorphismLawTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  IsomorphismLawTest() : bundle_(GetParam()) {}
  SpaceBundle bundle_;
};

TEST_P(IsomorphismLawTest, Property1Equivalence) {
  std::vector<Computation> sample;
  for (std::size_t id = 0; id < bundle_.space.size(); id += 9)
    sample.push_back(bundle_.space.At(id));
  for (const ProcessSet set :
       {ProcessSet{0}, ProcessSet{1, 2}, ProcessSet{0, 1, 2}})
    EXPECT_TRUE(CheckEquivalenceProperty(sample, set)) << set.ToString();
}

TEST_P(IsomorphismLawTest, Property3Idempotence) {
  // [P P] = [P].
  const ProcessSet p{0, 1};
  for (std::size_t id = 0; id < bundle_.space.size(); id += 11)
    EXPECT_EQ(bundle_.space.ComposedReachable(id, {p}),
              bundle_.space.ComposedReachable(id, {p, p}));
}

TEST_P(IsomorphismLawTest, Property4Reflexivity) {
  // x [P1 ... Pn] x for arbitrary stage sequences.
  const std::vector<ProcessSet> stages{ProcessSet{0}, ProcessSet{2},
                                       ProcessSet{1, 2}};
  for (std::size_t id = 0; id < bundle_.space.size(); id += 13)
    EXPECT_TRUE(bundle_.space.ComposedIsomorphic(id, id, stages));
}

TEST_P(IsomorphismLawTest, Property5Inversion) {
  const std::vector<ProcessSet> fwd{ProcessSet{0, 1}, ProcessSet{2}};
  const std::vector<ProcessSet> rev{ProcessSet{2}, ProcessSet{0, 1}};
  for (std::size_t a = 0; a < bundle_.space.size(); a += 17)
    for (std::size_t b = 0; b < bundle_.space.size(); b += 11)
      EXPECT_EQ(bundle_.space.ComposedIsomorphic(a, b, fwd),
                bundle_.space.ComposedIsomorphic(b, a, rev));
}

TEST_P(IsomorphismLawTest, Property6Concatenation) {
  // x [P1 P2] z == exists y: x [P1] y and y [P2] z, by construction of
  // ComposedReachable; verify against a direct two-step scan.
  const ProcessSet p1{0}, p2{1};
  const Partition part1 = bundle_.space.PartitionOf(p1);
  const Partition part2 = bundle_.space.PartitionOf(p2);
  for (std::size_t a = 0; a < bundle_.space.size(); a += 19) {
    const auto composed = bundle_.space.ComposedReachable(a, {p1, p2});
    std::vector<std::size_t> direct;
    for (std::uint32_t y : part1.Bucket(part1.ClassOf(a)))
      for (std::uint32_t z : part2.Bucket(part2.ClassOf(y)))
        direct.push_back(z);
    std::sort(direct.begin(), direct.end());
    direct.erase(std::unique(direct.begin(), direct.end()), direct.end());
    EXPECT_EQ(composed, direct);
  }
}

TEST_P(IsomorphismLawTest, Property7Union) {
  for (std::size_t a = 0; a < bundle_.space.size(); a += 7)
    for (std::size_t b = 0; b < bundle_.space.size(); b += 23)
      EXPECT_TRUE(CheckUnionProperty(bundle_.space.At(a), bundle_.space.At(b),
                                     ProcessSet{0}, ProcessSet{1, 2}));
}

TEST_P(IsomorphismLawTest, Property8Monotonicity) {
  for (std::size_t a = 0; a < bundle_.space.size(); a += 7)
    for (std::size_t b = 0; b < bundle_.space.size(); b += 23)
      EXPECT_TRUE(CheckMonotonicityProperty(
          bundle_.space.At(a), bundle_.space.At(b), ProcessSet{1},
          ProcessSet{1, 2}));
}

TEST_P(IsomorphismLawTest, Property10SupersetAbsorbed) {
  // Q superset of P implies [Q P] = [P] = [P Q]: the superset's relation is
  // finer ([Q] subset of [P], property 8), so composing with it is a no-op.
  const ProcessSet q{0, 1}, p{0};
  for (std::size_t id = 0; id < bundle_.space.size(); id += 11) {
    const auto only_p = bundle_.space.ComposedReachable(id, {p});
    EXPECT_EQ(bundle_.space.ComposedReachable(id, {q, p}), only_p);
    EXPECT_EQ(bundle_.space.ComposedReachable(id, {p, q}), only_p);
  }
}

TEST_P(IsomorphismLawTest, Theorem1Dichotomy) {
  // For every prefix pair and several stage patterns: isomorphism or chain.
  const std::vector<std::vector<ProcessSet>> patterns = {
      {ProcessSet{0}},
      {ProcessSet{0}, ProcessSet{1}},
      {ProcessSet{1}, ProcessSet{0}},
      {ProcessSet{2}, ProcessSet{1}, ProcessSet{0}},
      {ProcessSet{0, 1}, ProcessSet{2}},
  };
  int chain_side = 0, iso_side = 0;
  for (std::size_t zid = 0; zid < bundle_.space.size(); zid += 5) {
    const Computation& z = bundle_.space.At(zid);
    for (std::size_t cut : {z.size() / 3, z.size() / 2}) {
      const Computation x = z.Prefix(cut);
      for (const auto& stages : patterns) {
        auto result = CheckTheorem1(bundle_.space, x, z, stages);
        ASSERT_TRUE(result.holds())
            << "x=" << x.ToString() << " z=" << z.ToString();
        if (result.chain.has_value()) ++chain_side;
        if (result.composed_isomorphic) ++iso_side;
      }
    }
  }
  EXPECT_GT(chain_side, 0);
  EXPECT_GT(iso_side, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IsomorphismLawTest,
                         ::testing::Values(101, 102, 103));

class KnowledgeLawTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  KnowledgeLawTest()
      : bundle_(GetParam()),
        b_(Predicate::CountOnAtLeast(0, 1)),
        c_(Predicate::Sent(0)) {}

  bool Holds(const FormulaPtr& f, std::size_t id) {
    return bundle_.eval.Holds(f, id);
  }

  SpaceBundle bundle_;
  Predicate b_, c_;
};

TEST_P(KnowledgeLawTest, Fact2IsomorphicComputationsShareKnowledge) {
  auto kb = Formula::Knows(ProcessSet{1}, Formula::Atom(b_));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 9) {
    const bool at_x = Holds(kb, id);
    const Partition p1 = bundle_.space.PartitionOf(ProcessSet{1});
    for (std::uint32_t y : p1.Bucket(p1.ClassOf(id)))
      EXPECT_EQ(Holds(kb, y), at_x);
  }
}

TEST_P(KnowledgeLawTest, Facts3And4MonotoneAndVeridical) {
  for (std::size_t id = 0; id < bundle_.space.size(); id += 5) {
    for (const ProcessSet p : {ProcessSet{0}, ProcessSet{1}}) {
      const bool knows = bundle_.eval.Knows(p, b_, id);
      if (knows) {
        EXPECT_TRUE(b_.Eval(bundle_.space.At(id)));                  // fact 4
        EXPECT_TRUE(bundle_.eval.Knows(p.Union(ProcessSet{2}), b_, id));  // 3
      }
    }
  }
}

TEST_P(KnowledgeLawTest, Fact5ExcludedMiddleOverKnowledge) {
  // (P knows b) or !(P knows b) — trivially total in our two-valued model;
  // check evaluation is total and deterministic across repeats.
  auto kb = Formula::Knows(ProcessSet{2}, Formula::Atom(b_));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 7)
    EXPECT_EQ(Holds(kb, id), Holds(kb, id));
}

TEST_P(KnowledgeLawTest, Fact6Conjunction) {
  auto lhs = Formula::Knows(
      ProcessSet{1}, Formula::And(Formula::Atom(b_), Formula::Atom(c_)));
  auto rhs =
      Formula::And(Formula::Knows(ProcessSet{1}, Formula::Atom(b_)),
                   Formula::Knows(ProcessSet{1}, Formula::Atom(c_)));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 3)
    EXPECT_EQ(Holds(lhs, id), Holds(rhs, id)) << id;
}

TEST_P(KnowledgeLawTest, Fact7DisjunctionOneWay) {
  auto lhs =
      Formula::Or(Formula::Knows(ProcessSet{1}, Formula::Atom(b_)),
                  Formula::Knows(ProcessSet{1}, Formula::Atom(c_)));
  auto rhs = Formula::Knows(
      ProcessSet{1}, Formula::Or(Formula::Atom(b_), Formula::Atom(c_)));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 3)
    if (Holds(lhs, id)) {
      EXPECT_TRUE(Holds(rhs, id)) << id;
    }
}

TEST_P(KnowledgeLawTest, Fact8KnowledgeOfNegation) {
  auto lhs = Formula::Knows(ProcessSet{1}, Formula::Not(Formula::Atom(b_)));
  auto rhs = Formula::Not(Formula::Knows(ProcessSet{1}, Formula::Atom(b_)));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 3)
    if (Holds(lhs, id)) {
      EXPECT_TRUE(Holds(rhs, id)) << id;
    }
}

TEST_P(KnowledgeLawTest, Fact9ClosureUnderImplication) {
  // ((P knows b) and (b implies b')) implies (P knows b') — with
  // "b implies b'" read as valid (true at every computation).  Use
  // b' := b || c which b entails pointwise.
  auto kb = Formula::Knows(ProcessSet{0}, Formula::Atom(b_));
  auto kbc = Formula::Knows(
      ProcessSet{0}, Formula::Or(Formula::Atom(b_), Formula::Atom(c_)));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 3)
    if (Holds(kb, id)) {
      EXPECT_TRUE(Holds(kbc, id)) << id;
    }
}

TEST_P(KnowledgeLawTest, Facts10And11Introspection) {
  auto kb = Formula::Knows(ProcessSet{1}, Formula::Atom(b_));
  auto kkb = Formula::Knows(ProcessSet{1}, kb);
  auto lhs11 = Formula::Knows(ProcessSet{1}, Formula::Not(kb));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 3) {
    EXPECT_EQ(Holds(kb, id), Holds(kkb, id)) << id;                // fact 10
    EXPECT_EQ(Holds(lhs11, id), !Holds(kb, id)) << id;  // Lemma 2 / fact 11
  }
}

TEST_P(KnowledgeLawTest, SureVersionsOfTheorems) {
  // "Theorems 4, 5, 6 and their corollaries hold with knows replaced by
  // sure."  Spot-check Theorem 5's sure-variant: gaining sureness of a
  // remote fact requires a chain.
  const ProcessSet p2{2};
  auto sure = Formula::Sure(p2, Formula::Atom(b_));
  for (std::size_t yid = 0; yid < bundle_.space.size(); yid += 5) {
    const Computation& y = bundle_.space.At(yid);
    const Computation x = y.Prefix(y.size() / 2);
    const bool sure_x = Holds(sure, bundle_.space.RequireIndex(x));
    const bool sure_y = Holds(sure, bundle_.space.RequireIndex(y));
    if (!sure_x && sure_y) {
      // Chain <p2> in (x,y): p2 must have acted.
      ChainDetector d(y, 3, x.size());
      EXPECT_TRUE(d.HasChain({p2}))
          << "x=" << x.ToString() << " y=" << y.ToString();
    }
  }
}

TEST_P(KnowledgeLawTest, EveryoneBoundsDistributedKnowledge) {
  // E{G} f  =>  K{G} f  (if each member knows, the joint view knows), and
  // K{p} f => E... no — singleton E and K coincide.
  const ProcessSet g{0, 1, 2};
  auto everyone = Formula::Everyone(g, Formula::Atom(b_));
  auto distributed = Formula::Knows(g, Formula::Atom(b_));
  auto single_e = Formula::Everyone(ProcessSet{1}, Formula::Atom(b_));
  auto single_k = Formula::Knows(ProcessSet{1}, Formula::Atom(b_));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 3) {
    if (Holds(everyone, id)) {
      EXPECT_TRUE(Holds(distributed, id)) << id;
    }
    EXPECT_EQ(Holds(single_e, id), Holds(single_k, id)) << id;
  }
}

TEST_P(KnowledgeLawTest, PossibilityDuality) {
  // M{P} f == !K{P}!f, and K{P} f => M{P} f (seriality: the class is
  // non-empty since it contains the computation itself).
  const ProcessSet p{2};
  auto m = Formula::Possible(p, Formula::Atom(b_));
  auto dual = Formula::Not(Formula::Knows(p, Formula::Not(Formula::Atom(b_))));
  auto k = Formula::Knows(p, Formula::Atom(b_));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 3) {
    EXPECT_EQ(Holds(m, id), Holds(dual, id)) << id;
    if (Holds(k, id)) {
      EXPECT_TRUE(Holds(m, id)) << id;
    }
  }
}

TEST_P(KnowledgeLawTest, EveryoneIteratedMonotoneInDepth) {
  const ProcessSet g{0, 1};
  std::size_t previous = bundle_.space.size() + 1;
  for (int k = 0; k <= 3; ++k) {
    auto ek = Formula::EveryoneIterated(g, k, Formula::Atom(b_));
    std::size_t count = 0;
    for (std::size_t id = 0; id < bundle_.space.size(); ++id)
      if (Holds(ek, id)) ++count;
    EXPECT_LE(count, previous) << "k=" << k;
    previous = count;
  }
}

TEST_P(KnowledgeLawTest, CommonKnowledgeImpliesEveryDepth) {
  const ProcessSet g{0, 1, 2};
  auto ck = Formula::Common(g, Formula::Atom(b_));
  for (std::size_t id = 0; id < bundle_.space.size(); id += 5) {
    if (!Holds(ck, id)) continue;
    for (int k = 1; k <= 3; ++k) {
      auto ek = Formula::EveryoneIterated(g, k, Formula::Atom(b_));
      EXPECT_TRUE(Holds(ek, id)) << "k=" << k;
    }
  }
}

TEST_P(KnowledgeLawTest, CommonKnowledgeIsConstant) {
  // Section 4.2: common knowledge is neither gained nor lost, so CK of any
  // fact is constant over the space, and only a constant fact is commonly
  // known.  Corollary: if disjoint P and Q know b at exactly the same
  // computations, then P knows b is constant.
  const ProcessSet all{0, 1, 2};
  for (const Predicate& b : {b_, c_, Predicate::True()}) {
    EXPECT_TRUE(bundle_.eval.IsConstant(Formula::Common(all, Formula::Atom(b))))
        << b.name();
    auto kp = Formula::Knows(ProcessSet{0}, Formula::Atom(b));
    auto kq = Formula::Knows(ProcessSet{1}, Formula::Atom(b));
    if (bundle_.eval.SatisfyingSet(kp) == bundle_.eval.SatisfyingSet(kq)) {
      EXPECT_TRUE(bundle_.eval.IsConstant(kp)) << b.name();
    }
  }
  EXPECT_FALSE(Holds(Formula::Common(all, Formula::Atom(b_)), 0));
  EXPECT_TRUE(Holds(Formula::Common(all, Formula::Atom(Predicate::True())), 0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnowledgeLawTest,
                         ::testing::Values(201, 202, 203, 204));

}  // namespace
}  // namespace hpl
