#include "core/formula.h"

#include <gtest/gtest.h>

namespace hpl {
namespace {

std::vector<Predicate> Atoms() {
  return {Predicate("b", [](const Computation& x) { return !x.empty(); }),
          Predicate("c", [](const Computation&) { return true; })};
}

TEST(FormulaTest, BuilderShapes) {
  auto b = Formula::Atom(Atoms()[0]);
  EXPECT_EQ(b->kind(), FormulaKind::kAtom);
  EXPECT_EQ(b->ToString(), "b");

  auto f = Formula::Knows(ProcessSet{0}, b);
  EXPECT_EQ(f->kind(), FormulaKind::kKnows);
  EXPECT_EQ(f->group(), ProcessSet{0});
  EXPECT_EQ(f->ToString(), "K{p0} b");

  auto g = Formula::And(Formula::Not(b), Formula::Or(b, b));
  EXPECT_EQ(g->ToString(), "(!b && (b || b))");
}

TEST(FormulaTest, ModalDepth) {
  auto b = Formula::Atom(Atoms()[0]);
  EXPECT_EQ(b->ModalDepth(), 0);
  EXPECT_EQ(Formula::Not(b)->ModalDepth(), 0);
  auto k = Formula::Knows(ProcessSet{0}, b);
  EXPECT_EQ(k->ModalDepth(), 1);
  auto kk = Formula::Knows(ProcessSet{1}, k);
  EXPECT_EQ(kk->ModalDepth(), 2);
  EXPECT_EQ(Formula::And(kk, b)->ModalDepth(), 2);
  EXPECT_EQ(Formula::Common(ProcessSet{0, 1}, k)->ModalDepth(), 2);
}

TEST(FormulaTest, KnowsChainBuildsOutermostFirst) {
  auto b = Formula::Atom(Atoms()[0]);
  auto chain =
      Formula::KnowsChain({ProcessSet{0}, ProcessSet{1}, ProcessSet{2}}, b);
  // P1 knows P2 knows P3 knows b, outermost P1 = {0}.
  EXPECT_EQ(chain->ToString(), "K{p0} K{p1} K{p2} b");
}

TEST(FormulaTest, ParseAtomsAndConnectives) {
  const auto atoms = Atoms();
  EXPECT_EQ(Formula::Parse("b", atoms)->ToString(), "b");
  EXPECT_EQ(Formula::Parse("!b", atoms)->ToString(), "!b");
  EXPECT_EQ(Formula::Parse("b && c", atoms)->ToString(), "(b && c)");
  EXPECT_EQ(Formula::Parse("b || c && b", atoms)->ToString(),
            "(b || (c && b))");
  EXPECT_EQ(Formula::Parse("b => c => b", atoms)->ToString(),
            "(b => (c => b))");
  EXPECT_EQ(Formula::Parse("(b || c) && b", atoms)->ToString(),
            "((b || c) && b)");
  EXPECT_EQ(Formula::Parse("true && false", atoms)->ToString(),
            "(true && false)");
}

TEST(FormulaTest, ParseModalities) {
  const auto atoms = Atoms();
  EXPECT_EQ(Formula::Parse("K{0} b", atoms)->ToString(), "K{p0} b");
  EXPECT_EQ(Formula::Parse("K{0,2} b", atoms)->ToString(), "K{p0,p2} b");
  EXPECT_EQ(Formula::Parse("K{0} K{1} b", atoms)->ToString(),
            "K{p0} K{p1} b");
  EXPECT_EQ(Formula::Parse("Sure{1} b", atoms)->ToString(), "Sure{p1} b");
  EXPECT_EQ(Formula::Parse("CK{0,1} b", atoms)->ToString(), "CK{p0,p1} b");
  EXPECT_EQ(Formula::Parse("!K{0} !b", atoms)->ToString(), "!K{p0} !b");
}

TEST(FormulaTest, ParseErrors) {
  const auto atoms = Atoms();
  EXPECT_THROW(Formula::Parse("", atoms), ModelError);
  EXPECT_THROW(Formula::Parse("d", atoms), ModelError);       // unknown atom
  EXPECT_THROW(Formula::Parse("b &&", atoms), ModelError);
  EXPECT_THROW(Formula::Parse("K b", atoms), ModelError);     // missing group
  EXPECT_THROW(Formula::Parse("K{} b", atoms), ModelError);   // empty group
  EXPECT_THROW(Formula::Parse("(b", atoms), ModelError);
  EXPECT_THROW(Formula::Parse("b c", atoms), ModelError);     // trailing
}

TEST(FormulaTest, NullOperandsRejected) {
  auto b = Formula::Atom(Atoms()[0]);
  EXPECT_THROW(Formula::Not(nullptr), ModelError);
  EXPECT_THROW(Formula::And(b, nullptr), ModelError);
  EXPECT_THROW(Formula::Knows(ProcessSet{0}, nullptr), ModelError);
  EXPECT_THROW(Formula::Common(ProcessSet::Empty(), b), ModelError);
  EXPECT_THROW(Formula::Atom(Predicate{}), ModelError);
}

TEST(FormulaTest, HeightCountsTheLongestPath) {
  auto b = Formula::Atom(Atoms()[0]);
  EXPECT_EQ(b->Height(), 1);
  EXPECT_EQ(Formula::Not(b)->Height(), 2);
  EXPECT_EQ(Formula::And(Formula::Knows(ProcessSet{0}, Formula::Not(b)), b)
                ->Height(),
            4);
}

TEST(FormulaTest, ParseCapsHeightAndNesting) {
  const auto atoms = Atoms();
  const auto repeat = [](const std::string& unit, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += unit;
    return out;
  };
  const auto chain = [](const std::string& op, int atoms) {
    std::string out = "b";
    for (int i = 1; i < atoms; ++i) out += op + "b";
    return out;
  };
  // Right at the cap parses; one level past it is an error naming the cap.
  EXPECT_EQ(Formula::Parse(repeat("!", kMaxFormulaHeight - 1) + "b", atoms)
                ->Height(),
            kMaxFormulaHeight);
  EXPECT_EQ(Formula::Parse(chain(" && ", kMaxFormulaHeight), atoms)->Height(),
            kMaxFormulaHeight);
  for (const std::string& text :
       {repeat("!", kMaxFormulaHeight) + "b",
        repeat("K{0} ", 100000) + "b",
        repeat("(", 100000) + "b" + repeat(")", 100000),
        chain(" && ", kMaxFormulaHeight + 1), chain(" || ", 100000),
        chain(" => ", 100000),
        "!(" + chain(" || ", kMaxFormulaHeight) + ")"}) {
    try {
      (void)Formula::Parse(text, atoms);
      ADD_FAILURE() << "parsed a formula past the cap: " << text.substr(0, 40);
    } catch (const ModelError& error) {
      EXPECT_NE(std::string(error.what()).find(
                    std::to_string(kMaxFormulaHeight)),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace hpl
