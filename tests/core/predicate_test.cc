#include "core/predicate.h"

#include <gtest/gtest.h>

namespace hpl {
namespace {

Computation Sample() {
  return Computation({
      Internal(0, "boot"),
      Send(0, 1, 0, "m"),
      Receive(1, 0, 0, "m"),
      Internal(1, "done"),
      Send(1, 2, 1, "n"),
  });
}

TEST(PredicateTest, Constants) {
  const Computation x = Sample();
  EXPECT_TRUE(Predicate::True().Eval(x));
  EXPECT_FALSE(Predicate::False().Eval(x));
  EXPECT_TRUE(Predicate::True().Eval(Computation{}));
}

TEST(PredicateTest, CountOnAtLeast) {
  const Computation x = Sample();
  EXPECT_TRUE(Predicate::CountOnAtLeast(0, 2).Eval(x));
  EXPECT_FALSE(Predicate::CountOnAtLeast(0, 3).Eval(x));
  EXPECT_TRUE(Predicate::CountOnAtLeast(2, 0).Eval(x));
  EXPECT_FALSE(Predicate::CountOnAtLeast(2, 1).Eval(x));
}

TEST(PredicateTest, DidInternalAndHasLabel) {
  const Computation x = Sample();
  EXPECT_TRUE(Predicate::DidInternal(0, "boot").Eval(x));
  EXPECT_FALSE(Predicate::DidInternal(1, "boot").Eval(x));
  EXPECT_FALSE(Predicate::DidInternal(0, "done").Eval(x));
  // Atoms are interned by name, so the label must be in it.
  EXPECT_EQ(Predicate::DidInternal(0, "boot").name(), "did(p0,boot)");
  EXPECT_TRUE(Predicate::HasLabel("n").Eval(x));
  EXPECT_FALSE(Predicate::HasLabel("zzz").Eval(x));
}

TEST(PredicateTest, SentAndReceived) {
  const Computation x = Sample();
  EXPECT_TRUE(Predicate::Sent(0).Eval(x));
  EXPECT_TRUE(Predicate::Received(0).Eval(x));
  EXPECT_TRUE(Predicate::Sent(1).Eval(x));
  EXPECT_FALSE(Predicate::Received(1).Eval(x));  // m1 in flight
  EXPECT_FALSE(Predicate::Sent(9).Eval(x));
}

TEST(PredicateTest, AllMessagesDelivered) {
  EXPECT_TRUE(Predicate::AllMessagesDelivered().Eval(Computation{}));
  EXPECT_FALSE(Predicate::AllMessagesDelivered().Eval(Sample()));
  const Computation delivered(
      {Send(0, 1, 0, "m"), Receive(1, 0, 0, "m")});
  EXPECT_TRUE(Predicate::AllMessagesDelivered().Eval(delivered));
}

TEST(PredicateTest, Combinators) {
  const Computation x = Sample();
  const Predicate a = Predicate::Sent(0);
  const Predicate b = Predicate::Received(1);
  EXPECT_FALSE((!a).Eval(x));
  EXPECT_TRUE((!b).Eval(x));
  EXPECT_FALSE((a && b).Eval(x));
  EXPECT_TRUE((a || b).Eval(x));
  EXPECT_FALSE(a.Implies(b).Eval(x));
  EXPECT_TRUE(b.Implies(a).Eval(x));  // vacuous
  // Names compose readably.
  EXPECT_EQ((!a).name(), "!(sent(m0))");
  EXPECT_EQ((a && b).name(), "(sent(m0) && received(m1))");
}

TEST(PredicateTest, EmptyPredicateThrows) {
  Predicate empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.Eval(Computation{}), ModelError);
}

TEST(PredicateTest, PermutationInvarianceOfBuiltins) {
  // Built-in predicates must be [D]-invariant (the paper's assumption).
  const Computation a({Internal(0, "x"), Internal(1, "y"),
                       Send(0, 1, 0, "m")});
  const Computation b({Internal(1, "y"), Internal(0, "x"),
                       Send(0, 1, 0, "m")});
  ASSERT_TRUE(a.IsPermutationOf(b));
  for (const Predicate& p :
       {Predicate::CountOnAtLeast(0, 2), Predicate::Sent(0),
        Predicate::Received(0), Predicate::DidInternal(1, "y"),
        Predicate::HasLabel("m"), Predicate::AllMessagesDelivered()}) {
    EXPECT_EQ(p.Eval(a), p.Eval(b)) << p.name();
  }
}

}  // namespace
}  // namespace hpl
