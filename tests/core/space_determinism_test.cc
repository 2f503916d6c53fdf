// The determinism contract of parallel enumeration: every num_threads value
// must reproduce the sequential space byte-for-byte — class ids, class
// ordering, projection classes, successor lists — and therefore identical
// knowledge verdicts.  Checked on a canonicalized system (per-shard [D]
// dedup exercised) and a non-canonicalized one (literal-sequence dedup).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "protocols/lockstep.h"

namespace hpl {
namespace {

void ExpectIdenticalSpaces(const ComputationSpace& a,
                           const ComputationSpace& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.truncated(), b.truncated());
  for (std::size_t id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.At(id), b.At(id)) << "class " << id;
    const auto& succ_a = a.SuccessorsOf(id);
    const auto& succ_b = b.SuccessorsOf(id);
    ASSERT_EQ(succ_a.size(), succ_b.size()) << "class " << id;
    for (std::size_t i = 0; i < succ_a.size(); ++i) {
      EXPECT_EQ(succ_a[i].class_id, succ_b[i].class_id)
          << "class " << id << " successor " << i;
      EXPECT_EQ(succ_a[i].event, succ_b[i].event)
          << "class " << id << " successor " << i;
    }
  }
  for (ProcessId p = 0; p < a.num_processes(); ++p) {
    const Partition part_a = a.PartitionOf(ProcessSet::Of(p));
    const Partition part_b = b.PartitionOf(ProcessSet::Of(p));
    for (std::size_t id = 0; id < a.size(); ++id)
      ASSERT_EQ(part_a.ClassOf(id), part_b.ClassOf(id))
          << "class " << id << " process " << p;
    ASSERT_EQ(part_a.NumClasses(), part_b.NumClasses());
    for (std::uint32_t cls = 0; cls < part_a.NumClasses(); ++cls) {
      const auto bucket_a = part_a.Bucket(cls);
      const auto bucket_b = part_b.Bucket(cls);
      ASSERT_EQ(bucket_a.size(), bucket_b.size()) << "p" << p << " " << cls;
      EXPECT_TRUE(
          std::equal(bucket_a.begin(), bucket_a.end(), bucket_b.begin()))
          << "bucket of p" << p << " class " << cls;
    }
  }
  // Ids are discovered level by level, so IdsByLength() is the identity
  // permutation — assert the underlying invariant instead of comparing two
  // iota vectors: lengths are non-decreasing in id.
  for (std::size_t id = 1; id < a.size(); ++id)
    ASSERT_LE(a.LengthOf(id - 1), a.LengthOf(id)) << "class " << id;
}

void ExpectIdenticalVerdicts(const ComputationSpace& a,
                             const ComputationSpace& b,
                             const Predicate& atom) {
  KnowledgeEvaluator eval_a(a);
  KnowledgeEvaluator eval_b(b);
  const ProcessSet all = a.AllProcesses();
  const std::vector<FormulaPtr> formulas = {
      Formula::Knows(ProcessSet{0}, Formula::Atom(atom)),
      Formula::Knows(ProcessSet{1},
                     Formula::Knows(ProcessSet{0}, Formula::Atom(atom))),
      Formula::Sure(ProcessSet{1}, Formula::Atom(atom)),
      Formula::Common(all, Formula::Atom(atom)),
      Formula::Everyone(all, Formula::Atom(atom)),
      Formula::Possible(ProcessSet{0}, Formula::Atom(atom)),
  };
  for (const FormulaPtr& f : formulas)
    for (std::size_t id = 0; id < a.size(); ++id)
      ASSERT_EQ(eval_a.Holds(f, id), eval_b.Holds(f, id))
          << f->ToString() << " at " << id;
}

TEST(SpaceDeterminismTest, CanonicalizedSpaceIsThreadCountInvariant) {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 4;
  options.internal_events = 1;
  options.seed = 42;
  RandomSystem system(options);
  auto sequential = ComputationSpace::Enumerate(
      system, {.max_depth = 32, .num_threads = 1});
  auto threaded = ComputationSpace::Enumerate(
      system, {.max_depth = 32, .num_threads = 4});
  ASSERT_GT(sequential.size(), 500u);
  ExpectIdenticalSpaces(sequential, threaded);
  ExpectIdenticalVerdicts(sequential, threaded,
                          Predicate::CountOnAtLeast(0, 2));
}

TEST(SpaceDeterminismTest, NonCanonicalizedSpaceIsThreadCountInvariant) {
  // Lockstep keeps literal interleavings (canonicalize = false), so the
  // parallel dedup runs on sequence hashes instead of canonical forms.
  protocols::LockstepSystem system(2);
  EnumerationLimits limits;
  limits.max_depth = 12;
  limits.canonicalize = false;
  limits.num_threads = 1;
  auto sequential = ComputationSpace::Enumerate(system, limits);
  limits.num_threads = 4;
  auto threaded = ComputationSpace::Enumerate(system, limits);
  ASSERT_GT(sequential.size(), 10u);
  ExpectIdenticalSpaces(sequential, threaded);
  ExpectIdenticalVerdicts(sequential, threaded, system.Crashed());
}

TEST(SpaceDeterminismTest, DefaultThreadCountMatchesSequential) {
  // num_threads = 0 (hardware concurrency) must agree with the sequential
  // space too, whatever the host machine looks like.
  RandomSystemOptions options;
  options.seed = 11;
  RandomSystem system(options);
  auto sequential = ComputationSpace::Enumerate(
      system, {.max_depth = 24, .num_threads = 1});
  auto automatic = ComputationSpace::Enumerate(
      system, {.max_depth = 24, .num_threads = 0});
  ExpectIdenticalSpaces(sequential, automatic);
}

TEST(SpaceDeterminismTest, ThreadedTruncationAndBudgetMatchSequential) {
  LambdaSystem infinite(
      2,
      [](const Computation& x) {
        return std::vector<Event>{
            Internal(0, "tick" + std::to_string(x.size()))};
      },
      "infinite");
  EXPECT_THROW(ComputationSpace::Enumerate(
                   infinite, {.max_depth = 5, .num_threads = 4}),
               ModelError);
  auto truncated = ComputationSpace::Enumerate(
      infinite,
      {.max_depth = 5, .allow_truncation = true, .num_threads = 4});
  EXPECT_TRUE(truncated.truncated());
  EXPECT_EQ(truncated.size(), 6u);

  RandomSystemOptions options;
  options.seed = 15;
  RandomSystem system(options);
  EXPECT_THROW(
      ComputationSpace::Enumerate(
          system, {.max_depth = 24, .max_classes = 3, .num_threads = 4}),
      ModelError);
}

}  // namespace
}  // namespace hpl
