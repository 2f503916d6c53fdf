// Fused multi-formula sweeps: KnowledgeEvaluator::SatisfyingSets must
// return, for any batch, exactly what per-formula SatisfyingSet calls
// return, and what the independent ReferenceKnowledge oracle says — at any
// thread count, kernels on or off, with shared subformulas, duplicate
// formulas, and warm or cold memo planes.
#include <vector>

#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "protocols/token_bus.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

ComputationSpace EnumerateRandom(std::uint64_t seed) {
  RandomSystemOptions options;
  options.num_processes = 4;
  options.num_messages = 5;
  options.seed = seed;
  RandomSystem system(options);
  return ComputationSpace::Enumerate(system, {});
}

std::vector<FormulaPtr> SampleBatch() {
  const FormulaPtr sent = Formula::Atom(Predicate::Sent(0));
  const FormulaPtr received = Formula::Atom(Predicate::Received(0));
  const ProcessSet pair = ProcessSet::Of(0).Union(ProcessSet::Of(1));
  // Deliberate subformula sharing: `sent` appears under K, E, CK and
  // negation; the fused pass should evaluate it once per class.
  return {
      Formula::Knows(ProcessSet::Of(0), sent),
      Formula::Knows(ProcessSet::Of(1), sent),
      Formula::Everyone(pair, sent),
      Formula::Common(pair, sent),
      Formula::And(Formula::Not(sent), received),
      Formula::Possible(ProcessSet::Of(1), Formula::Not(sent)),
  };
}

TEST(KnowledgeFusedTest, MatchesPerFormulaSweeps) {
  const auto space = EnumerateRandom(17);
  ASSERT_GE(space.size(), 128u)
      << "space too small to exercise the parallel path";
  const auto batch = SampleBatch();
  ReferenceKnowledge reference(space);
  std::vector<std::vector<std::size_t>> expected;
  for (const FormulaPtr& f : batch)
    expected.push_back(reference.SatisfyingSet(f));
  for (const int threads : {1, 4}) {
    for (const bool kernels : {false, true}) {
      KnowledgeOptions options;
      options.num_threads = threads;
      options.compiled_kernels = kernels;
      // Per-formula sweeps: a fresh evaluator per formula, so nothing is
      // shared.
      for (std::size_t k = 0; k < batch.size(); ++k) {
        KnowledgeEvaluator single(space, options);
        EXPECT_EQ(single.SatisfyingSet(batch[k]), expected[k])
            << batch[k]->ToString() << " threads=" << threads
            << " kernels=" << kernels;
      }
      KnowledgeEvaluator fused(space, options);
      EXPECT_EQ(fused.SatisfyingSets(batch), expected)
          << "threads=" << threads << " kernels=" << kernels;
    }
  }
}

TEST(KnowledgeFusedTest, DuplicateAndRepeatedBatches) {
  const auto space = EnumerateRandom(23);
  const FormulaPtr k0 =
      Formula::Knows(ProcessSet::Of(0), Formula::Atom(Predicate::Sent(0)));
  const FormulaPtr k1 =
      Formula::Knows(ProcessSet::Of(1), Formula::Atom(Predicate::Sent(0)));
  for (const int threads : {1, 4}) {
    KnowledgeEvaluator eval(space, {.num_threads = threads});
    const std::vector<FormulaPtr> batch = {k0, k1, k0};  // duplicate root
    const auto first = eval.SatisfyingSets(batch);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first[0], first[2]);
    EXPECT_EQ(first[0], eval.SatisfyingSet(k0));
    // A repeat batch hits the completed planes and must agree with itself.
    EXPECT_EQ(eval.SatisfyingSets(batch), first);
  }
}

TEST(KnowledgeFusedTest, SmallBatchesAndErrors) {
  protocols::TokenBusSystem bus(3, 2);
  const auto space = ComputationSpace::Enumerate(bus, {.max_depth = 6});
  KnowledgeEvaluator eval(space, {.num_threads = 1});
  EXPECT_TRUE(eval.SatisfyingSets({}).empty());
  const FormulaPtr f =
      Formula::Knows(ProcessSet::Of(0), Formula::Atom(bus.HoldsToken(0)));
  const std::vector<FormulaPtr> single = {f};
  const auto sets = eval.SatisfyingSets(single);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0], eval.SatisfyingSet(f));
  const std::vector<FormulaPtr> with_null = {f, nullptr};
  EXPECT_THROW(eval.SatisfyingSets(with_null), ModelError);
}

}  // namespace
}  // namespace hpl
