// The streaming materializer (ComputationSpace::ForEachComputation) against
// the pointwise At(): every streamed computation must equal At(id), for the
// whole id range and for sub-ranges that start mid-level or skip ids, on
// every kind of space — BFS, capped-then-deepened, Ingest-extended (whose
// parents break level order), and out-of-core with the links column
// spilled.  Also pins the kernel's atom-plane contract that rides on it:
// after Deepen + Refresh a whole-space query evaluates the atom predicate
// on the new ids only.
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/random_system.h"
#include "core/space.h"
#include "protocols/token_bus.h"

namespace hpl {
namespace {

// Streams [begin, end) with need(id) and checks each visit against At().
template <typename Need>
void ExpectStreamMatchesAt(const ComputationSpace& space, std::size_t begin,
                           std::size_t end, Need need) {
  std::vector<std::size_t> visited;
  space.ForEachComputation(begin, end, need,
                           [&](std::size_t id, const Computation& x) {
                             visited.push_back(id);
                             ASSERT_TRUE(x == space.At(id))
                                 << "id " << id << " range [" << begin << ", "
                                 << end << ")";
                           });
  std::vector<std::size_t> expected;
  for (std::size_t id = begin; id < end; ++id)
    if (need(id)) expected.push_back(id);
  EXPECT_EQ(visited, expected);
}

// Whole range, every mid-range start on a coarse grid, and sparse need
// patterns (gaps force the walk up to a cached ancestor).
void ExpectStreamMatchesAtEverywhere(const ComputationSpace& space) {
  const std::size_t n = space.size();
  const auto all = [](std::size_t) { return true; };
  ExpectStreamMatchesAt(space, 0, n, all);
  const std::size_t step = n / 17 + 1;
  for (std::size_t begin = 1; begin < n; begin += step)
    ExpectStreamMatchesAt(space, begin, std::min(n, begin + 3 * step), all);
  for (std::size_t stride : {2u, 3u, 7u})
    ExpectStreamMatchesAt(
        space, 0, n, [stride](std::size_t id) { return id % stride == 1; });
  ExpectStreamMatchesAt(space, n, n, all);  // empty range
}

RandomSystem SmallRandom() {
  RandomSystemOptions options;
  options.num_processes = 3;
  options.num_messages = 3;
  options.internal_events = 1;
  options.seed = 11;
  return RandomSystem(options);
}

EnumerationLimits Capped(int max_depth) {
  return {.max_depth = max_depth, .allow_truncation = true, .num_threads = 1};
}

// A run that takes the k-th enabled event, k cycling with `seed`.
std::vector<Event> Walk(const System& system, std::size_t length,
                        std::size_t seed) {
  std::vector<Event> events;
  while (events.size() < length) {
    const auto enabled =
        system.EnabledEvents(Computation::TrustedFromEvents(events));
    if (enabled.empty()) break;
    events.push_back(enabled[(seed + 7 * events.size()) % enabled.size()]);
  }
  return events;
}

TEST(SpaceStreamTest, MatchesAtOnBfsSpace) {
  const RandomSystem system = SmallRandom();
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  ASSERT_GT(space.size(), 100u);
  ExpectStreamMatchesAtEverywhere(space);
}

TEST(SpaceStreamTest, MatchesAtOnCappedSpaceAfterDeepen) {
  protocols::TokenBusSystem bus(4, 6);
  SpaceBuilder builder;
  builder.Build(bus, Capped(5));
  ExpectStreamMatchesAtEverywhere(builder.space());
  ASSERT_GT(builder.Deepen(3), 0u);
  ExpectStreamMatchesAtEverywhere(builder.space());
}

TEST(SpaceStreamTest, MatchesAtOnIngestedSpace) {
  // Several walks minted past a shallow BFS: each walk's classes are
  // appended in walk order, so consecutive ids jump between unrelated
  // chains and the cached row one level up is usually not the parent.
  protocols::TokenBusSystem bus(4, 6);
  SpaceBuilder builder;
  builder.Build(bus, Capped(3));
  const std::size_t bfs = builder.space().size();
  for (std::size_t seed = 0; seed < 6; ++seed)
    builder.Ingest(std::span<const Event>(Walk(bus, 10, seed)));
  const ComputationSpace& space = builder.space();
  ASSERT_GT(space.size(), bfs + 10);
  ExpectStreamMatchesAtEverywhere(space);
  ExpectStreamMatchesAt(space, bfs, space.size(),
                        [](std::size_t) { return true; });
}

TEST(SpaceStreamTest, MatchesAtWithSpilledLinks) {
  // A 1-byte budget spills every sealed segment behind the BFS; the stream
  // faults links segments back in as it reads them.
  const RandomSystem system = SmallRandom();
  EnumerationLimits limits;
  limits.max_depth = 24;
  limits.num_threads = 1;
  limits.segments.segment_shift = 4;
  limits.segments.residency_budget_bytes = 1;
  const auto space = ComputationSpace::Enumerate(system, limits);
  ASSERT_GT(space.SegmentStats().spill_writes, 0u);
  bool links_spilled = false;
  for (const auto& seg : space.SegmentResidency())
    if (seg.tag == "links" && seg.state == internal::SegmentState::kOnDisk)
      links_spilled = true;
  ASSERT_TRUE(links_spilled);
  ExpectStreamMatchesAtEverywhere(space);
  const auto resident = ComputationSpace::Enumerate(system, {.max_depth = 24});
  ASSERT_EQ(space.size(), resident.size());
  space.ForEachComputation(
      0, space.size(), [](std::size_t) { return true; },
      [&](std::size_t id, const Computation& x) {
        ASSERT_TRUE(x == resident.At(id)) << id;
      });
}

TEST(SpaceStreamTest, RejectsARangePastTheEnd) {
  const RandomSystem system = SmallRandom();
  const auto space = ComputationSpace::Enumerate(system, {.max_depth = 24});
  EXPECT_THROW(space.ForEachComputation(
                   0, space.size() + 1, [](std::size_t) { return true; },
                   [](std::size_t, const Computation&) {}),
               std::out_of_range);
}

TEST(SpaceStreamTest, RefreshedQueryEvaluatesAtomsOnlyOnNewIds) {
  // After Refresh every old id's atom verdict is memoized, so the atom
  // plane must materialize the new level only — re-evaluating known ids
  // would make every grown query pay a whole-space pass again.
  // Big enough (hundreds of classes) that the two-thread evaluator
  // shards the atom pass across its pool.
  protocols::TokenBusSystem bus(6, 12);
  const Predicate holds = bus.HoldsToken(1);
  constexpr int kDepth = 20;
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> old_calls{0};
  const Predicate counted("counted_token_at_p1", [&](const Computation& x) {
    calls.fetch_add(1);
    if (x.size() <= static_cast<std::size_t>(kDepth)) old_calls.fetch_add(1);
    return holds.Eval(x);
  });
  // A pointwise root: the evaluator always lowers it to a kernel program,
  // whose kLoadAtomPlane op is the pass under test.
  const FormulaPtr f = Formula::Not(Formula::Atom(counted));

  SpaceBuilder builder;
  builder.Build(bus, Capped(kDepth));
  const std::size_t old_n = builder.space().size();
  ASSERT_GT(old_n, 500u);
  KnowledgeEvaluator eval(builder.space(), {.num_threads = 2});
  const auto before = eval.SatisfyingSet(f);
  EXPECT_EQ(calls.load(), old_n);  // once per id

  const std::size_t minted = builder.Deepen(1);
  ASSERT_GT(minted, 0u);
  eval.Refresh();
  calls = 0;
  old_calls = 0;
  const auto after = eval.SatisfyingSet(f);
  EXPECT_EQ(calls.load(), minted);
  EXPECT_EQ(old_calls.load(), 0u);
  calls = 0;
  eval.SatisfyingSet(f);
  EXPECT_EQ(calls.load(), 0u);

  KnowledgeEvaluator oracle(builder.space(), {.num_threads = 1});
  EXPECT_EQ(after, oracle.SatisfyingSet(f));
}

}  // namespace
}  // namespace hpl
