// Resumable SpaceBuilder: deepen-on-demand, streaming ingestion, and
// frontier-aware evaluator refresh.
//
// The contract under test is byte-identity: Build(d-1) + Deepen(1) must be
// indistinguishable from a fresh Enumerate(d) — same class ids, canonical
// hashes, projection classes, buckets, successor CSR, group tables, and
// the same snapshot bytes — at any thread count, for canonicalized and
// literal (lockstep) spaces alike.  KnowledgeEvaluator::Refresh() must
// keep verdicts identical to a from-scratch evaluator across every memo
// tier.  Ingest must splice observed events into exactly the classes a
// full enumeration would have minted, and a v2 builder snapshot must
// round-trip with its frontier live; v1 snapshots load sealed.
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/serialization.h"
#include "core/space.h"
#include "protocols/lockstep.h"
#include "protocols/token_bus.h"
#include "reference_knowledge.h"
#include "sim/trace.h"

namespace hpl {
namespace {

std::string SnapshotBytes(const ComputationSpace& space) {
  std::ostringstream out;
  SaveSpaceSnapshot(space, out);
  return out.str();
}

std::string BuilderBytes(const SpaceBuilder& builder) {
  std::ostringstream out;
  SaveSpaceBuilderSnapshot(builder, out);
  return out.str();
}

EnumerationLimits TruncatableLimits(int max_depth, int threads,
                                    bool canonicalize = true) {
  EnumerationLimits limits;
  limits.max_depth = max_depth;
  limits.allow_truncation = true;
  limits.canonicalize = canonicalize;
  limits.num_threads = threads;
  return limits;
}

// The full battery of modalities the evaluator memoizes differently:
// singleton [p]-tier, multi-process [G]-tier, Everyone aggregation rows,
// and the common-knowledge component build.
std::vector<FormulaPtr> TokenBusFormulas(const protocols::TokenBusSystem& bus) {
  const FormulaPtr t0 = Formula::Atom(bus.HoldsToken(0));
  const FormulaPtr t1 = Formula::Atom(bus.HoldsToken(1));
  const ProcessSet p01 = ProcessSet::Of(0).Union(ProcessSet::Of(1));
  return {
      Formula::Knows(ProcessSet::Of(0), t0),
      Formula::Knows(ProcessSet::Of(1), t0),
      Formula::Knows(p01, t1),
      Formula::Sure(p01, t0),
      Formula::Possible(ProcessSet::Of(2), Formula::Not(t0)),
      Formula::Everyone(p01, t0),
      Formula::Common(p01, t0),
      Formula::Knows(ProcessSet::Of(0), Formula::Everyone(p01, t0)),
      Formula::Or(Formula::Knows(ProcessSet::Of(0), t1),
                  Formula::Not(Formula::Sure(p01, t1))),
  };
}

// --- Deepen vs fresh enumeration -------------------------------------------

TEST(SpaceBuilderTest, BuildMatchesEnumerate) {
  protocols::TokenBusSystem bus(3, 3);
  const auto limits = TruncatableLimits(/*max_depth=*/5, /*threads=*/1);
  const auto fresh = ComputationSpace::Enumerate(bus, limits);
  SpaceBuilder builder;
  builder.Build(bus, limits);
  EXPECT_EQ(SnapshotBytes(builder.space()), SnapshotBytes(fresh));
  EXPECT_EQ(builder.built_depth(), fresh.built_depth());
}

TEST(SpaceBuilderTest, DeepenOneLevelIsByteIdenticalAtEveryDepth) {
  for (const int threads : {1, 4}) {
    protocols::TokenBusSystem bus(3, 3);
    for (int target = 2; target <= 7; ++target) {
      const auto fresh = ComputationSpace::Enumerate(
          bus, TruncatableLimits(target, threads));
      SpaceBuilder builder;
      builder.Build(bus, TruncatableLimits(target - 1, threads));
      const std::size_t before = builder.space().size();
      const std::size_t added = builder.Deepen(1);
      EXPECT_EQ(before + added, fresh.size())
          << "target " << target << " threads " << threads;
      EXPECT_EQ(SnapshotBytes(builder.space()), SnapshotBytes(fresh))
          << "target " << target << " threads " << threads;
    }
  }
}

TEST(SpaceBuilderTest, DeepenedBuilderFrontierMatchesFreshBuilder) {
  // Not just the spaces: the retained frontiers must coincide, so the two
  // builders' v2 snapshots (which embed the frontier state) are identical.
  for (const int threads : {1, 4}) {
    protocols::TokenBusSystem bus(3, 3);
    SpaceBuilder fresh;
    fresh.Build(bus, TruncatableLimits(5, threads));
    SpaceBuilder stepped;
    stepped.Build(bus, TruncatableLimits(3, threads));
    stepped.Deepen(1);
    stepped.Deepen(1);
    EXPECT_EQ(BuilderBytes(stepped), BuilderBytes(fresh)) << threads;
  }
}

TEST(SpaceBuilderTest, DeepenMultiStepEqualsOneStep) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder one;
  one.Build(bus, TruncatableLimits(2, /*threads=*/1));
  one.Deepen(4);
  SpaceBuilder many;
  many.Build(bus, TruncatableLimits(2, /*threads=*/1));
  for (int i = 0; i < 4; ++i) many.Deepen(1);
  EXPECT_EQ(BuilderBytes(many), BuilderBytes(one));
  EXPECT_EQ(SnapshotBytes(one.space()),
            SnapshotBytes(ComputationSpace::Enumerate(
                bus, TruncatableLimits(6, /*threads=*/1))));
}

TEST(SpaceBuilderTest, DeepenWorksOnLiteralInterleavingSpaces) {
  // Lockstep is NOT permutation-closed: canonicalize=false keeps literal
  // interleavings, which exercises the splice path Deepen must reproduce.
  for (const int threads : {1, 4}) {
    protocols::LockstepSystem lockstep(/*rounds=*/1);
    const auto fresh = ComputationSpace::Enumerate(
        lockstep, TruncatableLimits(6, threads, /*canonicalize=*/false));
    SpaceBuilder builder;
    builder.Build(lockstep,
                  TruncatableLimits(4, threads, /*canonicalize=*/false));
    builder.Deepen(2);
    EXPECT_EQ(SnapshotBytes(builder.space()), SnapshotBytes(fresh)) << threads;
  }
}

TEST(SpaceBuilderTest, DeepenRefreshesEnsuredGroupIndexesInPlace) {
  // Deepen keeps every ensured [G]-table cached and extends it into the
  // table a fresh full-depth space builds; holders re-read it through a
  // fresh view.
  protocols::TokenBusSystem bus(3, 3);
  const std::vector<ProcessSet> groups = {ProcessSet{0, 1}, ProcessSet{1, 2}};
  for (const int threads : {1, 4}) {
    const auto fresh =
        ComputationSpace::Enumerate(bus, TruncatableLimits(6, threads));
    for (const ProcessSet g : groups) fresh.EnsureGroupIndex(g);
    SpaceBuilder builder;
    builder.Build(bus, TruncatableLimits(4, threads));
    for (const ProcessSet g : groups) builder.space().EnsureGroupIndex(g);
    ASSERT_GT(builder.Deepen(2), 0u);
    for (const ProcessSet g : groups) {
      EXPECT_TRUE(builder.space().HasGroupIndex(g)) << g.ToString();
      EXPECT_EQ(builder.space().PartitionOf(g).NumClasses(),
                fresh.PartitionOf(g).NumClasses())
          << g.ToString();
    }
    // Snapshot bytes cover the group tables (saved in mask order).
    EXPECT_EQ(SnapshotBytes(builder.space()), SnapshotBytes(fresh)) << threads;
  }
}

TEST(SpaceBuilderTest, DeepenOnCompleteSpaceReturnsZero) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(12, /*threads=*/1));
  ASSERT_TRUE(builder.complete());
  const std::size_t size = builder.space().size();
  EXPECT_EQ(builder.Deepen(1), 0u);
  EXPECT_EQ(builder.Deepen(100), 0u);
  EXPECT_EQ(builder.space().size(), size);
  EXPECT_FALSE(builder.CanDeepen());
}

TEST(SpaceBuilderTest, DeepenValidatesItsArguments) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder empty;
  EXPECT_THROW(empty.Deepen(1), ModelError);  // no Build yet
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(3, /*threads=*/1));
  EXPECT_THROW(builder.Deepen(0), ModelError);
  EXPECT_THROW(builder.Deepen(-2), ModelError);
}

TEST(SpaceBuilderTest, DeepenWithoutAllowTruncationThrowsLikeBuild) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(3, /*threads=*/1));
  // Rebind the budget: deepening to 4 leaves extendable classes at the cap
  // and the Build-time limits said allow_truncation=true, so this is fine —
  // but a fresh builder WITHOUT allow_truncation must refuse the same way
  // Enumerate does.
  EnumerationLimits strict;
  strict.max_depth = 3;
  strict.allow_truncation = false;
  SpaceBuilder strict_builder;
  EXPECT_THROW(strict_builder.Build(bus, strict), ModelError);
}

TEST(SpaceBuilderTest, DeepenThatThrowsIsANoOp) {
  // A capped builder reloaded under stricter limits: Deepen mints part of a
  // level, then throws — at the depth cap without allow_truncation (with
  // the store resident or spilling), or mid-level on the class budget.  The builder must come back exactly as
  // it was, frontier included, and still deepen to the fresh space.
  protocols::TokenBusSystem bus(3, 3);
  for (const int threads : {1, 4}) {
    SpaceBuilder capped;
    capped.Build(bus, TruncatableLimits(3, threads));
    const std::string parked = BuilderBytes(capped);
    EnumerationLimits at_cap = TruncatableLimits(3, threads);
    at_cap.allow_truncation = false;
    EnumerationLimits budget = TruncatableLimits(3, threads);
    budget.max_classes = capped.space().size() + 1;
    // The same cap failure with cold segments spilled behind the frontier.
    EnumerationLimits spilled = at_cap;
    spilled.segments.segment_shift = 2;
    spilled.segments.residency_budget_bytes = 256;
    for (const EnumerationLimits& strict : {at_cap, budget, spilled}) {
      std::istringstream in(parked);
      SpaceBuilder builder = LoadSpaceBuilderSnapshot(bus, in, strict);
      KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
      const FormulaPtr f =
          Formula::Knows(ProcessSet{0}, Formula::Atom(bus.HoldsToken(0)));
      const auto verdicts = eval.SatisfyingSet(f);
      EXPECT_THROW(builder.Deepen(1), ModelError);
      EXPECT_EQ(BuilderBytes(builder), parked) << threads;
      EXPECT_TRUE(builder.CanDeepen());
      EXPECT_EQ(eval.SatisfyingSet(f), verdicts);
      // The BFS drains before a 10-level cap, so nothing throws.
      if (strict.max_classes != budget.max_classes) {
        builder.Deepen(10);
        EXPECT_TRUE(builder.complete());
        EXPECT_EQ(SnapshotBytes(builder.space()),
                  SnapshotBytes(ComputationSpace::Enumerate(
                      bus, TruncatableLimits(12, threads))))
            << threads;
      }
    }
  }
}

// --- Evaluator Refresh ------------------------------------------------------

TEST(SpaceBuilderTest, RefreshMatchesFreshEvaluatorAcrossMemoTiers) {
  protocols::TokenBusSystem bus(3, 3);
  const auto formulas = TokenBusFormulas(bus);
  const auto fresh_space =
      ComputationSpace::Enumerate(bus, TruncatableLimits(6, /*threads=*/1));
  ReferenceKnowledge oracle(fresh_space);

  for (const bool kernels : {true, false}) {
    for (const int threads : {1, 4}) {
      SpaceBuilder builder;
      builder.Build(bus, TruncatableLimits(5, threads));
      KnowledgeEvaluator eval(
          builder.space(),
          {.num_threads = threads, .compiled_kernels = kernels});
      // Warm every memo tier on the shallow space first.
      for (const FormulaPtr& f : formulas) eval.SatisfyingSet(f);
      builder.Deepen(1);
      eval.Refresh();
      for (std::size_t k = 0; k < formulas.size(); ++k)
        EXPECT_EQ(eval.SatisfyingSet(formulas[k]),
                  oracle.SatisfyingSet(formulas[k]))
            << "formula " << k << " kernels " << kernels << " threads "
            << threads;
    }
  }
}

TEST(SpaceBuilderTest, RefreshHandlesEmptyGroupModalities) {
  // Modalities over the empty group relate every class and own no tier
  // rows, so any growth dirties them everywhere; Refresh must not look for
  // a member process.
  protocols::TokenBusSystem bus(3, 3);
  const FormulaPtr atom = Formula::Atom(bus.HoldsToken(0));
  const std::vector<FormulaPtr> formulas = {
      Formula::Knows(ProcessSet(), Formula::Or(atom, Formula::Not(atom))),
      Formula::Possible(ProcessSet(), atom),
      Formula::Sure(ProcessSet(), atom)};
  for (const bool kernels : {true, false}) {
    SpaceBuilder builder;
    builder.Build(bus, TruncatableLimits(5, /*threads=*/1));
    KnowledgeEvaluator eval(builder.space(),
                            {.num_threads = 1, .compiled_kernels = kernels});
    for (const FormulaPtr& f : formulas) eval.SatisfyingSet(f);
    builder.Deepen(1);
    eval.Refresh();
    ReferenceKnowledge oracle(builder.space());
    for (const FormulaPtr& f : formulas)
      EXPECT_EQ(eval.SatisfyingSet(f), oracle.SatisfyingSet(f))
          << f->ToString() << " kernels " << kernels;
  }
}

TEST(SpaceBuilderTest, RefreshIsIdempotentWhenNothingChanged) {
  protocols::TokenBusSystem bus(3, 3);
  const auto formulas = TokenBusFormulas(bus);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(12, /*threads=*/1));
  ASSERT_TRUE(builder.complete());
  KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
  std::vector<std::vector<std::size_t>> before;
  for (const FormulaPtr& f : formulas) before.push_back(eval.SatisfyingSet(f));
  builder.Deepen(3);  // no-op on a complete space
  eval.Refresh();
  eval.Refresh();
  for (std::size_t k = 0; k < formulas.size(); ++k)
    EXPECT_EQ(eval.SatisfyingSet(formulas[k]), before[k]) << k;
}

TEST(SpaceBuilderTest, RefreshAfterRepeatedDeepenStaysExact) {
  protocols::TokenBusSystem bus(3, 3);
  const auto formulas = TokenBusFormulas(bus);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(2, /*threads=*/1));
  KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
  for (const FormulaPtr& f : formulas) eval.SatisfyingSet(f);
  for (int step = 0; step < 5; ++step) {
    builder.Deepen(1);
    eval.Refresh();
    const auto fresh_space = ComputationSpace::Enumerate(
        bus, TruncatableLimits(3 + step, /*threads=*/1));
    KnowledgeEvaluator oracle(fresh_space, {.num_threads = 1});
    for (std::size_t k = 0; k < formulas.size(); ++k)
      EXPECT_EQ(eval.SatisfyingSet(formulas[k]),
                oracle.SatisfyingSet(formulas[k]))
          << "step " << step << " formula " << k;
  }
}

// --- Ingest -----------------------------------------------------------------

// The system's lexicographically-first maximal run, as an event list.
std::vector<Event> GreedyWalk(const System& system, std::size_t max_events) {
  std::vector<Event> events;
  while (events.size() < max_events) {
    const Computation x = Computation::TrustedFromEvents(events);
    const auto enabled = system.EnabledEvents(x);
    if (enabled.empty()) break;
    events.push_back(enabled.front());
  }
  return events;
}

TEST(SpaceBuilderTest, IngestSplicesObservedRunIntoTheSpace) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(2, /*threads=*/1));
  const std::size_t before = builder.space().size();
  const auto events = GreedyWalk(bus, 6);
  ASSERT_EQ(events.size(), 6u);

  const std::size_t minted = builder.Ingest(std::span<const Event>(events));
  EXPECT_GT(minted, 0u);
  EXPECT_EQ(builder.space().size(), before + minted);
  // Every prefix of the observed run now has a [D]-class, and its stored
  // canonical form matches the run's.
  for (std::size_t n = 0; n <= events.size(); ++n) {
    const Computation prefix = Computation::TrustedFromEvents(
        std::vector<Event>(events.begin(), events.begin() + n));
    const auto id = builder.space().IndexOf(prefix);
    ASSERT_TRUE(id.has_value()) << n;
    EXPECT_EQ(builder.space().LengthOf(*id), n);
  }
  // Ingested classes agree with what a full enumeration mints: each prefix
  // resolves to a class whose canonical form is identical in both spaces.
  const auto full =
      ComputationSpace::Enumerate(bus, TruncatableLimits(8, /*threads=*/1));
  for (std::size_t n = 0; n <= events.size(); ++n) {
    const Computation prefix = Computation::TrustedFromEvents(
        std::vector<Event>(events.begin(), events.begin() + n));
    const auto id = builder.space().IndexOf(prefix);
    const auto full_id = full.IndexOf(prefix);
    ASSERT_TRUE(full_id.has_value()) << n;
    EXPECT_TRUE(builder.space().At(*id) == full.At(*full_id)) << n;
  }

  // Re-ingesting the same run is a dedup no-op.
  EXPECT_EQ(builder.Ingest(std::span<const Event>(events)), 0u);
  EXPECT_EQ(builder.space().size(), before + minted);
}

TEST(SpaceBuilderTest, IngestTraceOverloadMatchesEventSpan) {
  protocols::TokenBusSystem bus(3, 3);
  const auto events = GreedyWalk(bus, 6);
  sim::Trace trace;
  for (std::size_t i = 0; i < events.size(); ++i)
    trace.Record(events[i], static_cast<std::int64_t>(i),
                 sim::MessageClass::kUnderlying);

  SpaceBuilder by_span;
  by_span.Build(bus, TruncatableLimits(2, /*threads=*/1));
  const std::size_t minted_span =
      by_span.Ingest(std::span<const Event>(events));
  SpaceBuilder by_trace;
  by_trace.Build(bus, TruncatableLimits(2, /*threads=*/1));
  EXPECT_EQ(by_trace.Ingest(trace), minted_span);
  EXPECT_EQ(SnapshotBytes(by_trace.space()), SnapshotBytes(by_span.space()));

  // The prefix overload ingests only the first n entries.
  SpaceBuilder by_prefix;
  by_prefix.Build(bus, TruncatableLimits(2, /*threads=*/1));
  by_prefix.Ingest(trace, 3);
  const Computation third = trace.ToComputationPrefix(3);
  EXPECT_TRUE(by_prefix.space().IndexOf(third).has_value());
  const Computation full_run = trace.ToComputation();
  EXPECT_FALSE(by_prefix.space().IndexOf(full_run).has_value());
}

TEST(SpaceBuilderTest, IngestRejectsInvalidExtensions) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(2, /*threads=*/1));
  const std::size_t before = builder.space().size();
  // A receive with no matching send is not a computation of any system.
  const std::vector<Event> bogus = {Receive(1, 0, 99, "nope")};
  EXPECT_THROW(builder.Ingest(std::span<const Event>(bogus)), ModelError);
  EXPECT_EQ(builder.space().size(), before);
}

TEST(SpaceBuilderTest, IngestThatThrowsKeepsItsFinishedPrefixes) {
  // Event #6 is illegal; the six prefixes before it were minted.  They stay,
  // finalized and resealed: the space is what ingesting the legal prefix
  // alone leaves, and it answers queries over all its classes.
  protocols::TokenBusSystem bus(3, 3);
  const auto run = GreedyWalk(bus, 6);
  ASSERT_EQ(run.size(), 6u);
  SpaceBuilder clean;
  clean.Build(bus, TruncatableLimits(2, /*threads=*/1));
  clean.Ingest(std::span<const Event>(run));

  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(2, /*threads=*/1));
  ASSERT_EQ(builder.space().size(), 3u);
  std::vector<Event> bad = run;
  bad.push_back(Receive(1, 0, 99, "nope"));
  EXPECT_THROW(builder.Ingest(std::span<const Event>(bad)), ModelError);
  EXPECT_EQ(builder.space().size(), 7u);
  EXPECT_EQ(BuilderBytes(builder), BuilderBytes(clean));
  const FormulaPtr f =
      Formula::Knows(ProcessSet{0}, Formula::Atom(bus.HoldsToken(0)));
  KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
  EXPECT_EQ(eval.SatisfyingSet(f),
            ReferenceKnowledge(clean.space()).SatisfyingSet(f));
  EXPECT_EQ(builder.Ingest(std::span<const Event>(run)), 0u);
}

TEST(SpaceBuilderTest, DeepenAfterMintingIngestThrows) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(2, /*threads=*/1));
  const auto events = GreedyWalk(bus, 5);
  ASSERT_GT(builder.Ingest(std::span<const Event>(events)), 0u);
  EXPECT_FALSE(builder.CanDeepen());
  EXPECT_THROW(builder.Deepen(1), ModelError);
  // Further ingestion still works.
  EXPECT_EQ(builder.Ingest(std::span<const Event>(events)), 0u);
}

TEST(SpaceBuilderTest, RefreshAfterIngestMatchesFreshEvaluator) {
  protocols::TokenBusSystem bus(3, 3);
  const auto formulas = TokenBusFormulas(bus);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(3, /*threads=*/1));
  KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
  for (const FormulaPtr& f : formulas) eval.SatisfyingSet(f);

  builder.Ingest(std::span<const Event>(GreedyWalk(bus, 6)));
  eval.Refresh();
  KnowledgeEvaluator oracle(builder.space(), {.num_threads = 1});
  for (std::size_t k = 0; k < formulas.size(); ++k)
    EXPECT_EQ(eval.SatisfyingSet(formulas[k]),
              oracle.SatisfyingSet(formulas[k]))
        << k;
}

// --- Snapshot round trips ---------------------------------------------------

TEST(SpaceBuilderTest, BuilderSnapshotRoundTripsAndDeepens) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder original;
  original.Build(bus, TruncatableLimits(4, /*threads=*/1));
  const std::string bytes = BuilderBytes(original);

  std::istringstream in(bytes);
  EnumerationLimits limits;
  limits.allow_truncation = true;
  SpaceBuilder loaded = LoadSpaceBuilderSnapshot(bus, in, limits);
  EXPECT_TRUE(loaded.CanDeepen());
  EXPECT_EQ(loaded.built_depth(), original.built_depth());
  // Saving the loaded builder reproduces the file bit for bit.
  EXPECT_EQ(BuilderBytes(loaded), bytes);

  // Deepening the loaded builder == deepening the original == fresh.
  original.Deepen(2);
  loaded.Deepen(2);
  EXPECT_EQ(BuilderBytes(loaded), BuilderBytes(original));
  EXPECT_EQ(SnapshotBytes(loaded.space()),
            SnapshotBytes(ComputationSpace::Enumerate(
                bus, TruncatableLimits(6, /*threads=*/1))));
}

TEST(SpaceBuilderTest, TruncatedSpaceSnapshotLoadsSealed) {
  // A bare truncated space lost its frontier with its builder, so its
  // snapshot records state 0 (sealed) and loads query-only.
  protocols::TokenBusSystem bus(3, 3);
  const auto space =
      ComputationSpace::Enumerate(bus, TruncatableLimits(4, /*threads=*/1));
  const std::string bytes = SnapshotBytes(space);
  std::istringstream header(bytes);
  EXPECT_EQ(ReadSpaceSnapshotInfo(header).frontier, 0u);

  std::istringstream in(bytes);
  SpaceBuilder loaded = LoadSpaceBuilderSnapshot(bus, in);
  EXPECT_TRUE(loaded.sealed());
  EXPECT_FALSE(loaded.CanDeepen());
  EXPECT_THROW(loaded.Deepen(1), ModelError);
  // The space itself is intact and queryable.
  EXPECT_EQ(loaded.space().size(), space.size());
  EXPECT_EQ(SnapshotBytes(loaded.space()), bytes);
}

TEST(SpaceBuilderTest, PreV3SnapshotsAreRejected) {
  // Versions 1 and 2 predate the segment directory; every reader refuses
  // them with an error that names the version and says how to recover.
  protocols::TokenBusSystem bus(3, 3);
  const std::string v3 = SnapshotBytes(
      ComputationSpace::Enumerate(bus, TruncatableLimits(4, /*threads=*/1)));
  for (const char version : {1, 2}) {
    std::string bytes = v3;
    bytes[8] = version;  // the u32 after the 8-byte magic, little-endian
    const std::string named = "snapshot version " + std::to_string(version);
    const auto expect_rejected = [&](const auto& read) {
      std::istringstream in(bytes);
      try {
        read(in);
        ADD_FAILURE() << named << " loaded";
      } catch (const ModelError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(named), std::string::npos) << what;
        EXPECT_NE(what.find("re-save"), std::string::npos) << what;
      }
    };
    expect_rejected([](std::istream& in) { (void)LoadSpaceSnapshot(in); });
    expect_rejected(
        [&](std::istream& in) { (void)LoadSpaceBuilderSnapshot(bus, in); });
    expect_rejected([](std::istream& in) { (void)ReadSpaceSnapshotInfo(in); });
  }
}

TEST(SpaceBuilderTest, LoadBuilderRejectsTheWrongSystem) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(4, /*threads=*/1));
  const std::string bytes = BuilderBytes(builder);

  protocols::TokenBusSystem other(4, 3);
  std::istringstream in(bytes);
  EXPECT_THROW(LoadSpaceBuilderSnapshot(other, in), ModelError);
}

TEST(SpaceBuilderTest, TakeSealsTheBuilder) {
  protocols::TokenBusSystem bus(3, 3);
  SpaceBuilder builder;
  builder.Build(bus, TruncatableLimits(4, /*threads=*/1));
  const std::size_t size = builder.space().size();
  ComputationSpace space = std::move(builder).Take();
  EXPECT_EQ(space.size(), size);
  EXPECT_FALSE(builder.has_space());
  EXPECT_THROW(builder.Deepen(1), ModelError);
}

TEST(SpaceBuilderTest, EnumerateIsThinWrapperOverBuilder) {
  protocols::TokenBusSystem bus(3, 3);
  const auto limits = TruncatableLimits(5, /*threads=*/4);
  SpaceBuilder builder;
  builder.Build(bus, limits);
  const auto via_enumerate = ComputationSpace::Enumerate(bus, limits);
  EXPECT_EQ(SnapshotBytes(std::move(builder).Take()),
            SnapshotBytes(via_enumerate));
}

}  // namespace
}  // namespace hpl
