// Crash faults in the formal model: CrashFaultSystem enumeration semantics,
// per-class failure patterns, and the dynamic "correct processes" group.
//
// The differential contract mirrors the fault tentpole's acceptance
// criterion: enumeration with failure patterns — and every knowledge verdict
// over it, including the per-pattern [G]-queries of CommonAmongCorrect —
// must be byte-identical across thread counts and engines, and match the
// definitional ReferenceKnowledge oracle.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/faults.h"
#include "core/knowledge.h"
#include "core/serialization.h"
#include "core/space.h"
#include "core/system.h"
#include "reference_knowledge.h"

namespace hpl {
namespace {

std::string SnapshotBytes(const ComputationSpace& space) {
  std::ostringstream out;
  SaveSpaceSnapshot(space, out);
  return out.str();
}

EnumerationLimits Limits(int threads) {
  EnumerationLimits limits;
  limits.max_depth = 16;
  limits.num_threads = threads;
  return limits;
}

// p0 picks a value (propose0 xor propose1) and broadcasts it; p1 and p2
// learn it by receiving.  The message label carries the value, so a
// receive distinguishes the two branches.  Small, finite, and every layer
// of it is interesting under crashes: a crash before the choice erases the
// value, a crash between the sends strands one receiver.
LambdaSystem BroadcastChoice() {
  return LambdaSystem(
      3,
      [](const Computation& x) {
        int value = -1;
        bool sent[3] = {false, false, false};
        bool got[3] = {false, false, false};
        for (const Event& e : x.events()) {
          if (e.IsInternal() && e.label == "propose0") value = 0;
          if (e.IsInternal() && e.label == "propose1") value = 1;
          if (e.IsSend()) sent[e.peer] = true;
          if (e.IsReceive()) got[e.process] = true;
        }
        std::vector<Event> enabled;
        if (value < 0) {
          enabled.push_back(Internal(0, "propose0"));
          enabled.push_back(Internal(0, "propose1"));
          return enabled;
        }
        const std::string label = value == 0 ? "v0" : "v1";
        for (ProcessId p = 1; p <= 2; ++p) {
          if (!sent[p])
            enabled.push_back(Send(0, p, p, label));
          else if (!got[p])
            enabled.push_back(Receive(p, 0, p, label));
        }
        return enabled;
      },
      "broadcast-choice");
}

TEST(FaultsTest, CrashEventHelpers) {
  const Event crash = CrashEvent(1);
  EXPECT_TRUE(crash.IsInternal());
  EXPECT_EQ(crash.process, 1);
  EXPECT_TRUE(IsCrashEvent(crash));
  EXPECT_FALSE(IsRecoverEvent(crash));
  EXPECT_TRUE(IsFaultMarker(crash));
  EXPECT_FALSE(IsCrashEvent(Internal(1, "flip")));
  EXPECT_TRUE(IsRecoverEvent(Internal(1, kRecoverLabel)));

  const Computation x = Computation::TrustedFromEvents(
      {Internal(0, "a"), CrashEvent(1), Internal(2, "b"), CrashEvent(2),
       Internal(2, kRecoverLabel)});
  // p1 is down; p2 crashed but recovered, so it counts as correct again.
  EXPECT_EQ(CrashedIn(x), ProcessSet::Of(1));
  EXPECT_EQ(CorrectIn(x, 3), ProcessSet::Of(0).Union(ProcessSet::Of(2)));
  EXPECT_EQ(CrashedIn(Computation()), ProcessSet());
}

TEST(FaultsTest, CrashSilencesAProcessWithinTheFailureBudget) {
  const LambdaSystem base = BroadcastChoice();
  const CrashFaultSystem faulty(base, {.max_crashes = 1, .may_crash = {}});
  EXPECT_EQ(faulty.NumProcesses(), 3);
  EXPECT_EQ(faulty.Name(), "broadcast-choice+crash(f=1)");
  const auto space = ComputationSpace::Enumerate(faulty, Limits(1));

  // A crash is enabled at the root for every process.
  {
    std::set<std::string> crash_targets;
    for (const auto& succ : space.SuccessorsOf(0))
      if (IsCrashEvent(succ.event))
        crash_targets.insert(std::to_string(succ.event.process));
    EXPECT_EQ(crash_targets, (std::set<std::string>{"0", "1", "2"}));
  }

  // After p0 crashes at the root, nothing at all can happen: p0 is silent,
  // p1/p2 had no enabled events, and the f=1 budget is spent.
  {
    const auto id = space.RequireIndex(
        Computation::TrustedFromEvents({CrashEvent(0)}));
    EXPECT_TRUE(space.SuccessorsOf(id).empty());
  }

  // A message sent before the crash stays deliverable; only new activity of
  // the crashed process (and further crashes) is cut off.
  {
    const auto id = space.RequireIndex(Computation::TrustedFromEvents(
        {Internal(0, "propose0"), Send(0, 1, 1, "v0"), CrashEvent(0)}));
    std::vector<Event> events;
    for (const auto& succ : space.SuccessorsOf(id)) events.push_back(succ.event);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], Receive(1, 0, 1, "v0"));
  }

  // f=0 adds nothing: the wrapped space has exactly the base's classes.
  const auto base_space = ComputationSpace::Enumerate(base, Limits(1));
  const CrashFaultSystem no_faults(base, {.max_crashes = 0, .may_crash = {}});
  EXPECT_EQ(ComputationSpace::Enumerate(no_faults, Limits(1)).size(),
            base_space.size());
  // f=1 strictly grows it; f=2 grows it further.
  const auto two = ComputationSpace::Enumerate(
      CrashFaultSystem(base, {.max_crashes = 2, .may_crash = {}}), Limits(1));
  EXPECT_GT(space.size(), base_space.size());
  EXPECT_GT(two.size(), space.size());
}

TEST(FaultsTest, MayCrashRestrictsTheCandidates) {
  const LambdaSystem base = BroadcastChoice();
  const CrashFaultSystem faulty(
      base, {.max_crashes = 2, .may_crash = ProcessSet::Of(2)});
  const auto space = ComputationSpace::Enumerate(faulty, Limits(1));
  for (std::size_t id = 0; id < space.size(); ++id)
    for (const auto& succ : space.SuccessorsOf(id))
      if (IsCrashEvent(succ.event)) {
        EXPECT_EQ(succ.event.process, 2);
      }
  // Only two patterns exist: nobody crashed, and {p2} crashed.
  const FailurePatternIndex index(space);
  EXPECT_EQ(index.patterns(),
            (std::vector<std::uint64_t>{0, ProcessSet::Of(2).bits()}));
}

TEST(FaultsTest, OwningConstructorAndValidation) {
  auto base = std::make_unique<LambdaSystem>(BroadcastChoice());
  const CrashFaultSystem owning(std::move(base), {.max_crashes = 1, .may_crash = {}});
  EXPECT_EQ(owning.NumProcesses(), 3);
  // Empty may_crash defaults to every process.
  EXPECT_EQ(owning.options().may_crash, ProcessSet::All(3));
  const LambdaSystem borrowed = BroadcastChoice();
  EXPECT_THROW(CrashFaultSystem(borrowed, {.max_crashes = -1, .may_crash = {}}), ModelError);
  EXPECT_THROW(
      CrashFaultSystem(std::unique_ptr<const System>(), {.max_crashes = 1, .may_crash = {}}),
      ModelError);
}

TEST(FaultsTest, FailurePatternIndexMatchesPerClassRecomputation) {
  const LambdaSystem base = BroadcastChoice();
  const CrashFaultSystem faulty(base, {.max_crashes = 2, .may_crash = {}});
  const auto space = ComputationSpace::Enumerate(faulty, Limits(1));
  const FailurePatternIndex index(space);
  ASSERT_EQ(index.size(), space.size());
  EXPECT_EQ(index.AllProcesses(), ProcessSet::All(3));

  std::set<std::uint64_t> expected_patterns;
  for (std::size_t id = 0; id < space.size(); ++id) {
    const ProcessSet crashed = CrashedIn(space.At(id));
    EXPECT_EQ(index.CrashedAt(id), crashed) << id;
    EXPECT_EQ(index.CorrectAt(id), crashed.ComplementIn(ProcessSet::All(3)))
        << id;
    expected_patterns.insert(crashed.bits());
  }
  EXPECT_EQ(index.patterns(),
            std::vector<std::uint64_t>(expected_patterns.begin(),
                                       expected_patterns.end()));
  // The root carries the empty pattern, and patterns() leads with it.
  EXPECT_EQ(index.CrashedAt(0), ProcessSet());
  ASSERT_FALSE(index.patterns().empty());
  EXPECT_EQ(index.patterns().front(), 0u);
}

TEST(FaultsTest, CorrectGroupQueriesMatchBruteForcePerClassEvaluation) {
  const LambdaSystem base = BroadcastChoice();
  const CrashFaultSystem faulty(base, {.max_crashes = 2, .may_crash = {}});
  const auto space = ComputationSpace::Enumerate(faulty, Limits(1));
  const FailurePatternIndex index(space);
  KnowledgeEvaluator eval(space, {.num_threads = 1});

  const FormulaPtr value0 =
      Formula::Atom(Predicate::DidInternal(0, "propose0"));
  const auto ck = CommonAmongCorrect(eval, index, value0);
  const auto ek = EveryoneCorrectKnows(eval, index, value0);
  ASSERT_EQ(ck.size(), space.size());
  ASSERT_EQ(ek.size(), space.size());

  for (std::size_t id = 0; id < space.size(); ++id) {
    const ProcessSet correct = index.CorrectAt(id);
    if (correct.IsEmpty()) {
      // All-crashed classes get verdict false by convention.
      EXPECT_EQ(ck[id], 0) << id;
      EXPECT_EQ(ek[id], 0) << id;
      continue;
    }
    EXPECT_EQ(ck[id] != 0, eval.Holds(Formula::Common(correct, value0), id))
        << id;
    EXPECT_EQ(ek[id] != 0, eval.Holds(Formula::Everyone(correct, value0), id))
        << id;
  }
  // Non-vacuity: the per-pattern resolution must produce both verdicts.
  EXPECT_NE(std::count(ek.begin(), ek.end(), 1), 0);
  EXPECT_NE(std::count(ek.begin(), ek.end(), 0), 0);
}

TEST(FaultsTest, FaultyEnumerationIsByteIdenticalAcrossThreadsAndMemoTiers) {
  const LambdaSystem base = BroadcastChoice();
  const CrashFaultSystem faulty(base, {.max_crashes = 2, .may_crash = {}});

  // Space bytes: every thread count mints the same classes, ids, CSR
  // columns, and canonical index.
  const auto reference = ComputationSpace::Enumerate(faulty, Limits(1));
  const std::string reference_bytes = SnapshotBytes(reference);
  for (const int threads : {2, 4}) {
    const auto space = ComputationSpace::Enumerate(faulty, Limits(threads));
    EXPECT_EQ(SnapshotBytes(space), reference_bytes) << threads;
  }

  // Verdict bytes: the per-pattern [G]-queries of the correct-process
  // machinery match the definitional oracle — CK / E over each class's
  // correct group, false where every process crashed — at every
  // (threads, kernels) combination.
  const FailurePatternIndex index(reference);
  const FormulaPtr value0 =
      Formula::Atom(Predicate::DidInternal(0, "propose0"));
  const FormulaPtr mixed = Formula::Implies(
      Formula::Knows(1, value0),
      Formula::Everyone(ProcessSet::Of(1).Union(ProcessSet::Of(2)), value0));

  ReferenceKnowledge oracle(reference);
  std::vector<std::uint8_t> ck_ref(reference.size()), ek_ref(reference.size());
  std::map<std::uint64_t, std::pair<FormulaPtr, FormulaPtr>> per_pattern;
  for (std::size_t id = 0; id < reference.size(); ++id) {
    const ProcessSet correct = index.CorrectAt(id);
    if (correct.IsEmpty()) continue;
    auto [it, fresh] = per_pattern.try_emplace(correct.bits());
    if (fresh)
      it->second = {Formula::Common(correct, value0),
                    Formula::Everyone(correct, value0)};
    ck_ref[id] = oracle.Holds(it->second.first, id) ? 1 : 0;
    ek_ref[id] = oracle.Holds(it->second.second, id) ? 1 : 0;
  }
  const std::vector<std::size_t> sat_ref = oracle.SatisfyingSet(mixed);

  for (const int threads : {1, 4}) {
    for (const bool kernels : {false, true}) {
      KnowledgeEvaluator eval(
          reference, {.num_threads = threads, .compiled_kernels = kernels});
      const std::string config = "threads=" + std::to_string(threads) +
                                 " kernels=" + std::to_string(kernels);
      EXPECT_EQ(CommonAmongCorrect(eval, index, value0), ck_ref) << config;
      EXPECT_EQ(EveryoneCorrectKnows(eval, index, value0), ek_ref) << config;
      EXPECT_EQ(eval.SatisfyingSet(mixed), sat_ref) << config;
    }
  }
}

}  // namespace
}  // namespace hpl
