// Hostile snapshots: every single-byte patch (to 0xff, 0x7f and 0x01) of
// two small token-bus snapshots, with the directory and file checksums
// recomputed so each patch reaches the loader's validators.  Every patched
// file is loaded twice — into a SpaceBuilder and as a bare ComputationSpace
// — and each load must either succeed or be refused with ModelError; a
// file that loads must answer a fixed query battery — K, CK, E-of-Sure and
// group K over the whole space, Holds at every class, and (builder loads)
// Deepen(+2) when its frontier is capped — without crashing.  Both loads
// mint the projection rows from the patched links, so under ASan+UBSan
// (label `core`) this also shows the mint rule never indexes a process the
// id checks did not admit; it is the deterministic form of a single-byte
// mutation fuzzer.
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/knowledge.h"
#include "core/serialization.h"
#include "protocols/token_bus.h"
#include "snapshot_bytes.h"

namespace hpl {
namespace {

namespace sb = snapshot_bytes;

constexpr unsigned char kPatches[] = {0xff, 0x7f, 0x01};

EnumerationLimits SweepLimits() {
  EnumerationLimits limits;
  limits.allow_truncation = true;
  limits.num_threads = 1;
  return limits;
}

std::string CompleteSnapshot(const protocols::TokenBusSystem& bus) {
  EnumerationLimits limits = SweepLimits();
  limits.allow_truncation = false;
  std::ostringstream out;
  SaveSpaceSnapshot(ComputationSpace::Enumerate(bus, limits), out);
  return out.str();
}

// A capped builder snapshot carrying a [G]-table, like
// `serve --max-depth=4 --group=0,1` writes.
std::string CappedSnapshot(const protocols::TokenBusSystem& bus) {
  EnumerationLimits limits = SweepLimits();
  limits.max_depth = 4;
  SpaceBuilder builder;
  builder.Build(bus, limits);
  builder.space().EnsureGroupIndex(ProcessSet{0, 1});
  std::ostringstream out;
  SaveSpaceBuilderSnapshot(builder, out);
  return out.str();
}

std::vector<FormulaPtr> Battery(const protocols::TokenBusSystem& bus) {
  const FormulaPtr t0 = Formula::Atom(bus.HoldsToken(0));
  const FormulaPtr t2 = Formula::Atom(bus.HoldsToken(2));
  return {
      Formula::Knows(ProcessSet{0}, t0),
      Formula::Common(ProcessSet{0, 1}, t0),
      Formula::Everyone(ProcessSet{1, 2}, Formula::Sure(ProcessSet{2}, t2)),
      Formula::Knows(ProcessSet{0, 1}, t0),
  };
}

void Query(KnowledgeEvaluator& eval, const ComputationSpace& space,
           const std::vector<FormulaPtr>& battery) {
  for (const FormulaPtr& f : battery) (void)eval.SatisfyingSet(f);
  for (std::size_t id = 0; id < space.size(); ++id)
    (void)eval.Holds(battery[0], id);
}

// Runs `load_and_query`; returns false when it refused the file with
// ModelError.  Any other exception is a defect the loader let through.
template <typename Fn>
bool Survives(Fn&& load_and_query, const char* how) {
  try {
    load_and_query();
    return true;
  } catch (const ModelError&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << how << " load refused without a named error: "
                  << error.what();
    return false;
  }
}

// Loads `bytes` into a builder and runs the battery, deepening a capped
// frontier.
bool BuilderLoadAndQuery(const protocols::TokenBusSystem& bus,
                         const std::string& bytes) {
  return Survives(
      [&] {
        std::istringstream in(bytes);
        SpaceBuilder builder = LoadSpaceBuilderSnapshot(bus, in, SweepLimits());
        KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
        const std::vector<FormulaPtr> battery = Battery(bus);
        Query(eval, builder.space(), battery);
        if (builder.CanDeepen()) {
          builder.Deepen(2);
          eval.Refresh();
          Query(eval, builder.space(), battery);
        }
      },
      "builder");
}

// Loads `bytes` as a bare space and runs the battery.
bool BareLoadAndQuery(const protocols::TokenBusSystem& bus,
                      const std::string& bytes) {
  return Survives(
      [&] {
        std::istringstream in(bytes);
        const ComputationSpace space = LoadSpaceSnapshot(in);
        KnowledgeEvaluator eval(space, {.num_threads = 1});
        Query(eval, space, Battery(bus));
      },
      "bare");
}

void Sweep(const protocols::TokenBusSystem& bus, const std::string& original,
           const char* what) {
  const sb::Layout layout = sb::Parse(original);
  ASSERT_TRUE(BuilderLoadAndQuery(bus, original)) << what;
  ASSERT_TRUE(BareLoadAndQuery(bus, original)) << what;
  std::size_t patched = 0, loaded = 0, bare_loaded = 0;
  for (std::size_t at = 0; at + 8 < original.size(); ++at) {
    for (const unsigned char value : kPatches) {
      if (static_cast<unsigned char>(original[at]) == value) continue;
      std::string bytes = original;
      bytes[at] = static_cast<char>(value);
      sb::Reseal(bytes, layout);
      ++patched;
      SCOPED_TRACE(std::string(what) + ": byte " + std::to_string(at) +
                   " := " + std::to_string(value));
      if (BuilderLoadAndQuery(bus, bytes)) ++loaded;
      if (BareLoadAndQuery(bus, bytes)) ++bare_loaded;
    }
  }
  // A patch to a value the loader cannot tell from a real one (a hash, a
  // message id, a label byte) loads; the rest are refused.
  EXPECT_GT(loaded, 0u) << what;
  EXPECT_LT(loaded, patched) << what;
  EXPECT_GT(bare_loaded, 0u) << what;
  EXPECT_LT(bare_loaded, patched) << what;
}

TEST(SnapshotSweepTest, CompleteSnapshotSurvivesEverySingleBytePatch) {
  const protocols::TokenBusSystem bus(/*num_processes=*/3, /*passes=*/3);
  Sweep(bus, CompleteSnapshot(bus), "complete");
}

TEST(SnapshotSweepTest, CappedGroupSnapshotSurvivesEverySingleBytePatch) {
  const protocols::TokenBusSystem bus(/*num_processes=*/3, /*passes=*/3);
  Sweep(bus, CappedSnapshot(bus), "capped");
}

}  // namespace
}  // namespace hpl
