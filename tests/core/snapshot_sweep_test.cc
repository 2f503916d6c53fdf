// Hostile snapshots: every single-byte patch (to 0xff, 0x7f and 0x01) of
// two small token-bus snapshots, with the directory and file checksums
// recomputed so each patch reaches the loader's validators.  Every patched
// file must either load or be refused with ModelError; a file that loads
// must answer a fixed query battery — K, CK, E-of-Sure and group K over the
// whole space, Holds at every class, and Deepen(+2) when its frontier is
// capped — without crashing.  Run under ASan+UBSan (label `core`) this is
// the deterministic form of a single-byte mutation fuzzer.
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

// Loads `bytes` and runs the battery; returns false when the load (or a
// query) refused the file with ModelError.  Any other exception is a
// defect the loader let through.
bool LoadAndQuery(const protocols::TokenBusSystem& bus,
                  const std::string& bytes) {
  try {
    std::istringstream in(bytes);
    SpaceBuilder builder = LoadSpaceBuilderSnapshot(bus, in, SweepLimits());
    KnowledgeEvaluator eval(builder.space(), {.num_threads = 1});
    const FormulaPtr t0 = Formula::Atom(bus.HoldsToken(0));
    const FormulaPtr t2 = Formula::Atom(bus.HoldsToken(2));
    const std::vector<FormulaPtr> battery = {
        Formula::Knows(ProcessSet{0}, t0),
        Formula::Common(ProcessSet{0, 1}, t0),
        Formula::Everyone(ProcessSet{1, 2}, Formula::Sure(ProcessSet{2}, t2)),
        Formula::Knows(ProcessSet{0, 1}, t0),
    };
    for (const FormulaPtr& f : battery) (void)eval.SatisfyingSet(f);
    for (std::size_t id = 0; id < builder.space().size(); ++id)
      (void)eval.Holds(battery[0], id);
    if (builder.CanDeepen()) {
      builder.Deepen(2);
      eval.Refresh();
      for (const FormulaPtr& f : battery) (void)eval.SatisfyingSet(f);
    }
    return true;
  } catch (const ModelError&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "refused without a named error: " << error.what();
    return false;
  }
}

void Sweep(const protocols::TokenBusSystem& bus, const std::string& original,
           const char* what) {
  const sb::Layout layout = sb::Parse(original);
  ASSERT_TRUE(LoadAndQuery(bus, original)) << what;
  std::size_t patched = 0, loaded = 0;
  for (std::size_t at = 0; at + 8 < original.size(); ++at) {
    for (const unsigned char value : kPatches) {
      if (static_cast<unsigned char>(original[at]) == value) continue;
      std::string bytes = original;
      bytes[at] = static_cast<char>(value);
      sb::Reseal(bytes, layout);
      ++patched;
      SCOPED_TRACE(std::string(what) + ": byte " + std::to_string(at) +
                   " := " + std::to_string(value));
      if (LoadAndQuery(bus, bytes)) ++loaded;
    }
  }
  // A patch to a value the loader cannot tell from a real one (a hash, a
  // message id, a label byte) loads; the rest are refused.
  EXPECT_GT(loaded, 0u) << what;
  EXPECT_LT(loaded, patched) << what;
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
