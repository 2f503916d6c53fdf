// Experiment E17 (extension) — Chandy-Lamport snapshots: "a process
// determines facts about the overall system computation" operationally.
// Every recorded cut must be consistent (left-closed under happened-
// before), overhead is exactly one marker per channel, and the recorded
// global total is well-defined.  Exits 1 on an incomplete or inconsistent
// cut or a marker count other than n(n-1), after writing the JSON record.
#include <cstdio>

#include "bench/reporter.h"
#include "bench/table.h"
#include "protocols/snapshot.h"

using namespace hpl;
using protocols::RunSnapshotScenario;
using protocols::SnapshotScenario;

int main(int argc, char** argv) {
  auto json_path = bench::ParseBenchArgs(argc, argv).json_path;
  bench::JsonReporter reporter("snapshot");
  std::printf("E17: Chandy-Lamport snapshot consistency\n\n");

  bench::Table table({"n", "snapshot at", "seeds", "consistent cuts",
                      "markers (=n(n-1))", "avg in-flight recorded"});
  bool ok = true;

  for (int n : {3, 4, 6, 8}) {
    for (hpl::sim::Time at : {5, 25, 80}) {
      int consistent = 0;
      const int kSeeds = 8;
      double in_flight = 0;
      std::size_t markers = 0;
      bench::WallTimer cell_timer;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SnapshotScenario scenario;
        scenario.num_processes = n;
        scenario.messages_per_process = 6;
        scenario.snapshot_at = at;
        scenario.network.delay_jitter = 14;
        scenario.seed = seed * 31 + n;
        const auto result = RunSnapshotScenario(scenario);
        if (result.completed && result.cut_consistent) ++consistent;
        in_flight += static_cast<double>(result.recorded_in_flight);
        markers = result.marker_messages;
        ok = ok && result.completed && result.cut_consistent &&
             markers == static_cast<std::size_t>(n * (n - 1));
      }
      table.AddRow({std::to_string(n), std::to_string(at),
                    std::to_string(kSeeds),
                    std::to_string(consistent) + "/" + std::to_string(kSeeds),
                    std::to_string(markers),
                    bench::Fmt(in_flight / kSeeds, 1)});
      bench::JsonResult result;
      result.name = "snapshot/n=" + std::to_string(n) +
                    "/at=" + std::to_string(at);
      result.params = {{"processes", static_cast<double>(n)},
                       {"snapshot_at", static_cast<double>(at)},
                       {"seeds", static_cast<double>(kSeeds)},
                       {"consistent", static_cast<double>(consistent)}};
      result.wall_ns = cell_timer.ElapsedNs();
      reporter.Add(std::move(result));
    }
  }
  table.Print();
  std::printf(
      "\nexpected: every cut consistent; marker overhead exactly n(n-1);\n"
      "in-flight recordings grow when the snapshot races active traffic.\n"
      "Ties to the paper: a consistent cut is precisely a computation the\n"
      "system could have been in — an isomorphism-class fact assembled by\n"
      "message chains (Theorem 5 requires those chains to exist).\n");
  if (json_path.has_value() && !reporter.WriteFile(*json_path)) return 1;
  return ok ? 0 : 1;
}
