// Experiment E27 — incremental space maintenance: what does
// `SpaceBuilder::Deepen` buy over re-enumerating from scratch, and how fast
// does `Ingest` splice observed runs into a live space?
//
//   * deepen vs rebuild: enumerate a system to completion (the rebuild
//     baseline), then build the same space capped one level short and time
//     Deepen(1).  The deepened space must serialize to the exact bytes of
//     the fresh one — the speedup only counts if the result is identical,
//   * ingest throughput: stream deterministic walks through Ingest twice —
//     into the complete space (pure lookup, every prefix already has a
//     class) and into a shallow capped space (the minting path).
//
//   bench_incremental [--preset=smoke|default|big] [--threads=1,4]
//                     [--json=PATH]
#include <algorithm>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench/reporter.h"
#include "bench/table.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "core/space.h"

using namespace hpl;

namespace {

struct Config {
  int processes;
  int messages;
};

std::string SystemLabel(const Config& config) {
  return "random(n=" + std::to_string(config.processes) +
         ",m=" + std::to_string(config.messages) + ",seed=42)";
}

RandomSystem MakeSystem(const Config& config) {
  RandomSystemOptions options;
  options.num_processes = config.processes;
  options.num_messages = config.messages;
  options.internal_events = 1;
  options.seed = 42;
  return RandomSystem(options);
}

std::string SnapshotBytes(const ComputationSpace& space) {
  std::ostringstream sink;
  SaveSpaceSnapshot(space, sink);
  return sink.str();
}

// A deterministic walk through the system's runs: at each step take one of
// the enabled events, steered by a per-walk LCG so different seeds explore
// different branches.  No RNG state leaks between walks, so every bench
// invocation ingests the same event streams.
std::vector<Event> SeededWalk(const System& system, std::uint64_t seed,
                              std::size_t max_events) {
  std::vector<Event> events;
  std::uint64_t state = seed * 2862933555777941757ULL + 3037000493ULL;
  while (events.size() < max_events) {
    const Computation x = Computation::TrustedFromEvents(events);
    const auto enabled = system.EnabledEvents(x);
    if (enabled.empty()) break;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    events.push_back(enabled[(state >> 33) % enabled.size()]);
  }
  return events;
}

// Sub-second measurements re-run once and keep the better wall — the CI
// gate compares a ratio of two of these, and short timings are the
// noise-prone ones (same policy as bench_space_scaling).
template <typename Fn>
std::int64_t TimeBest(Fn&& fn) {
  bench::WallTimer timer;
  fn();
  std::int64_t wall_ns = timer.ElapsedNs();
  if (wall_ns < 1'000'000'000) {
    bench::WallTimer retimer;
    fn();
    wall_ns = std::min(wall_ns, retimer.ElapsedNs());
  }
  return wall_ns;
}

// Same keep-the-better policy for measurements whose wall clock is taken
// inside the sample (so setup like the capped build stays untimed).
template <typename Fn>
auto SampleBest(Fn&& fn) {
  auto sample = fn();
  if (sample.wall_ns < 1'000'000'000) {
    auto rerun = fn();
    if (rerun.wall_ns < sample.wall_ns) sample = rerun;
  }
  return sample;
}

struct DeepenSample {
  std::int64_t wall_ns;
  std::size_t added;
  bool identical;
};

// Build the capped space (untimed — the whole point of Deepen is that this
// part already happened), then time the one-level extension alone.
DeepenSample MeasureDeepen(const System& system,
                           const EnumerationLimits& capped,
                           const std::string& reference_bytes) {
  SpaceBuilder builder;
  builder.Build(system, capped);
  bench::WallTimer timer;
  const std::size_t added = builder.Deepen(1);
  const std::int64_t wall_ns = timer.ElapsedNs();
  return {wall_ns, added,
          SnapshotBytes(builder.space()) == reference_bytes};
}

struct IngestSample {
  std::int64_t wall_ns;
  std::size_t minted;
};

// Build the substrate space (untimed), then time Ingest over the walks.
IngestSample MeasureIngest(const System& system,
                           const EnumerationLimits& limits,
                           const std::vector<std::vector<Event>>& walks) {
  SpaceBuilder builder;
  builder.Build(system, limits);
  bench::WallTimer timer;
  std::size_t minted = 0;
  for (const auto& walk : walks)
    minted += builder.Ingest(std::span<const Event>(walk));
  return {timer.ElapsedNs(), minted};
}

}  // namespace

int main(int argc, char** argv) {
  auto [preset, threads, json_path] =
      bench::ParseBenchArgs(argc, argv, "default", {1, 4});
  if (argc > 1)
    return bench::BenchUsage(argv[0], "[--preset=smoke|default|big] "
                                      "[--threads=1,4]");

  std::vector<Config> configs;
  if (preset == "smoke") {
    configs = {{4, 5}};
  } else if (preset == "default") {
    configs = {{4, 5}, {4, 6}};
  } else if (preset == "big") {
    configs = {{4, 6}, {5, 6}};
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }

  std::printf("E27: incremental space maintenance (preset=%s)\n\n",
              preset.c_str());
  bench::JsonReporter reporter("incremental");

  // --- Deepen one level vs rebuilding the whole space. ---
  bench::Table deepen_table({"system", "depth", "threads", "rebuild ms",
                             "deepen ms", "added", "speedup", "identical?"});
  for (const Config& config : configs) {
    const RandomSystem system = MakeSystem(config);
    const std::string label = SystemLabel(config);

    // The reference space: complete enumeration, 1 thread.  Its built
    // depth D is the last BFS level, so D-1 is the deepest honest cap —
    // the deepened result is compared against these bytes at every thread
    // count (Deepen's determinism guarantee).
    const ComputationSpace reference =
        ComputationSpace::Enumerate(system, {.max_depth = 64});
    const int depth = reference.built_depth();
    const std::string reference_bytes = SnapshotBytes(reference);

    for (const int t : threads) {
      EnumerationLimits full;
      full.max_depth = 64;
      full.num_threads = t;
      const std::int64_t rebuild_ns = TimeBest(
          [&] { (void)ComputationSpace::Enumerate(system, full); });

      EnumerationLimits capped = full;
      capped.max_depth = depth - 1;
      capped.allow_truncation = true;
      // Each sample starts from a freshly capped builder so Deepen never
      // measures a no-op.
      const DeepenSample sample = SampleBest(
          [&] { return MeasureDeepen(system, capped, reference_bytes); });
      if (!sample.identical) {
        std::fprintf(stderr,
                     "FATAL: deepened space differs from fresh enumeration "
                     "(%s, %d threads)\n",
                     label.c_str(), t);
        return 1;
      }
      const double speedup =
          sample.wall_ns > 0 ? static_cast<double>(rebuild_ns) /
                                   static_cast<double>(sample.wall_ns)
                             : 0.0;

      deepen_table.AddRow({label, std::to_string(depth), std::to_string(t),
                           bench::Fmt(rebuild_ns / 1e6),
                           bench::Fmt(sample.wall_ns / 1e6),
                           std::to_string(sample.added),
                           bench::Fmt(speedup) + "x", "yes"});
      reporter.Add({.name = "rebuild/full(" + label + ")",
                    .params = {{"depth", static_cast<double>(depth)},
                               {"threads", static_cast<double>(t)}},
                    .wall_ns = rebuild_ns,
                    .space_classes = reference.size(),
                    .classes_per_sec =
                        bench::ClassesPerSec(reference.size(), rebuild_ns),
                    .bytes_space = reference.MemoryUsage().bytes_total});
      reporter.Add({.name = "deepen/one-level(" + label + ")",
                    .params = {{"depth", static_cast<double>(depth)},
                               {"threads", static_cast<double>(t)},
                               {"added", static_cast<double>(sample.added)},
                               {"deepen_speedup", speedup}},
                    .wall_ns = sample.wall_ns,
                    .space_classes = reference.size()});
    }
  }
  deepen_table.Print();

  // --- Ingest throughput: lookup path and minting path. ---
  // One config is enough — Ingest is sequential by design (one observed
  // run arrives at a time), so the interesting number is events/sec, not
  // scaling.
  {
    const Config& config = configs.front();
    const RandomSystem system = MakeSystem(config);
    const std::string label = SystemLabel(config);
    const int kWalks = 64;

    SpaceBuilder probe;
    probe.Build(system, {.max_depth = 64, .num_threads = 1});
    const int depth = probe.built_depth();

    std::vector<std::vector<Event>> walks;
    std::size_t total_events = 0;
    for (int w = 0; w < kWalks; ++w) {
      walks.push_back(SeededWalk(system, static_cast<std::uint64_t>(w + 1),
                                 static_cast<std::size_t>(depth)));
      total_events += walks.back().size();
    }

    bench::Table ingest_table(
        {"path", "walks", "events", "wall (ms)", "events/sec", "minted"});

    // Lookup path: the space is complete, so every prefix resolves to an
    // existing class and Ingest only has to find it (and the edge).
    const IngestSample lookup = SampleBest([&] {
      return MeasureIngest(system, {.max_depth = 64, .num_threads = 1},
                           walks);
    });
    if (lookup.minted != 0) {
      std::fprintf(stderr,
                   "FATAL: ingest minted %zu classes into a complete space\n",
                   lookup.minted);
      return 1;
    }

    // Minting path: a depth-2 cap leaves almost every walk prefix missing,
    // so Ingest exercises class minting, canon insertion, and refinalize.
    const IngestSample mint = SampleBest([&] {
      return MeasureIngest(system,
                           {.max_depth = 2,
                            .allow_truncation = true,
                            .num_threads = 1},
                           walks);
    });

    const double lookup_eps =
        bench::ClassesPerSec(total_events, lookup.wall_ns);
    const double mint_eps = bench::ClassesPerSec(total_events, mint.wall_ns);
    ingest_table.AddRow({"lookup", std::to_string(kWalks),
                         std::to_string(total_events),
                         bench::Fmt(lookup.wall_ns / 1e6),
                         bench::Fmt(lookup_eps), "0"});
    ingest_table.AddRow({"mint", std::to_string(kWalks),
                         std::to_string(total_events),
                         bench::Fmt(mint.wall_ns / 1e6),
                         bench::Fmt(mint_eps), std::to_string(mint.minted)});
    ingest_table.Print();

    reporter.Add({.name = "ingest/lookup(" + label + ")",
                  .params = {{"walks", static_cast<double>(kWalks)},
                             {"events", static_cast<double>(total_events)},
                             {"events_per_sec", lookup_eps}},
                  .wall_ns = lookup.wall_ns});
    reporter.Add({.name = "ingest/mint(" + label + ")",
                  .params = {{"walks", static_cast<double>(kWalks)},
                             {"events", static_cast<double>(total_events)},
                             {"events_per_sec", mint_eps},
                             {"minted", static_cast<double>(mint.minted)}},
                  .wall_ns = mint.wall_ns});
  }

  if (json_path && !reporter.WriteFile(*json_path)) return 1;
  return 0;
}
