// Machine-readable benchmark reporting.  Benches accumulate JsonResult
// records and write them through a `--json=<path>` flag, producing the
// BENCH_*.json artifacts that CI uploads so the perf trajectory of the
// repo is recorded run over run.
//
// Schema (one file per bench binary):
//
//   {
//     "schema": "hpl-bench-v1",
//     "bench": "space_scaling",
//     "results": [
//       {
//         "name": "enumerate/random(n=4,m=6,seed=42)",
//         "params": {"processes": 4, "depth": 64, "threads": 2},
//         "wall_ns": 123456789,
//         "space_classes": 31563,
//         "classes_per_sec": 105210.0,
//         "bytes_space": 2215908,
//         "bytes_memo": 16384
//       }
//     ]
//   }
//
// `params` values are numeric (doubles); non-numeric context belongs in
// `name`.  `space_classes` and `classes_per_sec` are 0 for measurements
// that do not enumerate a computation space.  `bytes_space` (columnar
// ComputationSpace::MemoryUsage().bytes_total) and `bytes_memo`
// (KnowledgeEvaluator::MemoryUsage().bytes_total) are optional memory
// gauges: rows omit them when 0 and parsers must accept their absence —
// bench_space_scaling and bench_knowledge_scaling populate them.  The
// reporter depends only on the JSON codec (serve/json.h), not on the hpl
// core libraries, so any tool can link it.
#ifndef HPL_BENCH_REPORTER_H_
#define HPL_BENCH_REPORTER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hpl::bench {

// One timed measurement.
struct JsonResult {
  std::string name;
  std::vector<std::pair<std::string, double>> params;
  std::int64_t wall_ns = 0;
  std::uint64_t space_classes = 0;
  double classes_per_sec = 0.0;
  // Optional memory gauges (0 = not measured, omitted from the JSON).
  std::uint64_t bytes_space = 0;
  std::uint64_t bytes_memo = 0;
};

class JsonReporter {
 public:
  explicit JsonReporter(std::string bench) : bench_(std::move(bench)) {}

  void Add(JsonResult result) { results_.push_back(std::move(result)); }

  const std::string& bench() const noexcept { return bench_; }
  const std::vector<JsonResult>& results() const noexcept { return results_; }

  std::string ToJson() const;

  // Writes ToJson() to `path`; returns false on I/O failure (after printing
  // a diagnostic to stderr).
  bool WriteFile(const std::string& path) const;

  // Parses a document produced by ToJson().  Accepts exactly the schema
  // above, keys in the order ToJson writes them; throws std::runtime_error
  // on malformed input or a schema mismatch.
  static JsonReporter Parse(const std::string& json);

 private:
  std::string bench_;
  std::vector<JsonResult> results_;
};

// The flags the benches share.
struct BenchArgs {
  std::string preset;        // empty for a bench with no presets
  std::vector<int> threads;  // empty for a bench with no threads axis
  std::optional<std::string> json_path;
};

// Consumes --json=PATH, plus --preset=NAME when `default_preset` is
// non-empty and --threads=N[,N...] when `default_threads` is, from argv;
// every other argument stays in argv (in order) for the caller or
// google-benchmark.  Thread counts are integers in [0, 4096] (0 = all
// hardware threads); any other --threads value prints a message naming the
// flag and exits 2.
BenchArgs ParseBenchArgs(int& argc, char** argv,
                         std::string default_preset = "",
                         std::vector<int> default_threads = {});

// Prints "usage: <argv0> <flags> [--json=PATH]" to stderr and returns 2:
// what a bench does with an argument ParseBenchArgs left it and it does not
// know.
int BenchUsage(const char* argv0, const char* flags);

// Wall-clock stopwatch for bench measurements.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  std::int64_t ElapsedNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// classes/sec from a class count and an elapsed wall time (0 if no time).
inline double ClassesPerSec(std::uint64_t classes, std::int64_t wall_ns) {
  return wall_ns > 0 ? static_cast<double>(classes) * 1e9 /
                           static_cast<double>(wall_ns)
                     : 0.0;
}

}  // namespace hpl::bench

#endif  // HPL_BENCH_REPORTER_H_
