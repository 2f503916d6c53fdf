// Round-trip coverage for the bench JSON reporter: every field written by
// ToJson() must survive Parse() bit-exactly, and the emitted document must
// stay within the BENCH_*.json schema CI validates.
#include "bench/reporter.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace hpl::bench {
namespace {

JsonResult MakeResult() {
  JsonResult r;
  r.name = "enumerate/random(n=4,m=6,seed=42)";
  r.params = {{"processes", 4}, {"depth", 56}, {"threads", 2}};
  r.wall_ns = 123456789;
  r.space_classes = 31563;
  r.classes_per_sec = 105210.25;
  r.bytes_space = 2215908;
  r.bytes_memo = 16384;
  return r;
}

TEST(ReporterTest, RoundTripPreservesAllFields) {
  JsonReporter reporter("space_scaling");
  reporter.Add(MakeResult());
  JsonResult second;
  second.name = "knowledge/\"quoted\"\\backslash\nnewline";
  second.params = {{"fraction", 0.125}, {"huge", 1.5e12}, {"negative", -3}};
  second.wall_ns = 1;
  reporter.Add(second);

  const JsonReporter parsed = JsonReporter::Parse(reporter.ToJson());
  EXPECT_EQ(parsed.bench(), "space_scaling");
  ASSERT_EQ(parsed.results().size(), 2u);

  const JsonResult& a = parsed.results()[0];
  EXPECT_EQ(a.name, "enumerate/random(n=4,m=6,seed=42)");
  ASSERT_EQ(a.params.size(), 3u);
  EXPECT_EQ(a.params[0].first, "processes");
  EXPECT_EQ(a.params[0].second, 4);
  EXPECT_EQ(a.params[2].first, "threads");
  EXPECT_EQ(a.params[2].second, 2);
  EXPECT_EQ(a.wall_ns, 123456789);
  EXPECT_EQ(a.space_classes, 31563u);
  EXPECT_EQ(a.classes_per_sec, 105210.25);
  EXPECT_EQ(a.bytes_space, 2215908u);
  EXPECT_EQ(a.bytes_memo, 16384u);

  const JsonResult& b = parsed.results()[1];
  EXPECT_EQ(b.name, second.name);
  ASSERT_EQ(b.params.size(), 3u);
  EXPECT_EQ(b.params[0].second, 0.125);
  EXPECT_EQ(b.params[1].second, 1.5e12);
  EXPECT_EQ(b.params[2].second, -3);
  EXPECT_EQ(b.wall_ns, 1);
  EXPECT_EQ(b.space_classes, 0u);
  EXPECT_EQ(b.classes_per_sec, 0.0);
  // The optional memory gauges default to 0 and are omitted from the JSON.
  EXPECT_EQ(b.bytes_space, 0u);
  EXPECT_EQ(b.bytes_memo, 0u);
  EXPECT_EQ(JsonReporter::Parse(reporter.ToJson()).ToJson(),
            reporter.ToJson());
}

TEST(ReporterTest, EmptyReporterRoundTrips) {
  const JsonReporter parsed = JsonReporter::Parse(JsonReporter("e").ToJson());
  EXPECT_EQ(parsed.bench(), "e");
  EXPECT_TRUE(parsed.results().empty());
}

TEST(ReporterTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(JsonReporter::Parse(""), std::runtime_error);
  EXPECT_THROW(JsonReporter::Parse("{}"), std::runtime_error);
  EXPECT_THROW(JsonReporter::Parse("{\"schema\": \"other\"}"),
               std::runtime_error);
  JsonReporter reporter("x");
  reporter.Add(MakeResult());
  std::string json = reporter.ToJson();
  EXPECT_THROW(JsonReporter::Parse(json + "trailing"), std::runtime_error);
}

TEST(ReporterTest, JsonFlagExtractsAndRemovesArgument) {
  // A bench with neither presets nor a threads axis takes only --json and
  // leaves the rest, in order, for itself or google-benchmark.
  const char* raw[] = {"bench", "--preset=smoke", "--json=/tmp/out.json",
                       "--threads=2", nullptr};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 4;
  const auto path = ParseBenchArgs(argc, argv).json_path;
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, "/tmp/out.json");
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--preset=smoke");
  EXPECT_STREQ(argv[2], "--threads=2");
  EXPECT_EQ(argv[3], nullptr);

  int argc_none = 1;
  EXPECT_FALSE(ParseBenchArgs(argc_none, argv).json_path.has_value());
}

TEST(ReporterTest, ParseRejectsSchemaDrift) {
  JsonReporter reporter("x");
  reporter.Add(MakeResult());
  const std::string json = reporter.ToJson();
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string out = json;
    out.replace(out.find(from), from.size(), to);
    return out;
  };
  EXPECT_THROW(JsonReporter::Parse(with("\"bytes_memo\"", "\"bytes_other\"")),
               std::runtime_error);
  EXPECT_THROW(JsonReporter::Parse(with("\"wall_ns\"", "\"wall\"")),
               std::runtime_error);
  EXPECT_THROW(
      JsonReporter::Parse(with("\"processes\": 4", "\"processes\": \"4\"")),
      std::runtime_error);
  EXPECT_THROW(JsonReporter::Parse(with("\n  ]\n}", "\n  ], \"extra\": 1\n}")),
               std::runtime_error);
}

// Copies `args` into a mutable argv (with the argv[argc] == NULL slot).
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (std::string& a : storage) pointers.push_back(a.data());
    pointers.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> pointers;
  int argc;
  char** argv() { return pointers.data(); }
};

TEST(ReporterTest, ParseBenchArgsConsumesTheSharedFlags) {
  Argv a({"bench", "--preset=smoke", "--extra=1", "--threads=2,0,8",
          "--json=out.json"});
  const BenchArgs args = ParseBenchArgs(a.argc, a.argv(), "default", {1, 4});
  EXPECT_EQ(args.preset, "smoke");
  EXPECT_EQ(args.threads, (std::vector<int>{2, 0, 8}));
  ASSERT_TRUE(args.json_path.has_value());
  EXPECT_EQ(*args.json_path, "out.json");
  // Unrecognized flags stay for the caller.
  ASSERT_EQ(a.argc, 2);
  EXPECT_STREQ(a.argv()[1], "--extra=1");
  EXPECT_EQ(a.argv()[2], nullptr);

  Argv defaults({"bench"});
  const BenchArgs d =
      ParseBenchArgs(defaults.argc, defaults.argv(), "default", {1, 4});
  EXPECT_EQ(d.preset, "default");
  EXPECT_EQ(d.threads, (std::vector<int>{1, 4}));
  EXPECT_FALSE(d.json_path.has_value());

  // A bench without a threads axis leaves --threads to its caller.
  Argv no_axis({"bench", "--threads=2"});
  EXPECT_TRUE(ParseBenchArgs(no_axis.argc, no_axis.argv(), "default")
                  .threads.empty());
  EXPECT_EQ(no_axis.argc, 2);
}

TEST(ReporterTest, ParseBenchArgsRejectsBadThreadCounts) {
  for (const char* bad : {"--threads=x", "--threads=", "--threads=1,",
                          "--threads=2,,4", "--threads=-1", "--threads=4097",
                          "--threads=3x"}) {
    Argv a({"bench", bad});
    EXPECT_EXIT(ParseBenchArgs(a.argc, a.argv(), "default", {1}),
                ::testing::ExitedWithCode(2), "--threads")
        << bad;
  }
}

}  // namespace
}  // namespace hpl::bench
