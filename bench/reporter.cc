#include "bench/reporter.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "serve/json.h"

namespace hpl::bench {
namespace {

std::string Quoted(const std::string& s) {
  return "\"" + json::Escape(s) + "\"";
}

std::string FormatDouble(double v) {
  char buffer[64];
  // %.17g round-trips every double; trim to %g when exact.
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  double parsed = 0;
  std::sscanf(buffer, "%lf", &parsed);
  char shorter[64];
  std::snprintf(shorter, sizeof shorter, "%g", v);
  double short_parsed = 0;
  std::sscanf(shorter, "%lf", &short_parsed);
  return short_parsed == v ? shorter : buffer;
}

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("bench JSON parse error: " + what);
}

// The member at `index` of `object`, which must be named `key` and have
// type `type`: the schema fixes the key order.
const json::Value& Member(const json::Value& object, std::size_t index,
                          const char* key, json::Value::Type type) {
  if (index >= object.members.size() || object.members[index].first != key)
    Fail(std::string("expected key \"") + key + "\"");
  const json::Value& v = object.members[index].second;
  if (v.type != type) Fail(std::string("wrong type for \"") + key + "\"");
  return v;
}

double Number(const json::Value& object, std::size_t index, const char* key) {
  return Member(object, index, key, json::Value::Type::kNumber).number;
}

// A --threads value: comma-separated counts in [0, 4096].  Anything else
// exits 2 naming the flag rather than running a different sweep.
std::vector<int> ParseThreads(const char* list) {
  std::vector<int> counts;
  const char* end = list + std::strlen(list);
  for (const char* item = list;; ++item) {
    int value = -1;
    const auto [stop, ec] = std::from_chars(item, end, value);
    if (ec != std::errc{} || value < 0 || value > 4096 ||
        (stop != end && *stop != ',')) {
      std::fprintf(stderr,
                   "--threads: expected comma-separated thread counts in "
                   "[0, 4096], got '%s'\n",
                   list);
      std::exit(2);
    }
    counts.push_back(value);
    if (stop == end) return counts;
    item = stop;
  }
}

}  // namespace

std::string JsonReporter::ToJson() const {
  std::string out = "{\n  \"schema\": \"hpl-bench-v1\",\n  \"bench\": ";
  out += Quoted(bench_);
  out += ",\n  \"results\": [";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const JsonResult& r = results_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": " + Quoted(r.name);
    out += ", \"params\": {";
    for (std::size_t j = 0; j < r.params.size(); ++j) {
      if (j > 0) out += ", ";
      out += Quoted(r.params[j].first) + ": " +
             FormatDouble(r.params[j].second);
    }
    out += "}, \"wall_ns\": " + std::to_string(r.wall_ns);
    out += ", \"space_classes\": " + std::to_string(r.space_classes);
    out += ", \"classes_per_sec\": " + FormatDouble(r.classes_per_sec);
    if (r.bytes_space != 0)
      out += ", \"bytes_space\": " + std::to_string(r.bytes_space);
    if (r.bytes_memo != 0)
      out += ", \"bytes_memo\": " + std::to_string(r.bytes_memo);
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool JsonReporter::WriteFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "reporter: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  std::fclose(file);
  if (!ok)
    std::fprintf(stderr, "reporter: short write to '%s'\n", path.c_str());
  return ok;
}

JsonReporter JsonReporter::Parse(const std::string& text) {
  const json::Value doc = json::Parse(text);
  using Type = json::Value::Type;
  if (doc.type != Type::kObject || doc.members.size() != 3)
    Fail("expected an object with schema, bench and results");
  if (Member(doc, 0, "schema", Type::kString).string != "hpl-bench-v1")
    Fail("unknown schema");
  JsonReporter reporter(Member(doc, 1, "bench", Type::kString).string);
  const json::Value& results = Member(doc, 2, "results", Type::kArray);
  for (const json::Value& row : results.array) {
    if (row.type != Type::kObject) Fail("result is not an object");
    JsonResult r;
    r.name = Member(row, 0, "name", Type::kString).string;
    const json::Value& params = Member(row, 1, "params", Type::kObject);
    for (const auto& [key, value] : params.members) {
      if (value.type != Type::kNumber)
        Fail("param \"" + key + "\" is not a number");
      r.params.emplace_back(key, value.number);
    }
    r.wall_ns = static_cast<std::int64_t>(Number(row, 2, "wall_ns"));
    r.space_classes =
        static_cast<std::uint64_t>(Number(row, 3, "space_classes"));
    r.classes_per_sec = Number(row, 4, "classes_per_sec");
    // Optional trailing memory gauges, in either order.
    for (std::size_t i = 5; i < row.members.size(); ++i) {
      const std::string& key = row.members[i].first;
      std::uint64_t* gauge = key == "bytes_space" ? &r.bytes_space
                             : key == "bytes_memo" ? &r.bytes_memo
                                                   : nullptr;
      if (gauge == nullptr) Fail("unknown result key \"" + key + "\"");
      *gauge = static_cast<std::uint64_t>(Number(row, i, key.c_str()));
    }
    reporter.Add(std::move(r));
  }
  return reporter;
}

BenchArgs ParseBenchArgs(int& argc, char** argv, std::string default_preset,
                         std::vector<int> default_threads) {
  BenchArgs args{std::move(default_preset), std::move(default_threads), {}};
  const bool presets = !args.preset.empty();
  const bool threads = !args.threads.empty();
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--json=", 7) == 0)
      args.json_path = std::string(arg + 7);
    else if (presets && std::strncmp(arg, "--preset=", 9) == 0)
      args.preset = arg + 9;
    else if (threads && std::strncmp(arg, "--threads=", 10) == 0)
      args.threads = ParseThreads(arg + 10);
    else
      argv[out++] = argv[i];
  }
  argc = out;
  argv[out] = nullptr;  // keep the argv[argc] == NULL guarantee
  return args;
}

int BenchUsage(const char* argv0, const char* flags) {
  std::fprintf(stderr, "usage: %s %s [--json=PATH]\n", argv0, flags);
  return 2;
}

}  // namespace hpl::bench
