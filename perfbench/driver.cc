// perfbench_driver: the in-process half of the benchmark (run.py is the
// other half and the only caller).  It drives the library's public API —
// SpaceBuilder, the snapshot functions, Formula::Parse and
// KnowledgeEvaluator — and prints one JSON object on stdout.
//
//   perfbench_driver build    <system> <threads> <seed> <snapshot-out>
//                             <at-count> <repeats> <max-depth> <steps>
//                             [trace-out]
//       the build journey: <repeats> times Build at 1 thread then at
//       <threads>, then <steps> (0 or more) times Build(1) + Deepen(1) per
//       level up to <max-depth>; the snapshots of the first pair and of
//       every stepped build must be byte-identical (compared by digest).
//       The JSON carries the saved snapshot's digest.  Then load the
//       saved snapshot back and pick <at-count> seeded classes for check-at
//       requests, each of which IndexOf must find again.
//   perfbench_driver oracle   <snapshot|build:system> <requests.tsv>
//       reference answers: a KnowledgeEvaluator with kernels off at one
//       thread, one output line per request
//   perfbench_driver replay   <snapshot> <requests.tsv> <threads> <trace-out>
//                             <classes.txt>
//       the serve stream in-process (parse + evaluate per request);
//       classes.txt labels each request fresh/repeat/shared/batch/at
//   perfbench_driver grow     <cap> <budget> <threads> <round.tsv> <dir>
//                             <trace-out>
//       the grow journey in-process: capped Build, save, budgeted load,
//       then query rounds and Deepen(1) + Refresh until complete
//
// Systems: "tokenbus:N,PASSES".  Requests (TSV, one per line):
//   check <formula>            check-at <formula> <computation>
//   batch <f1> <f2> ...        (tab-separated formulas)
//
// With a trace-out path the journey runs twice: once untraced, once with a
// span around every public library call; the spans are written to the path
// when the run ends, and the JSON carries the per-layer figures plus the
// traced/untraced wall ratio.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <streambuf>
#include <string>
#include <vector>

#include "core/formula.h"
#include "core/knowledge.h"
#include "core/serialization.h"
#include "core/space.h"
#include "protocols/token_bus.h"

namespace {

using namespace hpl;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- JSON output -------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Ordered JSON object builder: values are pre-rendered JSON.
class Json {
 public:
  Json& Set(const std::string& key, const std::string& raw) {
    fields_.emplace_back(key, raw);
    return *this;
  }
  Json& Set(const std::string& key, double v) { return Set(key, Num(v)); }
  Json& Flag(const std::string& key, bool v) {
    return Set(key, std::string(v ? "true" : "false"));
  }
  std::string Str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      out += (i ? ", " : "") + Quote(fields_[i].first) + ": " +
             fields_[i].second;
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

template <typename T, typename F>
std::string Array(const std::vector<T>& v, F render) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", " : "") + render(v[i]);
  return out + "]";
}

// --- Tracing -----------------------------------------------------------------

// Spans kept in memory and written out when the run ends.  Calls are
// sequential, so a span's children are exactly the spans opened while it
// is the innermost open one.
class Tracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int request = -1;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* t, int index) : t_(t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (index_ < 0) return;
      t_->spans_[static_cast<std::size_t>(index_)].end_ns = t_->Now();
      t_->open_ = t_->spans_[static_cast<std::size_t>(index_)].parent;
    }

   private:
    Tracer* t_;
    int index_;
  };

  Scope Open(const char* layer, const std::string& name, int request = -1) {
    if (!on_) return Scope(this, -1);
    Span s{layer, name, Now(), 0, open_, request};
    if (request < 0 && open_ >= 0)
      s.request = spans_[static_cast<std::size_t>(open_)].request;
    spans_.push_back(std::move(s));
    open_ = static_cast<int>(spans_.size()) - 1;
    return Scope(this, open_);
  }

  std::size_t size() const { return spans_.size(); }

  // Per layer: span time minus the part of it covered by child spans.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].layer] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                              child[i]) * 1e-9;
    return out;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_)
      out << Json()
                 .Set("layer", Quote(s.layer))
                 .Set("name", Quote(s.name))
                 .Set("start_ns", static_cast<double>(s.start_ns))
                 .Set("end_ns", static_cast<double>(s.end_ns))
                 .Set("parent", s.parent)
                 .Set("request", s.request)
                 .Str()
          << "\n";
    if (!out) throw ModelError("cannot write trace file " + path);
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

// Segment-store counters read around each call.  The spill counters and
// the payload a call moved out to disk (bytes_spilled) are deltas summed
// over calls.  bytes_resident is a gauge, the peak resident payload at a
// call boundary while a residency budget is in force: faults and evictions
// inside one call cancel in any delta of it, and without a budget the whole
// payload is resident by definition, so the gauge reads 0 there.
struct StoreCounters {
  std::uint64_t spill_writes = 0;
  std::uint64_t spill_faults = 0;
  std::uint64_t bytes_spilled = 0;
  std::uint64_t bytes_resident = 0;

  using Stats = internal::SegmentedSpaceStore::Stats;
  void Add(const Stats& before, const ComputationSpace& space) {
    const Stats after = space.SegmentStats();
    spill_writes += after.spill_writes - before.spill_writes;
    spill_faults += after.spill_faults - before.spill_faults;
    if (after.bytes_spilled > before.bytes_spilled)
      bytes_spilled += after.bytes_spilled - before.bytes_spilled;
    if (space.out_of_core())
      bytes_resident = std::max(bytes_resident, after.bytes_resident);
  }
};

// --- Systems -----------------------------------------------------------------

struct NamedSystem {
  std::unique_ptr<System> system;
  std::vector<Predicate> atoms;
};

NamedSystem MakeSystem(const std::string& spec) {
  NamedSystem out;
  if (spec.rfind("tokenbus:", 0) == 0) {
    const auto comma = spec.find(',');
    const int n = std::stoi(spec.substr(9, comma - 9));
    const int passes = std::stoi(spec.substr(comma + 1));
    auto bus = std::make_unique<protocols::TokenBusSystem>(n, passes);
    for (ProcessId p = 0; p < n; ++p) out.atoms.push_back(bus->HoldsToken(p));
    out.system = std::move(bus);
  } else {
    throw ModelError("unknown system '" + spec + "'");
  }
  return out;
}

EnumerationLimits Limits(int threads, int max_depth = 64,
                         bool truncate = false) {
  EnumerationLimits limits;
  limits.max_depth = max_depth;
  limits.allow_truncation = truncate;
  limits.num_threads = threads;
  return limits;
}

// FNV-1a and length of everything written to it: snapshots are compared by
// digest, so no copy of one is held beside the spaces being measured.
class DigestBuf : public std::streambuf {
 public:
  struct Digest {
    std::uint64_t hash = 14695981039346656037ull;
    std::uint64_t bytes = 0;
    bool operator==(const Digest&) const = default;
  };
  const Digest& digest() const { return d_; }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      d_.hash ^= static_cast<unsigned char>(s[i]);
      d_.hash *= 1099511628211ull;
    }
    d_.bytes += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return 0;
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

 private:
  Digest d_;
};
using Digest = DigestBuf::Digest;

Digest SnapshotDigest(const SpaceBuilder& builder) {
  DigestBuf buf;
  std::ostream out(&buf);
  SaveSpaceBuilderSnapshot(builder, out);
  return buf.digest();
}

Digest FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ModelError("cannot read " + path);
  DigestBuf buf;
  std::ostream out(&buf);
  out << in.rdbuf();
  return buf.digest();
}

std::string HashHex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// FNV-1a over the satisfying ids, 8 little-endian bytes each: the
// fingerprint `hpl_cli serve` returns as "hash".
std::string HashHex(const std::vector<std::size_t>& sat) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t id : sat)
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(id) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  return HashHex64(h);
}

// --- build: the build journey --------------------------------------------------

struct BuildArgs {
  std::string system;
  int threads = 1;
  std::uint64_t seed = 1;
  std::string snapshot_out;
  std::size_t at_count = 0;
  int repeats = 1;     // timed Build pairs (1 thread, then `threads`)
  int max_depth = 64;  // below the system's depth: a capped space
  int steps = 1;       // stepped builds (Build(1) + Deepen(1) per level)
};

// One pass of the journey; everything the JSON reports comes from here.
struct BuildResult {
  std::size_t classes = 0;
  std::vector<double> build_1t_s, build_mt_s;
  std::vector<std::size_t> level_depth, level_new;
  std::vector<double> level_s;
  double save_s = 0, load_s = 0;
  std::size_t snapshot_bytes = 0;
  double bytes_per_class = 0;
  bool same_mt = false, same_stepped = false, same_load = false;
  std::string digest;  // of the saved snapshot: FNV-1a hex, then length
  std::size_t lookup_failures = 0;
  std::vector<std::string> at;
  StoreCounters store;
};

// Times one Build; returns the builder.
SpaceBuilder TimedBuild(const System& system, const EnumerationLimits& limits,
                        Tracer& tr, std::vector<double>& seconds,
                        StoreCounters& store) {
  SpaceBuilder builder;
  const auto t = Clock::now();
  {
    auto s = tr.Open("space", "Build");
    builder.Build(system, limits);
  }
  seconds.push_back(Since(t));
  store.Add({}, builder.space());
  return builder;
}

BuildResult BuildJourney(const BuildArgs& a, const System& system,
                         Tracer& tr) {
  BuildResult r;
  // Full spaces finish far below the cap, so truncation only ever applies
  // to a capped journey.
  const EnumerationLimits one = Limits(1, a.max_depth, true);
  const EnumerationLimits many = Limits(a.threads, a.max_depth, true);
  Digest saved;
  for (int k = 0; k < a.repeats; ++k) {
    {
      SpaceBuilder builder = TimedBuild(system, one, tr, r.build_1t_s, r.store);
      if (k == 0) {
        r.classes = builder.space().size();
        r.bytes_per_class = builder.space().MemoryUsage().BytesPerClass();
        const auto ts = Clock::now();
        {
          auto s = tr.Open("serialization", "SaveSpaceBuilderSnapshot");
          SaveSpaceBuilderSnapshot(builder, a.snapshot_out);
        }
        r.save_s = Since(ts);
        saved = FileDigest(a.snapshot_out);
        r.snapshot_bytes = saved.bytes;
      }
    }
    SpaceBuilder builder = TimedBuild(system, many, tr, r.build_mt_s, r.store);
    if (k == 0) r.same_mt = SnapshotDigest(builder) == saved;
  }
  r.same_stepped = true;
  for (int k = 0; k < a.steps; ++k) {
    // Build(1) then Deepen(1) per level: per-level figures from outside.
    SpaceBuilder builder;
    {
      auto s = tr.Open("space", "Build");
      builder.Build(system, Limits(1, 1, true));
    }
    r.store.Add({}, builder.space());
    while (!builder.complete() && builder.built_depth() < a.max_depth) {
      const auto tl = Clock::now();
      const auto before = builder.space().SegmentStats();
      std::size_t added = 0;
      {
        auto s = tr.Open("space", "Deepen");
        added = builder.Deepen(1);
      }
      r.level_s.push_back(Since(tl));
      r.store.Add(before, builder.space());
      r.level_depth.push_back(static_cast<std::size_t>(builder.built_depth()));
      r.level_new.push_back(added);
    }
    r.same_stepped = r.same_stepped && SnapshotDigest(builder) == saved;
  }
  const auto tl = Clock::now();
  std::optional<SpaceBuilder> loaded;
  {
    auto s = tr.Open("serialization", "LoadSpaceBuilderSnapshot");
    loaded.emplace(LoadSpaceBuilderSnapshot(system, a.snapshot_out, one));
  }
  r.load_s = Since(tl);
  r.store.Add({}, loaded->space());
  r.same_load = SnapshotDigest(*loaded) == saved;
  r.digest = HashHex64(saved.hash) + "-" + std::to_string(saved.bytes);

  // The check-at classes, seeded; IndexOf must map each back to its id.
  const ComputationSpace& space = loaded->space();
  std::mt19937_64 gen(a.seed);
  for (std::size_t k = 0; k < a.at_count; ++k) {
    const std::size_t id = gen() % space.size();
    const Computation x = space.At(id);
    const auto found = space.IndexOf(x);
    if (!found.has_value() || *found != id) ++r.lookup_failures;
    r.at.push_back(FormatComputation(x));
  }
  return r;
}

std::string BuildJson(const BuildResult& r) {
  std::vector<double> level_cps;
  double slowest = 0;
  for (std::size_t i = 0; i < r.level_s.size(); ++i) {
    if (r.level_new[i] == 0) continue;
    const double cps = static_cast<double>(r.level_new[i]) / r.level_s[i];
    level_cps.push_back(cps);
    slowest = slowest == 0 ? cps : std::min(slowest, cps);
  }
  std::vector<std::vector<double>> levels;
  for (std::size_t i = 0; i < r.level_s.size(); ++i)
    levels.push_back({static_cast<double>(r.level_depth[i]),
                      static_cast<double>(r.level_new[i]),
                      r.level_s[i] * 1e3});
  return Json()
      .Set("classes", static_cast<double>(r.classes))
      .Set("build_1t_s", Array(r.build_1t_s, Num))
      .Set("build_mt_s", Array(r.build_mt_s, Num))
      .Set("levels", Array(levels,
                           [](const std::vector<double>& l) {
                             return Array(l, Num);
                           }))
      .Set("level_classes_per_s_median", Median(level_cps))
      .Set("level_classes_per_s_min", slowest)
      .Set("save_s", r.save_s)
      .Set("load_s", r.load_s)
      .Set("snapshot_bytes", static_cast<double>(r.snapshot_bytes))
      .Set("snapshot_digest", Quote(r.digest))
      .Set("bytes_per_class", r.bytes_per_class)
      .Flag("same_mt", r.same_mt)
      .Flag("same_stepped", r.same_stepped)
      .Flag("same_load", r.same_load)
      .Set("lookup_failures", static_cast<double>(r.lookup_failures))
      .Set("at", Array(r.at, Quote))
      .Set("spill_writes", static_cast<double>(r.store.spill_writes))
      .Set("spill_faults", static_cast<double>(r.store.spill_faults))
      .Set("bytes_spilled", static_cast<double>(r.store.bytes_spilled))
      .Set("bytes_resident", static_cast<double>(r.store.bytes_resident))
      .Str();
}

// Adds the tracer's per-layer self times and the tracing overhead.
std::string WithTrace(std::string json, const Tracer& tr, double untraced_s,
                      double traced_s) {
  json.pop_back();
  std::string self = "{";
  bool first = true;
  for (const auto& [layer, s] : tr.SelfSeconds()) {
    self += (first ? "" : ", ") + Quote(layer) + ": " + Num(s);
    first = false;
  }
  return json + ", \"self_s\": " + self + "}, \"spans\": " +
         Num(static_cast<double>(tr.size())) + ", \"untraced_s\": " +
         Num(untraced_s) + ", \"traced_s\": " + Num(traced_s) + "}";
}

int CmdBuild(int argc, char** argv) {
  if (argc < 10) throw ModelError("build: missing arguments");
  BuildArgs a;
  a.system = argv[2];
  a.threads = std::atoi(argv[3]);
  a.seed = std::strtoull(argv[4], nullptr, 10);
  a.snapshot_out = argv[5];
  a.at_count = std::strtoull(argv[6], nullptr, 10);
  a.repeats = std::max(1, std::atoi(argv[7]));
  a.max_depth = std::atoi(argv[8]);
  a.steps = std::max(0, std::atoi(argv[9]));
  const std::string trace_out = argc > 10 ? argv[10] : "";
  const NamedSystem named = MakeSystem(a.system);

  Tracer off(false);
  auto t = Clock::now();
  const BuildResult r = BuildJourney(a, *named.system, off);
  const double wall = Since(t);
  std::string json = BuildJson(r);
  if (!trace_out.empty()) {
    Tracer on(true);
    t = Clock::now();
    const BuildResult traced = BuildJourney(a, *named.system, on);
    const double traced_wall = Since(t);
    json = WithTrace(BuildJson(traced), on, wall, traced_wall);
    on.Write(trace_out);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

// --- Requests ----------------------------------------------------------------

struct Request {
  std::string kind;                   // check | batch | check-at
  std::vector<std::string> formulas;  // one, except for batch
  std::string at;                     // check-at only
};

std::vector<Request> ReadRequests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ModelError("cannot read " + path);
  std::vector<Request> out;
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::size_t pos = 0;
    for (;;) {
      const auto tab = line.find('\t', pos);
      fields.push_back(line.substr(pos, tab - pos));
      if (tab == std::string::npos) break;
      pos = tab + 1;
    }
    Request r;
    r.kind = fields[0];
    if (r.kind == "check-at") {
      if (fields.size() != 3) throw ModelError("bad check-at line: " + line);
      r.formulas = {fields[1]};
      r.at = fields[2];
    } else {
      r.formulas.assign(fields.begin() + 1, fields.end());
      if (r.formulas.empty()) throw ModelError("bad request line: " + line);
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Answers one request: "count hash" per formula, or "verdict class".
std::string Answer(KnowledgeEvaluator& eval, const Request& r,
                   const std::vector<FormulaPtr>& f) {
  if (r.kind == "check-at") {
    const auto id = eval.space().IndexOf(ParseComputation(r.at));
    if (!id.has_value()) return "absent";
    return std::string(eval.Holds(f[0], *id) ? "true" : "false") + " " +
           std::to_string(*id);
  }
  std::string out;
  const auto sets = r.kind == "batch"
                        ? eval.SatisfyingSets(f)
                        : std::vector<std::vector<std::size_t>>{
                              eval.SatisfyingSet(f[0])};
  for (const auto& sat : sets)
    out += (out.empty() ? "" : " ") + std::to_string(sat.size()) + " " +
           HashHex(sat);
  return out;
}

int CmdOracle(int argc, char** argv) {
  if (argc < 4) throw ModelError("oracle: missing arguments");
  const std::string source = argv[2];
  const auto requests = ReadRequests(argv[3]);
  // The reference: kernels off, one thread, over a space loaded from the
  // served snapshot (or, for "build:<system>", a fresh full-depth build).
  std::optional<NamedSystem> named;
  std::unique_ptr<ComputationSpace> space;
  if (source.rfind("build:", 0) == 0) {
    named.emplace(MakeSystem(source.substr(6)));
    space = std::make_unique<ComputationSpace>(
        ComputationSpace::Enumerate(*named->system, Limits(1)));
  } else {
    named.emplace(MakeSystem("tokenbus:8,20"));
    space = std::make_unique<ComputationSpace>(LoadSpaceSnapshot(source));
  }
  KnowledgeEvaluator eval(*space, {.num_threads = 1,
                                   .compiled_kernels = false});
  for (const Request& r : requests) {
    std::vector<FormulaPtr> f;
    for (const std::string& text : r.formulas)
      f.push_back(Formula::Parse(text, named->atoms));
    std::printf("%s\n", Answer(eval, r, f).c_str());
  }
  return 0;
}

// One request as the serve loop runs it: Parse, then evaluate, each under
// a span inside the request's span, with the evaluator's caches and the
// segment-store counters read around it.
struct TimedAnswer {
  std::string answer;
  double parse_us = 0, eval_ms = 0, request_ms = 0;
  bool cached = false;  // added no memo entry and no kernel program
};

TimedAnswer TimedRequest(KnowledgeEvaluator& eval, const NamedSystem& named,
                         const Request& r, Tracer& tr, int id,
                         StoreCounters& store) {
  TimedAnswer out;
  const auto before = eval.space().SegmentStats();
  const std::size_t memo_before = eval.memo_size();
  const std::size_t programs_before = eval.MemoryUsage().kernel_programs;
  {
    auto req = tr.Open("driver", "request", id);
    const auto t = Clock::now();
    std::vector<FormulaPtr> f;
    {
      auto s = tr.Open("formula", "Parse");
      const auto tp = Clock::now();
      for (const std::string& text : r.formulas)
        f.push_back(Formula::Parse(text, named.atoms));
      out.parse_us = Since(tp) * 1e6;
    }
    const auto te = Clock::now();
    {
      auto s = tr.Open("knowledge", r.kind == "check-at" ? "Holds"
                                    : r.kind == "batch" ? "SatisfyingSets"
                                                        : "SatisfyingSet");
      out.answer = Answer(eval, r, f);
    }
    out.eval_ms = Since(te) * 1e3;
    out.request_ms = Since(t) * 1e3;
  }
  out.cached = eval.memo_size() == memo_before &&
               eval.MemoryUsage().kernel_programs == programs_before;
  store.Add(before, eval.space());
  return out;
}

// --- replay: the serve stream in-process ---------------------------------------

struct ReplayResult {
  std::vector<double> request_ms;  // parse + evaluate per request
  std::vector<std::string> answers;
  std::map<std::string, std::vector<double>> eval_ms;  // by request class
  std::vector<double> parse_us, holds_us;
  std::size_t repeats = 0, repeat_hits = 0;
  double load_s = 0;
  KnowledgeEvaluator::MemoStats memo;
  std::size_t memo_entries = 0, interned = 0;
  StoreCounters store;
};

// `classes[i]` labels request i (fresh/repeat/shared/batch/at) for the
// per-class medians; a repeat "hits" when it adds no memo entry and no
// kernel program.
ReplayResult Replay(const std::string& snapshot, const NamedSystem& named,
                    const std::vector<Request>& requests,
                    const std::vector<std::string>& classes, int threads,
                    Tracer& tr) {
  ReplayResult out;
  const auto tl = Clock::now();
  std::optional<SpaceBuilder> builder;
  {
    auto s = tr.Open("serialization", "LoadSpaceBuilderSnapshot");
    builder.emplace(LoadSpaceBuilderSnapshot(*named.system, snapshot,
                                             Limits(threads)));
  }
  out.load_s = Since(tl);
  out.store.Add({}, builder->space());
  KnowledgeEvaluator eval(builder->space(), {.num_threads = threads});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const std::string& cls = classes[i];
    const TimedAnswer a = TimedRequest(eval, named, r, tr,
                                       static_cast<int>(i), out.store);
    out.answers.push_back(a.answer);
    out.parse_us.push_back(a.parse_us);
    out.request_ms.push_back(a.request_ms);
    if (r.kind == "check-at")
      out.holds_us.push_back(a.eval_ms * 1e3);
    else
      out.eval_ms[cls].push_back(a.eval_ms);
    if (cls == "repeat") {
      ++out.repeats;
      out.repeat_hits += a.cached;
    }
  }
  out.memo = eval.MemoryUsage();
  out.memo_entries = eval.memo_size();
  out.interned = eval.interner().size();
  return out;
}

std::string KnowledgeJson(Json& j, const ReplayResult& r) {
  auto med = [&](const char* cls) {
    const auto it = r.eval_ms.find(cls);
    return it == r.eval_ms.end() ? 0.0 : Median(it->second);
  };
  return j.Set("eval_fresh_ms", med("fresh"))
      .Set("eval_repeat_ms", med("repeat"))
      .Set("eval_shared_ms", med("shared"))
      .Set("eval_batch_ms", med("batch"))
      .Set("holds_us", Median(r.holds_us))
      .Set("parse_us", Median(r.parse_us))
      .Set("memo_entries", static_cast<double>(r.memo_entries))
      .Set("bytes_memo", static_cast<double>(r.memo.bytes_total))
      .Set("kernel_programs", static_cast<double>(r.memo.kernel_programs))
      .Set("kernel_ops", static_cast<double>(r.memo.kernel_ops))
      .Set("interned_nodes", static_cast<double>(r.interned))
      .Set("repeat_hit_ratio",
           r.repeats ? static_cast<double>(r.repeat_hits) /
                           static_cast<double>(r.repeats)
                     : 0.0)
      .Set("load_s", r.load_s)
      .Set("spill_writes", static_cast<double>(r.store.spill_writes))
      .Set("spill_faults", static_cast<double>(r.store.spill_faults))
      .Set("bytes_spilled", static_cast<double>(r.store.bytes_spilled))
      .Set("bytes_resident", static_cast<double>(r.store.bytes_resident))
      .Set("request_ms", Array(r.request_ms, Num))
      .Set("answers", Array(r.answers, Quote))
      .Str();
}

int CmdReplay(int argc, char** argv) {
  if (argc < 7) throw ModelError("replay: missing arguments");
  const std::string snapshot = argv[2];
  const auto requests = ReadRequests(argv[3]);
  const int threads = std::atoi(argv[4]);
  const std::string trace_out = argv[5];
  // Request classes, one per line, parallel to the requests file.
  std::vector<std::string> classes;
  {
    std::ifstream in(argv[6]);
    std::string line;
    while (std::getline(in, line)) classes.push_back(line);
  }
  if (classes.size() != requests.size())
    throw ModelError("replay: class list does not match the requests");
  const NamedSystem named = MakeSystem("tokenbus:8,20");
  Tracer off(false), on(true);
  auto t = Clock::now();
  const ReplayResult untraced =
      Replay(snapshot, named, requests, classes, threads, off);
  const double untraced_s = Since(t);
  t = Clock::now();
  ReplayResult traced = Replay(snapshot, named, requests, classes, threads, on);
  const double traced_s = Since(t);
  on.Write(trace_out);
  // Per-request in-process times come from the untraced pass, so the serve
  // overhead the caller derives from them carries no tracing cost.
  traced.request_ms = untraced.request_ms;
  Json j;
  j.Flag("answers_agree", untraced.answers == traced.answers);
  std::printf("%s\n",
              WithTrace(KnowledgeJson(j, traced), on, untraced_s, traced_s)
                  .c_str());
  return 0;
}

// --- grow: the pipeline in-process ---------------------------------------------

struct GrowResult {
  double build_s = 0, save_s = 0, load_s = 0;
  std::size_t snapshot_bytes = 0, classes = 0;
  std::vector<double> deepen_ms, refresh_ms, query_ms, parse_us, holds_us;
  std::vector<double> level_cps;  // classes per second of each Deepen(1)
  std::vector<std::string> final_answers;
  StoreCounters store;
  KnowledgeEvaluator::MemoStats memo;
  std::size_t memo_entries = 0, interned = 0;
  std::size_t repeats = 0, repeat_hits = 0;
  std::vector<double> fresh_ms, repeat_ms;
  double bytes_per_class = 0;
};

GrowResult GrowJourney(int cap, std::uint64_t budget, int threads,
                       const std::vector<Request>& round,
                       const std::string& path, Tracer& tr) {
  GrowResult g;
  const NamedSystem named = MakeSystem("tokenbus:8,20");
  {
    SpaceBuilder builder;
    const auto t = Clock::now();
    {
      auto s = tr.Open("space", "Build");
      builder.Build(*named.system, Limits(threads, cap, true));
    }
    g.build_s = Since(t);
    g.store.Add({}, builder.space());
    const auto ts = Clock::now();
    {
      auto s = tr.Open("serialization", "SaveSpaceBuilderSnapshot");
      SaveSpaceBuilderSnapshot(builder, path);
    }
    g.save_s = Since(ts);
  }
  EnumerationLimits limits = Limits(threads, cap, true);
  limits.segments.residency_budget_bytes = budget;
  const auto tl = Clock::now();
  std::optional<SpaceBuilder> builder;
  {
    auto s = tr.Open("serialization", "LoadSpaceBuilderSnapshot");
    builder.emplace(LoadSpaceBuilderSnapshot(*named.system, path, limits));
  }
  g.load_s = Since(tl);
  std::ifstream size_probe(path, std::ios::binary | std::ios::ate);
  g.snapshot_bytes = static_cast<std::size_t>(size_probe.tellg());
  const ComputationSpace& space = builder->space();
  g.store.Add({}, space);
  KnowledgeEvaluator eval(space, {.num_threads = threads});
  for (int round_no = 0;; ++round_no) {
    std::vector<std::string> answers;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const Request& r = round[i];
      const TimedAnswer a = TimedRequest(
          eval, named, r, tr,
          round_no * static_cast<int>(round.size()) + static_cast<int>(i),
          g.store);
      answers.push_back(a.answer);
      g.parse_us.push_back(a.parse_us);
      g.query_ms.push_back(a.request_ms);
      if (r.kind == "check-at") {
        g.holds_us.push_back(a.eval_ms * 1e3);
      } else if (round_no == 0) {
        g.fresh_ms.push_back(a.eval_ms);
      } else {
        g.repeat_ms.push_back(a.eval_ms);
        ++g.repeats;
        g.repeat_hits += a.cached;
      }
    }
    // As the serve client does: deepen after every round, stop once a
    // deepen finds nothing left to add.
    auto before = space.SegmentStats();
    auto t = Clock::now();
    std::size_t added = 0;
    {
      auto s = tr.Open("space", "Deepen");
      added = builder->Deepen(1);
    }
    const double deepen_s = Since(t);
    g.store.Add(before, space);
    if (added == 0 && builder->complete()) {
      g.final_answers = std::move(answers);
      break;
    }
    g.deepen_ms.push_back(deepen_s * 1e3);
    g.level_cps.push_back(static_cast<double>(added) / deepen_s);
    before = space.SegmentStats();
    t = Clock::now();
    {
      auto s = tr.Open("knowledge", "Refresh");
      eval.Refresh();
    }
    g.refresh_ms.push_back(Since(t) * 1e3);
    g.store.Add(before, space);
  }
  g.classes = space.size();
  g.bytes_per_class = space.MemoryUsage().BytesPerClass();
  g.memo = eval.MemoryUsage();
  g.memo_entries = eval.memo_size();
  g.interned = eval.interner().size();
  return g;
}

int CmdGrow(int argc, char** argv) {
  if (argc < 8) throw ModelError("grow: missing arguments");
  const int cap = std::atoi(argv[2]);
  const std::uint64_t budget = std::strtoull(argv[3], nullptr, 10);
  const int threads = std::atoi(argv[4]);
  const auto round = ReadRequests(argv[5]);
  const std::string dir = argv[6];
  const std::string trace_out = argv[7];
  Tracer off(false), on(true);
  auto t = Clock::now();
  const GrowResult untraced =
      GrowJourney(cap, budget, threads, round, dir + "/grow-untraced.snap", off);
  const double untraced_s = Since(t);
  t = Clock::now();
  const GrowResult g =
      GrowJourney(cap, budget, threads, round, dir + "/grow-traced.snap", on);
  const double traced_s = Since(t);
  on.Write(trace_out);
  Json j;
  j.Set("build_s", g.build_s)
      .Set("save_s", g.save_s)
      .Set("load_s", g.load_s)
      .Set("snapshot_bytes", static_cast<double>(g.snapshot_bytes))
      .Set("classes", static_cast<double>(g.classes))
      .Set("bytes_per_class", g.bytes_per_class)
      .Set("deepen_ms", Median(g.deepen_ms))
      .Set("refresh_ms", Median(g.refresh_ms))
      .Set("level_classes_per_s", Median(g.level_cps))
      .Set("level_classes_per_s_min",
           g.level_cps.empty()
               ? 0.0
               : *std::min_element(g.level_cps.begin(), g.level_cps.end()))
      // Untraced, like replay: the serve overhead derived from these carries
      // no tracing cost.
      .Set("query_ms", Array(untraced.query_ms, Num))
      .Set("parse_us", Median(g.parse_us))
      .Set("holds_us", Median(g.holds_us))
      .Set("eval_fresh_ms", Median(g.fresh_ms))
      .Set("eval_repeat_ms", Median(g.repeat_ms))
      .Set("repeat_hit_ratio",
           g.repeats ? static_cast<double>(g.repeat_hits) /
                           static_cast<double>(g.repeats)
                     : 0.0)
      .Set("memo_entries", static_cast<double>(g.memo_entries))
      .Set("bytes_memo", static_cast<double>(g.memo.bytes_total))
      .Set("kernel_programs", static_cast<double>(g.memo.kernel_programs))
      .Set("kernel_ops", static_cast<double>(g.memo.kernel_ops))
      .Set("interned_nodes", static_cast<double>(g.interned))
      .Set("spill_writes", static_cast<double>(g.store.spill_writes))
      .Set("spill_faults", static_cast<double>(g.store.spill_faults))
      .Set("bytes_spilled", static_cast<double>(g.store.bytes_spilled))
      .Set("bytes_resident", static_cast<double>(g.store.bytes_resident))
      .Flag("answers_agree", g.final_answers == untraced.final_answers)
      .Set("final_answers", Array(g.final_answers, Quote));
  std::printf("%s\n", WithTrace(j.Str(), on, untraced_s, traced_s).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "build") return CmdBuild(argc, argv);
    if (cmd == "oracle") return CmdOracle(argc, argv);
    if (cmd == "replay") return CmdReplay(argc, argv);
    if (cmd == "grow") return CmdGrow(argc, argv);
    std::fprintf(stderr, "usage: perfbench_driver build|oracle|replay|grow ...\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
