// hpl — command-line explorer for the How-Processes-Learn library.
//
//   hpl systems                          list built-in systems
//   hpl space    <system>                enumerate and summarize
//   hpl diagram  <system>                isomorphism diagram as DOT
//   hpl atoms    <system>                predicates usable in formulas
//   hpl check    <system> <formula> [flags]
//                                        model-check a formula (prints
//                                        per-phase enumerate/evaluate times
//                                        and space/memo memory stats)
//   hpl check-at <system> <formula> <computation> [flags]
//                                        evaluate at one computation, given
//                                        in the serialization format, e.g.
//                                        "0>1:0/ping 1<0:0/ping" (prints
//                                        per-phase times; a pointwise query
//                                        always evaluates sequentially, so
//                                        --knowledge-threads is accepted
//                                        but has no effect here)
//   hpl simulate termination|gossip|heartbeat|consensus [seed]
//                                        consensus also takes the fault
//                                        knobs below and exits non-zero if
//                                        agreement/validity/termination is
//                                        violated
//   hpl chains   <n> <computation> <p0> [<p1> ...]
//                                        find a process chain <p0 p1 ...>
//   hpl fuse     <n> <x> <y> <z> <p0>[,p1...]
//                                        Theorem-2 fusion of y and z over
//                                        common prefix x w.r.t. P
//   hpl bench    <system> [flags] [--repeat=K]
//                                        time the enumerate and evaluate
//                                        phases; optional BENCH_*.json
//   hpl snapshot save <system> <path> [flags]
//                                        enumerate and write a binary
//                                        hpl-space snapshot
//   hpl snapshot info <path>             print a snapshot's header
//   hpl snapshot load <path>             load + verify a snapshot
//   hpl serve    <system> [--snapshot=PATH] [flags]
//                                        long-lived query service: loads the
//                                        snapshot (or enumerates, then saves
//                                        it when --snapshot is given) ONCE,
//                                        then answers newline-delimited JSON
//                                        requests on stdin with one JSON
//                                        response per line on stdout (the
//                                        protocol: serve/serve.h)
//
// check, check-at, bench, serve and snapshot save share the flags
//   --threads=N            ComputationSpace::Enumerate workers
//   --knowledge-threads=N  workers for compiled kernel sweeps (0 = hardware
//                          concurrency, 1 = sequential)
//   --kernels=on|off       compiled kernel sweeps (default on; off answers
//                          whole-space queries with one sequential
//                          interpreted pass — see core/kernel.h)
//   --max-depth=N          override the system's enumeration depth cap
//   --max-classes=N        override the [D]-class budget
//   --segment-shift=N      log2 class rows per store segment (default 16)
//   --residency-budget=B   out-of-core mode: spill cold sealed segments
//                          once the columns' resident bytes exceed B
//   --spill-dir=PATH       where spilled segments live (default: a private
//                          directory under $TMPDIR, removed on exit)
//   --allow-truncation     keep going at max_depth (knowledge verdicts are
//                          then approximations; a WARNING is printed)
//   --group=P0,P1[,...]    materialize the [G]-class index of this process
//                          group right after the space is built or loaded
//                          (repeatable; snapshot save and serve record the
//                          mask, and a load rebuilds the table);
//                          group stats are printed and, with --json, emitted
//                          as group_index/ rows
//   --json=PATH            write the phases as hpl-bench-v1 rows, including
//                          the bytes_space/bytes_memo memory gauges
//
// Fault knobs (check, bench, simulate consensus):
//   --crash=p[@t]          let process p crash.  On check/bench this wraps
//                          the system in a CrashFaultSystem (budget = the
//                          number of --crash flags) and the space then
//                          contains every failure pattern over the named
//                          processes; the @t form is simulator-only (the
//                          space explores every crash point).  On simulate
//                          consensus, p crashes at time t (default 20).
//   --drop=P               simulate consensus only: drop each message with
//                          probability P in [0, 1]
//   --partition=S@B..E     simulate consensus only: cut the channels
//                          between process set S (P0,P1,...) and its
//                          complement for the window [B, E)
//
// bench re-runs its enumerate and evaluate phases sequentially and exits
// non-zero (after writing --json, rows flagged deterministic=0) if any
// multi-threaded row fails that determinism check.
//
// Systems: ping | relay:N (N in [2, 64]) | tokenbus:N,PASSES | tracker:FLIPS
//          | random:SEED | lockstep:ROUNDS
// Formulas use the text syntax, e.g.  "K{1} (sent && !K{0} K{1} sent)".
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench/reporter.h"
#include "core/diagram.h"
#include "core/faults.h"
#include "core/fusion.h"
#include "core/knowledge.h"
#include "core/parallel.h"
#include "core/process_chain.h"
#include "core/random_system.h"
#include "core/serialization.h"
#include "protocols/consensus.h"
#include "protocols/gossip.h"
#include "protocols/heartbeat.h"
#include "protocols/lockstep.h"
#include "protocols/relay.h"
#include "protocols/termination.h"
#include "protocols/token_bus.h"
#include "protocols/tracker.h"
#include "serve/serve.h"

namespace hpl::cli {

struct NamedSystem {
  std::unique_ptr<System> system;
  std::vector<Predicate> atoms;
  bool canonicalize = true;
  int max_depth = 32;
};

// Strict decimal integer parse for CLI input.  Unlike std::atoi/std::stoi,
// rejects empty input, non-digits, trailing garbage ("1x"), and values
// outside [min_value, max_value] — each with a diagnostic that names the
// flag or argument (`what`), thrown as ModelError so Main exits non-zero.
long long ParseIntArg(const std::string& what, std::string_view text,
                      long long min_value, long long max_value) {
  long long value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [parsed_to, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range ||
      (ec == std::errc{} && parsed_to == end &&
       (value < min_value || value > max_value)))
    throw ModelError(what + ": '" + std::string(text) + "' is out of range [" +
                     std::to_string(min_value) + ", " +
                     std::to_string(max_value) + "]");
  if (ec != std::errc{} || parsed_to != end)
    throw ModelError(what + ": '" + std::string(text) +
                     "' is not a number");
  return value;
}

// Strict decimal double parse, same contract as ParseIntArg: rejects empty
// input, trailing garbage, and values outside [min_value, max_value].
double ParseDoubleArg(const std::string& what, std::string_view text,
                      double min_value, double max_value) {
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [parsed_to, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || parsed_to != end)
    throw ModelError(what + ": '" + std::string(text) +
                     "' is not a number");
  if (value < min_value || value > max_value)
    throw ModelError(what + ": '" + std::string(text) + "' is out of range [" +
                     std::to_string(min_value) + ", " +
                     std::to_string(max_value) + "]");
  return value;
}

int ParseIntAfter(const std::string& spec, std::size_t pos, int fallback,
                  long long min_value = 0, long long max_value = 1'000'000) {
  if (pos >= spec.size()) return fallback;
  return static_cast<int>(ParseIntArg("system spec '" + spec + "'",
                                      std::string_view(spec).substr(pos),
                                      min_value, max_value));
}

// Builds a system from its spec string; throws ModelError on bad specs.
NamedSystem MakeSystem(const std::string& spec) {
  NamedSystem out;
  if (spec == "ping") {
    out.system = std::make_unique<LambdaSystem>(
        2,
        [](const Computation& x) {
          std::vector<Event> events;
          if (x.CountOn(0) == 0) events.push_back(Send(0, 1, 0, "ping"));
          const Event recv = Receive(1, 0, 0, "ping");
          if (CanExtend(x, recv)) events.push_back(recv);
          return events;
        },
        "ping");
    out.atoms = {Predicate("sent", [](const Computation& x) {
                   for (const Event& e : x.events())
                     if (e.IsSend()) return true;
                   return false;
                 }),
                 Predicate("received", [](const Computation& x) {
                   for (const Event& e : x.events())
                     if (e.IsReceive()) return true;
                   return false;
                 })};
    return out;
  }
  if (spec.rfind("relay:", 0) == 0) {
    const int n = ParseIntAfter(spec, 6, 3, 2, kMaxProcesses);
    auto relay = std::make_unique<protocols::RelaySystem>(n);
    out.atoms = {relay->Fact()};
    out.system = std::move(relay);
    return out;
  }
  if (spec.rfind("tokenbus:", 0) == 0) {
    int n = 5, passes = 4;
    const std::string params = spec.substr(9);
    if (!params.empty()) {
      const auto comma = params.find(',');
      n = static_cast<int>(ParseIntArg("system spec '" + spec + "'",
                                       params.substr(0, comma), 1, 64));
      if (comma != std::string::npos)
        passes = static_cast<int>(ParseIntArg("system spec '" + spec + "'",
                                              params.substr(comma + 1), 0,
                                              1'000'000));
    }
    auto bus = std::make_unique<protocols::TokenBusSystem>(n, passes);
    for (ProcessId p = 0; p < n; ++p) out.atoms.push_back(bus->HoldsToken(p));
    out.system = std::move(bus);
    out.max_depth = 2 * passes + 2;
    return out;
  }
  if (spec.rfind("tracker:", 0) == 0) {
    const int flips = ParseIntAfter(spec, 8, 2);
    auto tracker = std::make_unique<protocols::TrackerSystem>(flips);
    out.atoms = {tracker->Bit()};
    out.system = std::move(tracker);
    out.max_depth = 4 * flips + 2;
    return out;
  }
  if (spec.rfind("random:", 0) == 0) {
    RandomSystemOptions options;
    options.seed = static_cast<std::uint64_t>(ParseIntAfter(spec, 7, 1));
    out.system = std::make_unique<RandomSystem>(options);
    out.atoms = {Predicate::CountOnAtLeast(0, 1), Predicate::Sent(0),
                 Predicate::Received(0)};
    out.max_depth = 24;
    return out;
  }
  if (spec.rfind("lockstep:", 0) == 0) {
    const int rounds = ParseIntAfter(spec, 9, 2);
    auto lockstep = std::make_unique<protocols::LockstepSystem>(rounds);
    out.atoms = {lockstep->Crashed()};
    out.system = std::move(lockstep);
    out.canonicalize = false;
    out.max_depth = 5 * rounds + 2;
    return out;
  }
  throw ModelError("unknown system spec '" + spec + "' (try: hpl systems)");
}

int CmdSystems() {
  std::printf(
      "built-in systems:\n"
      "  ping               two processes, one message\n"
      "  relay:N            N-process knowledge relay (Theorem 5)\n"
      "  tokenbus:N,PASSES  the Section-4.1 token bus\n"
      "  tracker:FLIPS      Section-5 remote bit tracking\n"
      "  random:SEED        seeded scripted-message system\n"
      "  lockstep:ROUNDS    synchronous rounds (Discussion: time)\n");
  return 0;
}

int CmdSpace(const std::string& spec) {
  NamedSystem named = MakeSystem(spec);
  auto space = ComputationSpace::Enumerate(
      *named.system, {.max_depth = named.max_depth,
                      .canonicalize = named.canonicalize});
  std::printf("system: %s\n", named.system->Name().c_str());
  std::printf("computations (up to [D]): %zu\n", space.size());
  std::size_t max_len = 0;
  for (std::size_t id = 0; id < space.size(); ++id)
    max_len = std::max(max_len, space.LengthOf(id));
  std::vector<std::size_t> by_len(max_len + 1, 0);
  for (std::size_t id = 0; id < space.size(); ++id)
    ++by_len[space.LengthOf(id)];
  std::printf("by length:");
  for (std::size_t l = 0; l <= max_len; ++l)
    std::printf(" %zu:%zu", l, by_len[l]);
  std::printf("\n");
  return 0;
}

int CmdDiagram(const std::string& spec) {
  NamedSystem named = MakeSystem(spec);
  auto space = ComputationSpace::Enumerate(
      *named.system, {.max_depth = named.max_depth,
                      .canonicalize = named.canonicalize});
  if (space.size() > 80) {
    std::fprintf(stderr,
                 "space has %zu vertices; diagram limited to 80 — use a "
                 "smaller system\n",
                 space.size());
    return 1;
  }
  auto diagram = IsomorphismDiagram::FromSpace(space);
  std::printf("%s", diagram.ToDot().c_str());
  return 0;
}

int CmdAtoms(const std::string& spec) {
  NamedSystem named = MakeSystem(spec);
  std::printf("atoms for %s:\n", named.system->Name().c_str());
  for (const Predicate& p : named.atoms)
    std::printf("  %s\n", p.name().c_str());
  return 0;
}

ProcessSet ParseSet(const std::string& arg) {
  ProcessSet out;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    auto comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    const std::string token = arg.substr(pos, comma - pos);
    const int id = static_cast<int>(
        ParseIntArg("process set '" + arg + "'", token, 0, kMaxProcesses - 1));
    out.Insert(id);
    pos = comma + 1;
  }
  return out;
}

// The one option set shared by every enumerate-and-query subcommand
// (check, check-at, bench, serve, snapshot save).  One struct and ONE
// parser: each subcommand passes a CliFlagBits mask naming the extras it
// accepts, so a flag that exists but does not apply gets a "not accepted
// by this subcommand" diagnostic instead of "unknown flag", and every
// numeric value goes through the same strict ParseIntArg.
struct CliOptions {
  int threads = 0;            // enumeration workers (0 = hardware)
  int knowledge_threads = 0;  // evaluation workers (0 = hardware)
  bool kernels = true;        // --kernels=on|off: compiled sweep engine
  int max_depth = -1;         // < 0: keep the system's default
  long long max_classes = 0;  // 0: keep the EnumerationLimits default
  bool allow_truncation = false;
  std::vector<ProcessSet> groups;  // --group= [G]-indexes to ensure
  int repeat = 3;                        // --repeat= (bench)
  std::optional<std::string> json_path;  // --json= (check/check-at/bench)
  std::optional<std::string> snapshot;   // --snapshot= (serve)
  // Fault knobs (--drop/--crash/--partition).  On the simulator path
  // (simulate consensus) all three map onto NetworkOptions/FaultEvents; on
  // the enumeration path (check/bench) --crash wraps the system in a
  // CrashFaultSystem and the network-level knobs are rejected with a
  // pointer to the simulator (the enumerated space already contains every
  // loss schedule as an undelivered-message prefix).
  double drop = 0.0;                         // --drop=P, P in [0,1]
  std::vector<sim::FaultEvent> crashes;      // --crash=p[@t] (t -1: unset)
  std::vector<sim::PartitionWindow> partitions;  // --partition=SIDE@B..E
  // Out-of-core segment store knobs (shared by every enumerating
  // subcommand).  A budget of 0 keeps the store fully resident — the
  // default, and bit-for-bit the pre-segmented behavior.
  int segment_shift = 16;          // --segment-shift=N (log2 rows/segment)
  long long residency_budget = 0;  // --residency-budget=BYTES (0: resident)
  std::string spill_dir;           // --spill-dir=PATH ('': private tmp dir)
};

// Which optional extras a subcommand accepts on top of the shared core.
enum CliFlagBits : unsigned {
  kCliJson = 1u << 0,      // --json=PATH
  kCliRepeat = 1u << 1,    // --repeat=K
  kCliSnapshot = 1u << 2,  // --snapshot=PATH
  kCliFaults = 1u << 3,    // --drop= / --crash= / --partition=
};

void RequireFlagAllowed(unsigned allowed, unsigned bit, const char* flag) {
  if ((allowed & bit) == 0)
    throw ModelError(std::string(flag) +
                     " is not accepted by this subcommand");
}

CliOptions ParseCliOptions(int argc, char** argv, int first,
                           unsigned allowed = kCliJson) {
  CliOptions options;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0)
      options.threads = static_cast<int>(
          ParseIntArg("--threads", arg + 10, 0, 4096));
    else if (std::strncmp(arg, "--knowledge-threads=", 20) == 0)
      options.knowledge_threads = static_cast<int>(
          ParseIntArg("--knowledge-threads", arg + 20, 0, 4096));
    else if (std::strncmp(arg, "--kernels=", 10) == 0) {
      const std::string_view value(arg + 10);
      if (value == "on")
        options.kernels = true;
      else if (value == "off")
        options.kernels = false;
      else
        throw ModelError("--kernels: expected 'on' or 'off', got '" +
                         std::string(value) + "'");
    }
    else if (std::strncmp(arg, "--max-depth=", 12) == 0)
      // [1, 65535]: the columnar store's 16-bit splice links cannot hold
      // deeper computations, and depth 0 would enumerate nothing — reject
      // at parse time instead of clamping or failing later.
      options.max_depth = static_cast<int>(
          ParseIntArg("--max-depth", arg + 12, 1, 65535));
    else if (std::strncmp(arg, "--max-classes=", 14) == 0)
      options.max_classes = ParseIntArg("--max-classes", arg + 14, 1,
                                        std::numeric_limits<long long>::max());
    else if (std::strcmp(arg, "--allow-truncation") == 0)
      options.allow_truncation = true;
    else if (std::strncmp(arg, "--segment-shift=", 16) == 0)
      options.segment_shift = static_cast<int>(
          ParseIntArg("--segment-shift", arg + 16, 2, 26));
    else if (std::strncmp(arg, "--residency-budget=", 19) == 0)
      options.residency_budget =
          ParseIntArg("--residency-budget", arg + 19, 1,
                      std::numeric_limits<long long>::max());
    else if (std::strncmp(arg, "--spill-dir=", 12) == 0)
      options.spill_dir = std::string(arg + 12);
    else if (std::strncmp(arg, "--group=", 8) == 0)
      options.groups.push_back(ParseSet(arg + 8));
    else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      RequireFlagAllowed(allowed, kCliRepeat, "--repeat");
      options.repeat = static_cast<int>(
          ParseIntArg("--repeat", arg + 9, 1, 1'000'000));
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      RequireFlagAllowed(allowed, kCliJson, "--json");
      options.json_path = std::string(arg + 7);
    } else if (std::strncmp(arg, "--snapshot=", 11) == 0) {
      RequireFlagAllowed(allowed, kCliSnapshot, "--snapshot");
      options.snapshot = std::string(arg + 11);
    } else if (std::strncmp(arg, "--drop=", 7) == 0) {
      RequireFlagAllowed(allowed, kCliFaults, "--drop");
      options.drop = ParseDoubleArg("--drop", arg + 7, 0.0, 1.0);
    } else if (std::strncmp(arg, "--crash=", 8) == 0) {
      // p[@t]: which process crashes, optionally when (simulator time).
      RequireFlagAllowed(allowed, kCliFaults, "--crash");
      const std::string_view spec(arg + 8);
      const auto at = spec.find('@');
      sim::FaultEvent fault;
      fault.process = static_cast<ProcessId>(ParseIntArg(
          "--crash process", spec.substr(0, at), 0, kMaxProcesses - 1));
      fault.at = at == std::string_view::npos
                     ? -1
                     : ParseIntArg("--crash time", spec.substr(at + 1), 0,
                                   std::numeric_limits<long long>::max());
      options.crashes.push_back(fault);
    } else if (std::strncmp(arg, "--partition=", 12) == 0) {
      // SIDE@BEGIN..END: cut all channels between SIDE (a P0,P1,...
      // process list) and its complement for the time window [BEGIN, END).
      RequireFlagAllowed(allowed, kCliFaults, "--partition");
      const std::string spec(arg + 12);
      const auto at = spec.find('@');
      const auto dots = spec.find("..", at == std::string::npos ? 0 : at);
      if (at == std::string::npos || dots == std::string::npos)
        throw ModelError("--partition: expected SIDE@BEGIN..END, got '" +
                         spec + "'");
      sim::PartitionWindow window;
      window.side = ParseSet(spec.substr(0, at));
      window.begin = ParseIntArg("--partition begin",
                                 spec.substr(at + 1, dots - at - 1), 0,
                                 std::numeric_limits<long long>::max());
      window.end = ParseIntArg("--partition end", spec.substr(dots + 2),
                               0, std::numeric_limits<long long>::max());
      if (window.end < window.begin)
        throw ModelError("--partition: window ends before it begins");
      options.partitions.push_back(window);
    } else {
      throw ModelError(std::string("unknown flag '") + arg + "'");
    }
  }
  return options;
}

// Applies the fault knobs to an enumeration-side subcommand (check/bench):
// --crash wraps the system in a CrashFaultSystem whose failure budget is
// the number of --crash flags and whose candidate set is the processes they
// name.  Crash *times* and the network-level knobs have no meaning in the
// event-structure model — the space explores every crash point, and a lost
// message is just a send whose receive never happens — so they are rejected
// with a pointer to the simulator path instead of being silently ignored.
void ApplyFaultFlags(NamedSystem& named, const CliOptions& flags) {
  if (flags.drop > 0.0 || !flags.partitions.empty())
    throw ModelError(
        "--drop/--partition are network knobs; use 'simulate consensus' "
        "(the enumerated space already contains every loss schedule)");
  if (flags.crashes.empty()) return;
  CrashFaultOptions options;
  options.max_crashes = static_cast<int>(flags.crashes.size());
  for (const sim::FaultEvent& fault : flags.crashes) {
    if (fault.at >= 0)
      throw ModelError("--crash=p@t: crash times are a simulator notion; "
                       "the enumerated space explores every crash point — "
                       "use --crash=" + std::to_string(fault.process));
    if (fault.process >= named.system->NumProcesses())
      throw ModelError("--crash: process " + std::to_string(fault.process) +
                       " is outside " + named.system->Name());
    options.may_crash.Insert(fault.process);
  }
  // Crash markers lengthen runs; keep the base system's horizon reachable.
  named.max_depth += options.max_crashes;
  named.system = std::make_unique<CrashFaultSystem>(std::move(named.system),
                                                    options);
}

// The EnumerationLimits for a system under the given flags.  Every
// enumerating subcommand calls this before it builds or loads the space, so
// it is also where the --group sets are checked against the system.
EnumerationLimits LimitsFor(const NamedSystem& named, const CliOptions& flags) {
  const int num_processes = named.system->NumProcesses();
  for (ProcessSet g : flags.groups)
    if (g.IsEmpty() || !g.IsSubsetOf(ProcessSet::All(num_processes)))
      throw ModelError("--group: '" + g.ToString() +
                       "' is not a non-empty set of the " +
                       std::to_string(num_processes) + " processes of " +
                       named.system->Name());
  EnumerationLimits limits;
  limits.max_depth = flags.max_depth >= 0 ? flags.max_depth : named.max_depth;
  if (flags.max_classes > 0)
    limits.max_classes = static_cast<std::size_t>(flags.max_classes);
  limits.allow_truncation = flags.allow_truncation;
  limits.canonicalize = named.canonicalize;
  limits.num_threads = flags.threads;
  limits.segments.segment_shift = static_cast<unsigned>(flags.segment_shift);
  limits.segments.residency_budget_bytes =
      flags.residency_budget > 0
          ? static_cast<std::uint64_t>(flags.residency_budget)
          : 0;
  limits.segments.spill_dir = flags.spill_dir;
  return limits;
}

// Builds every --group= index; called right after the space is built or
// loaded, so memory stats and saved snapshots include the tables.
void EnsureGroups(const ComputationSpace& space, const CliOptions& flags) {
  for (ProcessSet g : flags.groups) space.EnsureGroupIndex(g);
}

// Bytes of one [G]-table: a class per computation, NumClasses() + 1 CSR
// offsets, and a bucket entry per computation.
std::size_t GroupTableBytes(const Partition& part, std::size_t size) {
  return (2 * size + part.NumClasses() + 1) * sizeof(std::uint32_t);
}

// The group-layer stats of every --group= index: printed on check paths and
// emitted as group_index/ rows in --json.
void PrintGroupStats(const ComputationSpace& space,
                     const std::vector<ProcessSet>& groups) {
  for (ProcessSet g : groups) {
    const Partition part = space.EnsureGroupIndex(g);
    std::printf(
        "group %s: %zu [G]-classes over %zu computations, %.1f KiB\n",
        g.ToString().c_str(), part.NumClasses(), space.size(),
        static_cast<double>(GroupTableBytes(part, space.size())) / 1024.0);
  }
}

void AddGroupRows(bench::JsonReporter& reporter, const NamedSystem& named,
                  const ComputationSpace& space,
                  const std::vector<ProcessSet>& groups) {
  for (ProcessSet g : groups) {
    const Partition part = space.EnsureGroupIndex(g);
    bench::JsonResult row;
    row.name = "group_index/" + named.system->Name() + "/" + g.ToString();
    row.params = {{"group_size", static_cast<double>(g.Size())},
                  {"group_classes", static_cast<double>(part.NumClasses())}};
    row.space_classes = space.size();
    row.bytes_space = GroupTableBytes(part, space.size());
    reporter.Add(std::move(row));
  }
}

// A truncated space under-approximates the quantifier domain, so verdicts
// are approximations; say so loudly on every query path.
void WarnIfTruncated(const ComputationSpace& space) {
  if (space.truncated())
    std::fprintf(stderr,
                 "WARNING: space truncated at max_depth; knowledge verdicts "
                 "are approximations over the enumerated prefix\n");
}

// The space/memo memory gauges, printed and attached to JSON rows.
void PrintMemoryStats(const ComputationSpace::MemoryStats& space_memory,
                      const KnowledgeEvaluator::MemoStats& memo_memory) {
  std::printf("memory:  space %.1f KiB (%.1f B/class, AoS-equivalent %.1f "
              "KiB), memo %.1f KiB\n",
              static_cast<double>(space_memory.bytes_total) / 1024.0,
              space_memory.BytesPerClass(),
              static_cast<double>(space_memory.bytes_aos_equivalent) / 1024.0,
              static_cast<double>(memo_memory.bytes_total) / 1024.0);
  std::printf("kernels: %zu programs, %zu ops, %.1f KiB registers\n",
              memo_memory.kernel_programs, memo_memory.kernel_ops,
              static_cast<double>(memo_memory.bytes_kernel) / 1024.0);
  if (space_memory.bytes_mapped > 0 || space_memory.bytes_spilled > 0)
    std::printf("store:   %.1f KiB resident, %.1f KiB mmapped, %.1f KiB "
                "spilled (%zu segments)\n",
                static_cast<double>(space_memory.bytes_resident) / 1024.0,
                static_cast<double>(space_memory.bytes_mapped) / 1024.0,
                static_cast<double>(space_memory.bytes_spilled) / 1024.0,
                space_memory.segments);
}

// The enumerate/evaluate phase rows shared by check, check-at, and bench.
bench::JsonResult EnumerateRow(const NamedSystem& named,
                               const EnumerationLimits& limits,
                               const ComputationSpace& space,
                               std::int64_t wall_ns, int repeat) {
  bench::JsonResult row;
  row.name = "enumerate/" + named.system->Name();
  row.params = {{"threads",
                 static_cast<double>(internal::ResolveNumThreads(
                     limits.num_threads))},
                {"repeat", static_cast<double>(repeat)},
                {"depth", static_cast<double>(limits.max_depth)},
                {"truncated", space.truncated() ? 1.0 : 0.0}};
  row.wall_ns = wall_ns;
  row.space_classes = space.size();
  row.classes_per_sec = bench::ClassesPerSec(space.size(), wall_ns);
  row.bytes_space = space.MemoryUsage().bytes_total;
  return row;
}

int CmdCheck(const std::string& spec, const std::string& text,
             const CliOptions& flags) {
  const std::optional<std::string>& json_path = flags.json_path;
  NamedSystem named = MakeSystem(spec);
  ApplyFaultFlags(named, flags);
  const EnumerationLimits limits = LimitsFor(named, flags);
  bench::WallTimer enumerate_timer;
  auto space = ComputationSpace::Enumerate(*named.system, limits);
  EnsureGroups(space, flags);
  const std::int64_t enumerate_ns = enumerate_timer.ElapsedNs();
  WarnIfTruncated(space);
  KnowledgeEvaluator eval(space, {.num_threads = flags.knowledge_threads,
                                  .compiled_kernels = flags.kernels});
  FormulaPtr formula = Formula::Parse(text, named.atoms);
  std::printf("system:  %s (%zu computations%s)\n",
              named.system->Name().c_str(), space.size(),
              space.truncated() ? ", TRUNCATED" : "");
  std::printf("formula: %s\n", formula->ToString().c_str());
  bench::WallTimer evaluate_timer;
  const std::span<const std::uint64_t> sat = eval.SatisfyingBits(formula);
  const std::int64_t evaluate_ns = evaluate_timer.ElapsedNs();
  const serve::SatisfyingDigest digest = serve::DigestSatisfying(sat);
  std::vector<std::size_t> first;  // the first 12 satisfying ids
  std::size_t last = 0;
  ForEachSetBit(sat, [&](std::size_t id) {
    if (first.size() < 12) first.push_back(id);
    last = id;
  });
  std::printf("phases:  enumerate %.3f ms, evaluate %.3f ms\n",
              static_cast<double>(enumerate_ns) / 1e6,
              static_cast<double>(evaluate_ns) / 1e6);
  const ComputationSpace::MemoryStats space_memory = space.MemoryUsage();
  const KnowledgeEvaluator::MemoStats memo_memory = eval.MemoryUsage();
  PrintMemoryStats(space_memory, memo_memory);
  PrintGroupStats(space, flags.groups);
  std::printf("holds at %zu/%zu computations\n", digest.count, space.size());
  std::printf("satisfying-hash: %s\n", digest.HashHex().c_str());
  if (digest.count > 0 && digest.count <= 12) {
    for (std::size_t id : first)
      std::printf("  %s\n", space.At(id).ToString().c_str());
  } else if (digest.count > 0) {
    std::printf("  first: %s\n", space.At(first.front()).ToString().c_str());
    std::printf("  last:  %s\n", space.At(last).ToString().c_str());
  }
  if (json_path.has_value()) {
    bench::JsonReporter reporter("cli_check");
    reporter.Add(EnumerateRow(named, limits, space, enumerate_ns,
                              /*repeat=*/1));
    bench::JsonResult evaluate_row;
    evaluate_row.name = "check/" + named.system->Name();
    evaluate_row.params = {
        {"knowledge_threads",
         static_cast<double>(
             internal::ResolveNumThreads(flags.knowledge_threads))},
        {"kernels", flags.kernels ? 1.0 : 0.0},
        {"satisfying", static_cast<double>(digest.count)},
        {"memo_entries", static_cast<double>(eval.memo_size())}};
    evaluate_row.wall_ns = evaluate_ns;
    evaluate_row.space_classes = space.size();
    evaluate_row.bytes_space = space_memory.bytes_total;
    evaluate_row.bytes_memo = memo_memory.bytes_total;
    reporter.Add(std::move(evaluate_row));
    AddGroupRows(reporter, named, space, flags.groups);
    if (!reporter.WriteFile(*json_path)) return 1;
  }
  return 0;
}

int CmdCheckAt(const std::string& spec, const std::string& text,
               const std::string& serialized, const CliOptions& flags) {
  const std::optional<std::string>& json_path = flags.json_path;
  NamedSystem named = MakeSystem(spec);
  const EnumerationLimits limits = LimitsFor(named, flags);
  bench::WallTimer enumerate_timer;
  auto space = ComputationSpace::Enumerate(*named.system, limits);
  EnsureGroups(space, flags);
  const std::int64_t enumerate_ns = enumerate_timer.ElapsedNs();
  WarnIfTruncated(space);
  KnowledgeEvaluator eval(space, {.num_threads = flags.knowledge_threads,
                                  .compiled_kernels = flags.kernels});
  FormulaPtr formula = Formula::Parse(text, named.atoms);
  const Computation at = ParseComputation(serialized);
  const auto id = space.IndexOf(at);
  if (!id.has_value()) {
    if (space.truncated() &&
        at.size() > static_cast<std::size_t>(space.built_depth()))
      // The computation may well belong to the system — the space just
      // stops before it.  Say that instead of the misleading "not in the
      // space", which reads as "this computation is invalid".
      std::fprintf(stderr,
                   "computation has %zu events but the space of %s is only "
                   "built to depth %d; re-run with --max-depth=%zu or "
                   "higher\n",
                   at.size(), named.system->Name().c_str(),
                   space.built_depth(), at.size());
    else
      std::fprintf(stderr,
                   "computation is not in the space of %s: %s\n",
                   named.system->Name().c_str(), at.ToString().c_str());
    return 1;
  }
  bench::WallTimer evaluate_timer;
  const bool verdict = eval.Holds(formula, *id);
  const std::int64_t evaluate_ns = evaluate_timer.ElapsedNs();
  std::printf("at %s:\n  %s  =>  %s\n", at.ToString().c_str(),
              formula->ToString().c_str(), verdict ? "true" : "false");
  std::printf("phases: enumerate %.3f ms, evaluate %.3f ms\n",
              static_cast<double>(enumerate_ns) / 1e6,
              static_cast<double>(evaluate_ns) / 1e6);
  const ComputationSpace::MemoryStats space_memory = space.MemoryUsage();
  const KnowledgeEvaluator::MemoStats memo_memory = eval.MemoryUsage();
  PrintMemoryStats(space_memory, memo_memory);
  PrintGroupStats(space, flags.groups);
  if (json_path.has_value()) {
    bench::JsonReporter reporter("cli_check_at");
    reporter.Add(EnumerateRow(named, limits, space, enumerate_ns,
                              /*repeat=*/1));
    bench::JsonResult evaluate_row;
    evaluate_row.name = "check_at/" + named.system->Name();
    evaluate_row.params = {{"verdict", verdict ? 1.0 : 0.0},
                           {"kernels", flags.kernels ? 1.0 : 0.0},
                           {"memo_entries",
                            static_cast<double>(eval.memo_size())}};
    evaluate_row.wall_ns = evaluate_ns;
    evaluate_row.space_classes = space.size();
    evaluate_row.bytes_space = space_memory.bytes_total;
    evaluate_row.bytes_memo = memo_memory.bytes_total;
    reporter.Add(std::move(evaluate_row));
    AddGroupRows(reporter, named, space, flags.groups);
    if (!reporter.WriteFile(*json_path)) return 1;
  }
  return 0;
}

int CmdSimulate(const std::string& what, std::uint64_t seed,
                const CliOptions& flags) {
  if (what == "consensus") {
    protocols::ConsensusScenario scenario;
    scenario.num_processes = 5;
    scenario.seed = seed;
    scenario.network.drop_probability = flags.drop;
    scenario.network.partitions = flags.partitions;
    for (sim::FaultEvent fault : flags.crashes) {
      if (fault.process >= scenario.num_processes)
        throw ModelError("--crash: process " +
                         std::to_string(fault.process) +
                         " is outside the 5-process consensus scenario");
      if (fault.at < 0) fault.at = 20;  // bare --crash=p: early crash
      scenario.faults.push_back(fault);
    }
    const auto result = protocols::RunConsensusScenario(scenario);
    std::printf("consensus n=%d drop=%.2f crashes=%zu partitions=%zu "
                "seed=%llu:\n",
                scenario.num_processes, flags.drop, flags.crashes.size(),
                flags.partitions.size(),
                static_cast<unsigned long long>(seed));
    for (int p = 0; p < scenario.num_processes; ++p) {
      const std::int64_t decision =
          result.decisions[static_cast<std::size_t>(p)];
      if (decision >= 0)
        std::printf("  p%d decided %lld\n", p,
                    static_cast<long long>(decision));
      else
        std::printf("  p%d undecided (crashed)\n", p);
    }
    std::printf("  rounds=%d last-decision t=%lld messages=%zu "
                "drops=%zu crashes=%zu\n",
                result.max_round,
                static_cast<long long>(result.last_decision_time),
                result.stats.messages_sent,
                result.stats.drops_loss + result.stats.drops_partition,
                result.stats.crashes);
    const bool ok = result.all_correct_decided && result.agreement &&
                    result.validity;
    std::printf("  agreement=%s validity=%s all-correct-decided=%s\n",
                result.agreement ? "yes" : "NO",
                result.validity ? "yes" : "NO",
                result.all_correct_decided ? "yes" : "NO");
    return ok ? 0 : 1;
  }
  // The remaining simulations predate the fault knobs and script their own
  // crashes; rejecting the flags beats silently ignoring them.
  if (flags.drop > 0.0 || !flags.crashes.empty() || !flags.partitions.empty())
    throw ModelError("fault flags only apply to 'simulate consensus'");
  if (what == "termination") {
    protocols::TerminationExperimentOptions options;
    options.seed = seed;
    options.workload.fanout_zero_prob = 0.0;
    for (auto kind : {protocols::DetectorKind::kDijkstraScholten,
                      protocols::DetectorKind::kSafra}) {
      options.detector = kind;
      const auto result = protocols::RunTerminationExperiment(options);
      std::printf("%-18s M=%zu overhead=%zu ratio=%.2f safe=%s\n",
                  protocols::ToString(kind).c_str(),
                  result.underlying_messages, result.overhead_messages,
                  result.overhead_ratio, result.safe ? "yes" : "NO");
    }
    return 0;
  }
  if (what == "gossip") {
    protocols::GossipScenario scenario;
    scenario.seed = seed;
    const auto result = protocols::RunGossipScenario(scenario);
    std::printf("gossip n=%d: %zu messages, spread by t=%lld, "
                "infected==knows: %s\n",
                scenario.num_processes, result.messages,
                static_cast<long long>(result.spread_time),
                result.infection_equals_knowledge ? "yes" : "NO");
    return 0;
  }
  if (what == "heartbeat") {
    protocols::HeartbeatScenario scenario;
    scenario.crash_at = 100;
    scenario.timeout = 60;
    scenario.seed = seed;
    const auto result = protocols::RunHeartbeatScenario(scenario);
    std::printf("heartbeat: crash at 100, timeout 60 -> %s (latency %lld)\n",
                result.suspected ? "suspected" : "missed",
                static_cast<long long>(result.detection_latency));
    return 0;
  }
  std::fprintf(stderr, "unknown simulation '%s'\n", what.c_str());
  return 1;
}

int CmdChains(int n, const std::string& serialized,
              const std::vector<std::string>& stage_args) {
  const Computation z = ParseComputation(serialized);
  std::vector<ProcessSet> stages;
  for (const std::string& arg : stage_args)
    stages.push_back(ProcessSet::Of(
        static_cast<int>(ParseIntArg("chain stage process", arg, 0, n - 1))));
  ChainDetector detector(z, n);
  const auto witness = detector.FindChain(stages);
  if (!witness.has_value()) {
    std::printf("no chain\n");
    return 0;
  }
  std::printf("chain found:\n");
  for (std::size_t i = 0; i < witness->size(); ++i)
    std::printf("  stage %zu: %s\n", i,
                z.at((*witness)[i]).ToString().c_str());
  return 0;
}

int CmdFuse(int n, const std::string& xs, const std::string& ys,
            const std::string& zs, const std::string& pset) {
  const Computation x = ParseComputation(xs);
  const Computation y = ParseComputation(ys);
  const Computation z = ParseComputation(zs);
  const ProcessSet p = ParseSet(pset);
  std::string why;
  const auto fused = FuseTheorem2(x, y, z, p, n, &why);
  if (!fused.has_value()) {
    std::printf("fusion refused: %s\n", why.c_str());
    return 1;
  }
  std::printf("w = %s\n", FormatComputation(fused->fused).c_str());
  std::printf("   (all events on %s from y + all on its complement from z)\n",
              p.ToString().c_str());
  return 0;
}

// Throughput of a snapshot load that took `ns`: the file's size in MB per
// second (0 when the size cannot be read).
double SnapshotMbPerS(const std::string& path, std::int64_t ns) {
  std::error_code error;
  const std::uintmax_t bytes = std::filesystem::file_size(path, error);
  if (error || ns <= 0) return 0.0;
  return static_cast<double>(bytes) / 1e6 / (static_cast<double>(ns) / 1e9);
}

int CmdServe(const std::string& spec, const CliOptions& flags) {
  const std::optional<std::string>& snapshot_path = flags.snapshot;
  NamedSystem named = MakeSystem(spec);
  const EnumerationLimits limits = LimitsFor(named, flags);

  std::optional<SpaceBuilder> builder;
  if (snapshot_path.has_value()) {
    // Probe: load the snapshot when it exists, else enumerate and write it
    // so the NEXT serve (or a snapshot-driven tool) starts warm.  The load
    // goes through LoadSpaceBuilderSnapshot, so a `capped` snapshot comes
    // back with its BFS frontier live and "deepen" requests resume it.
    // System name and process count are validated by the loader.
    std::ifstream probe(*snapshot_path, std::ios::binary);
    if (probe) {
      probe.close();
      bench::WallTimer timer;
      builder = LoadSpaceBuilderSnapshot(*named.system, *snapshot_path,
                                         limits);
      EnsureGroups(builder->space(), flags);
      const std::int64_t ns = timer.ElapsedNs();
      std::fprintf(stderr, "serve: loaded snapshot '%s' (%zu classes, %.3f "
                           "ms, %.1f MB/s)\n",
                   snapshot_path->c_str(), builder->space().size(),
                   static_cast<double>(ns) / 1e6,
                   SnapshotMbPerS(*snapshot_path, ns));
    }
  }
  if (!builder.has_value()) {
    bench::WallTimer timer;
    builder.emplace();
    builder->Build(*named.system, limits);
    EnsureGroups(builder->space(), flags);
    std::fprintf(stderr, "serve: enumerated %zu classes in %.3f ms\n",
                 builder->space().size(),
                 static_cast<double>(timer.ElapsedNs()) / 1e6);
    if (snapshot_path.has_value()) {
      SaveSpaceBuilderSnapshot(*builder, *snapshot_path);
      std::fprintf(stderr, "serve: wrote snapshot '%s'\n",
                   snapshot_path->c_str());
    }
  }
  WarnIfTruncated(builder->space());

  serve::Session session(std::move(*builder), std::move(named.atoms),
                         {.num_threads = flags.knowledge_threads,
                          .compiled_kernels = flags.kernels});
  const SpaceBuilder& served = session.builder();
  std::fprintf(stderr,
               "serve: %s ready (%zu classes, depth %d%s); "
               "newline-delimited JSON requests on stdin, one response per "
               "line on stdout\n",
               served.space().system_name().c_str(), served.space().size(),
               served.built_depth(), served.CanDeepen() ? ", deepenable" : "");
  const std::uint64_t requests = serve::Run(session, std::cin, std::cout);
  std::fprintf(stderr, "serve: done (%llu requests)\n",
               static_cast<unsigned long long>(requests));
  return 0;
}

// --- hpl snapshot save / info / load ----------------------------------------

int CmdSnapshotSave(const std::string& spec, const std::string& path,
                    const CliOptions& flags) {
  NamedSystem named = MakeSystem(spec);
  const EnumerationLimits limits = LimitsFor(named, flags);
  bench::WallTimer enumerate_timer;
  const auto space = ComputationSpace::Enumerate(*named.system, limits);
  EnsureGroups(space, flags);
  const double enumerate_ms =
      static_cast<double>(enumerate_timer.ElapsedNs()) / 1e6;
  WarnIfTruncated(space);
  bench::WallTimer save_timer;
  SaveSpaceSnapshot(space, path);
  std::printf("snapshot: wrote '%s' (version %u)\n", path.c_str(),
              kSpaceSnapshotVersion);
  std::printf("system:   %s, %zu classes%s\n", space.system_name().c_str(),
              space.size(), space.truncated() ? " (TRUNCATED)" : "");
  std::printf("phases:   enumerate %.3f ms, save %.3f ms\n", enumerate_ms,
              static_cast<double>(save_timer.ElapsedNs()) / 1e6);
  return 0;
}

int CmdSnapshotInfo(const std::string& path) {
  const SpaceSnapshotInfo info = ReadSpaceSnapshotInfo(path);
  std::printf("snapshot:      %s\n", path.c_str());
  std::printf("version:       %u\n", info.version);
  std::printf("system:        %s\n", info.system_name.c_str());
  std::printf("processes:     %d\n", info.num_processes);
  std::printf("classes:       %llu%s\n",
              static_cast<unsigned long long>(info.classes),
              info.truncated ? " (TRUNCATED)" : "");
  std::printf("event pool:    %llu events\n",
              static_cast<unsigned long long>(info.pool_events));
  std::printf("group indexes: %llu\n",
              static_cast<unsigned long long>(info.group_indexes));
  std::printf("canonicalize:  %s\n", info.canonicalize ? "yes" : "no");
  std::printf("segments:      %llu across %llu columns (saved at "
              "shift %u: %u class rows/segment)\n",
              static_cast<unsigned long long>(info.segments),
              static_cast<unsigned long long>(info.segment_columns),
              info.segment_shift, 1u << info.segment_shift);
  // Snapshots persist the space only, so report the per-register-plane
  // footprint a compiled sweep of this space will use (one 64-bit word per
  // 64 classes).
  const unsigned long long plane_bytes = ((info.classes + 63) / 64) * 8;
  std::printf("kernels:       %.1f KiB per register plane\n",
              static_cast<double>(plane_bytes) / 1024.0);
  return 0;
}

int CmdSnapshotLoad(const std::string& path) {
  bench::WallTimer timer;
  const auto space = LoadSpaceSnapshot(path);
  const std::int64_t ns = timer.ElapsedNs();
  std::printf("snapshot '%s' verified: %s, %zu classes, %.1f KiB columnar, "
              "loaded in %.3f ms (%.1f MB/s)\n",
              path.c_str(), space.system_name().c_str(), space.size(),
              static_cast<double>(space.MemoryUsage().bytes_total) / 1024.0,
              static_cast<double>(ns) / 1e6, SnapshotMbPerS(path, ns));
  return 0;
}

int CmdBench(const std::string& spec, const CliOptions& flags) {
  const std::optional<std::string>& json_path = flags.json_path;
  NamedSystem named = MakeSystem(spec);
  ApplyFaultFlags(named, flags);
  bench::JsonReporter reporter("cli");
  // Resolve the 0 = hardware-concurrency knobs up front so the JSON records
  // the actual worker counts — BENCH_*.json rows stay comparable across
  // hosts with different core counts.
  EnumerationLimits limits = LimitsFor(named, flags);
  limits.num_threads = internal::ResolveNumThreads(limits.num_threads);
  const int knowledge_threads =
      internal::ResolveNumThreads(flags.knowledge_threads);

  // Phase 1 — enumerate: best-of-`repeat` wall time; the last space is
  // reused for the evaluate phase below.
  std::int64_t enumerate_ns = INT64_MAX;
  std::optional<ComputationSpace> space;
  for (int rep = 0; rep < flags.repeat; ++rep) {
    bench::WallTimer timer;
    space = ComputationSpace::Enumerate(*named.system, limits);
    EnsureGroups(*space, flags);
    enumerate_ns = std::min(enumerate_ns, timer.ElapsedNs());
  }
  WarnIfTruncated(*space);
  const std::size_t classes = space->size();
  const ComputationSpace::MemoryStats space_memory = space->MemoryUsage();
  bench::JsonResult enum_result =
      EnumerateRow(named, limits, *space, enumerate_ns, flags.repeat);
  reporter.Add(enum_result);

  // Phase 2 — evaluate: satisfying set of K{0} atom for every atom.
  KnowledgeEvaluator eval(*space, {.num_threads = knowledge_threads,
                                   .compiled_kernels = flags.kernels});
  bench::WallTimer knowledge_timer;
  std::size_t satisfying = 0;
  std::vector<std::vector<std::size_t>> atom_sets;
  for (const Predicate& atom : named.atoms) {
    atom_sets.push_back(eval.SatisfyingSet(
        Formula::Knows(ProcessSet{0}, Formula::Atom(atom))));
    satisfying += atom_sets.back().size();
  }
  const std::int64_t knowledge_ns = knowledge_timer.ElapsedNs();

  // Built-in determinism check: both phases must reproduce the sequential
  // engines byte for byte.  A violation still writes the --json rows
  // (flagged deterministic=0) but the command exits non-zero, so CI jobs
  // consuming the JSON cannot ship a divergence silently.
  bool deterministic = true;
  if (limits.num_threads != 1) {
    EnumerationLimits seq_limits = limits;
    seq_limits.num_threads = 1;
    const auto seq_space = ComputationSpace::Enumerate(*named.system,
                                                       seq_limits);
    if (seq_space.size() != classes) deterministic = false;
    for (std::size_t id = 0; deterministic && id < classes; ++id)
      if (space->LengthOf(id) != seq_space.LengthOf(id)) deterministic = false;
    for (ProcessId p = 0; deterministic && p < space->num_processes(); ++p) {
      const Partition a = space->PartitionOf(ProcessSet::Of(p));
      const Partition b = seq_space.PartitionOf(ProcessSet::Of(p));
      for (std::size_t id = 0; deterministic && id < classes; ++id)
        if (a.ClassOf(id) != b.ClassOf(id)) deterministic = false;
    }
    // Canonical forms are O(length^2) to materialize; sample them.
    const std::size_t step = std::max<std::size_t>(1, classes / 997);
    for (std::size_t id = 0; deterministic && id < classes; id += step)
      if (!(space->At(id) == seq_space.At(id))) deterministic = false;
    if (!deterministic)
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: enumerate at %d threads diverges "
                   "from the sequential space\n",
                   limits.num_threads);
  }
  // The reference evaluator is sequential AND interpreted, so this pass
  // doubles as the kernel divergence abort: with kernels on it re-derives
  // every verdict through the lazy recursion even at 1 thread.
  if (deterministic && (knowledge_threads != 1 || flags.kernels)) {
    KnowledgeEvaluator seq_eval(
        *space, {.num_threads = 1, .compiled_kernels = false});
    for (std::size_t i = 0; deterministic && i < named.atoms.size(); ++i) {
      if (atom_sets[i] !=
          seq_eval.SatisfyingSet(Formula::Knows(
              ProcessSet{0}, Formula::Atom(named.atoms[i])))) {
        deterministic = false;
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: evaluate at %d threads "
                     "(kernels %s) diverges from the sequential interpreted "
                     "satisfying set of atom '%s'\n",
                     knowledge_threads, flags.kernels ? "on" : "off",
                     named.atoms[i].name().c_str());
      }
    }
  }

  bench::JsonResult know_result;
  know_result.name = "knowledge_sweep/" + named.system->Name();
  know_result.params = {{"atoms", static_cast<double>(named.atoms.size())},
                        {"knowledge_threads",
                         static_cast<double>(knowledge_threads)},
                        {"kernels", flags.kernels ? 1.0 : 0.0},
                        {"satisfying", static_cast<double>(satisfying)},
                        {"memo_entries", static_cast<double>(eval.memo_size())},
                        {"deterministic", deterministic ? 1.0 : 0.0}};
  know_result.wall_ns = knowledge_ns;
  know_result.space_classes = classes;
  know_result.bytes_space = space_memory.bytes_total;
  know_result.bytes_memo = eval.MemoryUsage().bytes_total;
  reporter.Add(know_result);

  std::printf("system:            %s\n", named.system->Name().c_str());
  std::printf("threads:           %d enumerate, %d evaluate (kernels %s)\n",
              limits.num_threads, knowledge_threads,
              flags.kernels ? "on" : "off");
  std::printf("classes:           %zu%s\n", classes,
              space->truncated() ? " (TRUNCATED)" : "");
  std::printf("phase enumerate:   %.3f ms best-of-%d  (%.0f classes/sec)\n",
              static_cast<double>(enumerate_ns) / 1e6, flags.repeat,
              enum_result.classes_per_sec);
  std::printf("phase evaluate:    %.3f ms  (%zu atoms, %zu memo entries)\n",
              static_cast<double>(know_result.wall_ns) / 1e6,
              named.atoms.size(), eval.memo_size());
  PrintMemoryStats(space_memory, eval.MemoryUsage());
  PrintGroupStats(*space, flags.groups);
  if (json_path.has_value() && !reporter.WriteFile(*json_path)) return 1;
  if (!deterministic) return 1;
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hpl systems | space <sys> | diagram <sys> | atoms "
                 "<sys> | check <sys> <formula> | check-at <sys> <formula> "
                 "<comp> | simulate <what> [seed] | bench <sys> [--repeat=K] "
                 "| serve <sys> [--snapshot=PATH] | snapshot save <sys> "
                 "<path> | snapshot info <path> | snapshot load <path>"
                 "\n  check/check-at/bench/serve/snapshot save flags: "
                 "[--threads=N] [--knowledge-threads=N] [--kernels=on|off] "
                 "[--max-depth=N] [--max-classes=N] [--allow-truncation] "
                 "[--group=P0,P1[,...] (a [G]-index built after the space; "
                 "a saved snapshot records the mask, load rebuilds the "
                 "table)] "
                 "[--json=PATH]"
                 "\n  fault knobs (check/bench/simulate consensus): "
                 "[--crash=p[@t]] [--drop=P] [--partition=S@B..E]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "systems") return CmdSystems();
    if (cmd == "space" && argc >= 3) return CmdSpace(argv[2]);
    if (cmd == "diagram" && argc >= 3) return CmdDiagram(argv[2]);
    if (cmd == "atoms" && argc >= 3) return CmdAtoms(argv[2]);
    if (cmd == "check" && argc >= 4)
      return CmdCheck(argv[2], argv[3],
                      ParseCliOptions(argc, argv, 4,
                                      kCliJson | kCliFaults));
    if (cmd == "check-at" && argc >= 5)
      return CmdCheckAt(argv[2], argv[3], argv[4],
                        ParseCliOptions(argc, argv, 5));
    if (cmd == "simulate" && argc >= 3) {
      const bool has_seed = argc >= 4 && argv[3][0] != '-';
      const std::uint64_t seed =
          has_seed ? static_cast<std::uint64_t>(ParseIntArg(
                         "simulate seed", argv[3], 0,
                         std::numeric_limits<long long>::max()))
                   : 1;
      return CmdSimulate(argv[2], seed,
                         ParseCliOptions(argc, argv, has_seed ? 4 : 3,
                                         kCliFaults));
    }
    if (cmd == "chains" && argc >= 5) {
      std::vector<std::string> stages(argv + 4, argv + argc);
      return CmdChains(
          static_cast<int>(ParseIntArg("chains <n>", argv[2], 1,
                                       kMaxProcesses)),
          argv[3], stages);
    }
    if (cmd == "fuse" && argc >= 7)
      return CmdFuse(static_cast<int>(
                         ParseIntArg("fuse <n>", argv[2], 1, kMaxProcesses)),
                     argv[3], argv[4], argv[5], argv[6]);
    if (cmd == "bench" && argc >= 3)
      return CmdBench(argv[2],
                      ParseCliOptions(argc, argv, 3,
                                      kCliJson | kCliRepeat | kCliFaults));
    if (cmd == "serve" && argc >= 3)
      return CmdServe(argv[2], ParseCliOptions(argc, argv, 3, kCliSnapshot));
    if (cmd == "snapshot" && argc >= 4) {
      const std::string sub = argv[2];
      if (sub == "save" && argc >= 5)
        return CmdSnapshotSave(argv[3], argv[4],
                               ParseCliOptions(argc, argv, 5,
                                               /*allowed=*/0));
      if (sub == "info" && argc == 4) return CmdSnapshotInfo(argv[3]);
      if (sub == "load" && argc == 4) return CmdSnapshotLoad(argv[3]);
    }
  } catch (const ModelError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "bad arguments; run without arguments for usage\n");
  return 2;
}

}  // namespace hpl::cli

int main(int argc, char** argv) { return hpl::cli::Main(argc, argv); }
