#include "serve/serve.h"

#include <chrono>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string_view>

#include "core/serialization.h"
#include "serve/json.h"

namespace hpl::serve {
namespace {

// The `,"key":value` fields of one response, in order.
class Fields {
 public:
  Fields& Raw(const char* key, std::string_view value) {
    text_ += ",\"";
    text_ += key;
    text_ += "\":";
    text_ += value;
    return *this;
  }
  template <typename Int>
  Fields& Num(const char* key, Int value) {
    return Raw(key, std::to_string(value));
  }
  Fields& Bool(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  Fields& Str(const char* key, std::string_view value) {
    return Raw(key, "\"" + json::Escape(value) + "\"");
  }
  std::string Take() { return std::move(text_); }

 private:
  std::string text_;
};

// The one response writer: {"ok":...,"v":...[,"op":...]<fields><id>}.
// Errors carry no "op"; `id` is the pre-rendered IdEcho fragment.
std::string Respond(bool ok, std::string_view op, const std::string& fields,
                    const std::string& id) {
  std::string out = ok ? "{\"ok\":true" : "{\"ok\":false";
  out += ",\"v\":" + std::to_string(kServeProtocolVersion);
  if (!op.empty()) {
    out += ",\"op\":\"";
    out += op;
    out += '"';
  }
  return out + fields + id + "}";
}

// The request's "id" member as a `,"id":...` fragment ("" when absent),
// echoed on every response so pipelining clients can match responses to
// requests.  Strings and numbers only; anything else is a protocol error.
std::string IdEcho(const json::Value& request) {
  const json::Value* id = request.Find("id");
  if (id == nullptr) return "";
  if (id->type == json::Value::Type::kString)
    return ",\"id\":\"" + json::Escape(id->string) + "\"";
  if (id->type == json::Value::Type::kNumber) {
    // Integral values in long long range print as integers, the rest in
    // round-trip %.17g form.
    const double n = id->number;
    if (n >= -0x1p63 && n < 0x1p63 &&
        static_cast<double>(static_cast<long long>(n)) == n)
      return ",\"id\":" + std::to_string(static_cast<long long>(n));
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", n);
    return std::string(",\"id\":") + buffer;
  }
  throw ModelError("\"id\" must be a string or a number");
}

const std::string& RequireString(const json::Value& request,
                                 const std::string& key) {
  const json::Value* v = request.Find(key);
  if (v == nullptr || v->type != json::Value::Type::kString)
    throw ModelError("request needs a string field \"" + key + "\"");
  return v->string;
}

// "[item(0),...,item(n-1)]".
template <typename Item>
std::string Array(std::size_t n, Item item) {
  std::string out = "[";
  for (std::size_t i = 0; i < n; ++i) out += (i ? "," : "") + item(i);
  return out + "]";
}

// The per-formula fields of a check response.
Fields CheckResult(const std::vector<std::size_t>& sat, bool with_ids) {
  Fields fields;
  fields.Num("count", sat.size()).Str("hash", SatisfyingHashHex(sat));
  if (with_ids)
    fields.Raw("satisfying", Array(sat.size(), [&](std::size_t i) {
                 return std::to_string(sat[i]);
               }));
  return fields;
}

}  // namespace

// The op handlers: each returns the response fields of a successful request
// and throws on a failing one.
struct SessionOps {
  using Handler = std::string (*)(Session&, const json::Value&);

  static std::string Ping(Session&, const json::Value&) { return ""; }

  static std::string Quit(Session& s, const json::Value&) {
    s.done_ = true;
    return "";
  }

  static std::string Info(Session& s, const json::Value&) {
    const auto memo = s.eval_.MemoryUsage();
    const ComputationSpace& space = s.builder_.space();
    const auto seg = space.SegmentStats();
    return Fields()
        .Str("system", space.system_name())
        .Num("classes", space.size())
        .Bool("truncated", space.truncated())
        .Num("built_depth", space.built_depth())
        .Bool("deepenable", s.builder_.CanDeepen())
        .Num("memo_entries", s.eval_.memo_size())
        .Num("bytes_memo", memo.bytes_total)
        .Num("formulas_interned", s.eval_.interner().size())
        .Num("kernel_programs", memo.kernel_programs)
        .Num("kernel_ops", memo.kernel_ops)
        .Num("bytes_kernel", memo.bytes_kernel)
        .Bool("out_of_core", space.out_of_core())
        .Num("segments", seg.segments)
        .Num("segments_resident", seg.resident_segments)
        .Num("segments_spilled", seg.spilled_segments)
        .Num("bytes_resident", seg.bytes_resident)
        .Num("bytes_mapped", seg.bytes_mapped)
        .Num("bytes_spilled", seg.bytes_spilled)
        .Num("requests", s.requests_)
        .Take();
  }

  // The out-of-core store's residency split: per-state segment counts, the
  // byte ledger and the spill traffic counters.  Meaningful (but
  // all-resident) for a store with no budget too.
  static std::string Residency(Session& s, const json::Value&) {
    const ComputationSpace& space = s.builder_.space();
    const auto seg = space.SegmentStats();
    return Fields()
        .Bool("out_of_core", space.out_of_core())
        .Num("budget_bytes", space.segment_options().residency_budget_bytes)
        .Num("segment_shift", space.segment_options().segment_shift)
        .Num("segments", seg.segments)
        .Num("segments_resident", seg.resident_segments)
        .Num("segments_mapped", seg.mapped_segments)
        .Num("segments_spilled", seg.spilled_segments)
        .Num("bytes_resident", seg.bytes_resident)
        .Num("bytes_mapped", seg.bytes_mapped)
        .Num("bytes_spilled", seg.bytes_spilled)
        .Num("spill_faults", seg.spill_faults)
        .Num("spill_writes", seg.spill_writes)
        .Take();
  }

  static std::string Check(Session& s, const json::Value& request) {
    const json::Value* ids = request.Find("ids");
    const bool with_ids =
        ids != nullptr && ids->type == json::Value::Type::kBool && ids->boolean;
    const json::Value* batch = request.Find("formulas");
    Fields fields;
    fields.Num("classes", s.builder_.space().size());
    if (batch == nullptr) {
      const FormulaPtr f = s.FormulaFor(RequireString(request, "formula"));
      return fields.Take() +
             CheckResult(s.eval_.SatisfyingSet(f), with_ids).Take();
    }
    if (batch->type != json::Value::Type::kArray || batch->array.empty())
      throw ModelError("\"formulas\" must be a non-empty array of strings");
    std::vector<FormulaPtr> formulas;
    formulas.reserve(batch->array.size());
    for (const json::Value& v : batch->array) {
      if (v.type != json::Value::Type::kString)
        throw ModelError("\"formulas\" must be a non-empty array of strings");
      formulas.push_back(s.FormulaFor(v.string));
    }
    // The whole batch runs as ONE fused sweep.
    const auto sets = s.eval_.SatisfyingSets(formulas);
    const std::string results = Array(sets.size(), [&](std::size_t k) {
      return "{" + CheckResult(sets[k], with_ids).Take().substr(1) + "}";
    });
    return fields.Raw("results", results).Take();
  }

  static std::string CheckAt(Session& s, const json::Value& request) {
    const FormulaPtr f = s.FormulaFor(RequireString(request, "formula"));
    const Computation at = ParseComputation(RequireString(request, "at"));
    const ComputationSpace& space = s.builder_.space();
    const auto class_id = space.IndexOf(at);
    if (!class_id.has_value()) {
      if (space.truncated() &&
          at.size() > static_cast<std::size_t>(space.built_depth()))
        throw ModelError("computation has " + std::to_string(at.size()) +
                         " events but the space is only built to depth " +
                         std::to_string(space.built_depth()) +
                         " (send {\"op\":\"deepen\"} or re-serve with a "
                         "larger --max-depth)");
      throw ModelError("computation is not in the space of " +
                       space.system_name());
    }
    return Fields()
        .Bool("verdict", s.eval_.Holds(f, *class_id))
        .Num("class", *class_id)
        .Take();
  }

  static std::string Deepen(Session& s, const json::Value& request) {
    int levels = 1;
    if (const json::Value* v = request.Find("levels"); v != nullptr) {
      if (v->type != json::Value::Type::kNumber ||
          !(v->number >= 1 && v->number <= 65535) ||
          v->number != static_cast<double>(static_cast<int>(v->number)))
        throw ModelError("\"levels\" must be an integer in [1, 65535]");
      levels = static_cast<int>(v->number);
    }
    const auto start = std::chrono::steady_clock::now();
    const std::size_t added = s.builder_.Deepen(levels);
    s.eval_.Refresh();
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    std::fprintf(stderr,
                 "serve: deepen +%d -> depth %d, %zu new classes (%.3f ms)\n",
                 levels, s.builder_.built_depth(), added, elapsed.count());
    return Fields()
        .Num("added", added)
        .Num("classes", s.builder_.space().size())
        .Num("built_depth", s.builder_.built_depth())
        .Bool("complete", s.builder_.complete())
        .Take();
  }
};

namespace {

struct Op {
  const char* name;
  SessionOps::Handler handler;
};

// In name order: the unknown-op error lists the names as they stand here.
constexpr Op kOps[] = {
    {"check", &SessionOps::Check},   {"check-at", &SessionOps::CheckAt},
    {"deepen", &SessionOps::Deepen}, {"info", &SessionOps::Info},
    {"ping", &SessionOps::Ping},     {"quit", &SessionOps::Quit},
    {"residency", &SessionOps::Residency},
};

// Unknown ops get a structured error naming the op, so a client probing for
// capabilities can switch on "unknown_op" instead of parsing the message.
std::string UnknownOpFields(const std::string& op) {
  std::string known;
  for (const Op& row : kOps) {
    if (!known.empty()) known += ", ";
    known += row.name;
  }
  return Fields()
      .Str("error", "unknown op '" + op + "' (" + known + ")")
      .Str("unknown_op", op)
      .Take();
}

}  // namespace

std::string SatisfyingHashHex(const std::vector<std::size_t>& sat) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t id : sat) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(id) >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buffer);
}

Session::Session(SpaceBuilder builder, std::vector<Predicate> atoms,
                 const KnowledgeOptions& options)
    : builder_(std::move(builder)),
      atoms_(std::move(atoms)),
      eval_(builder_.space(), options) {}

FormulaPtr Session::FormulaFor(const std::string& text) {
  const auto it = by_text_.find(text);
  if (it != by_text_.end()) return it->second;
  FormulaPtr f = Formula::Parse(text, atoms_);
  by_text_.emplace(text, f);
  return f;
}

std::string Session::Handle(const std::string& line) {
  std::string id;  // stays "" until the request parses as an object
  try {
    const json::Value request = json::Parse(line);
    if (request.type != json::Value::Type::kObject)
      throw ModelError("request must be a JSON object");
    id = IdEcho(request);
    const std::string& op = RequireString(request, "op");
    ++requests_;
    for (const Op& row : kOps)
      if (op == row.name)
        return Respond(true, op, row.handler(*this, request), id);
    return Respond(false, "", UnknownOpFields(op), id);
  } catch (const std::exception& error) {
    return Respond(false, "", Fields().Str("error", error.what()).Take(), id);
  }
}

std::uint64_t Run(Session& session, std::istream& in, std::ostream& out) {
  std::string line;
  while (!session.done() && std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    out << session.Handle(line) << '\n' << std::flush;
  }
  return session.requests();
}

}  // namespace hpl::serve
