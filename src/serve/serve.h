// The NDJSON query service behind `hpl_cli serve`: one JSON request per
// input line, one single-line JSON response per request.
//
// Requests (each may carry an "id", echoed on its response):
//   {"op":"check","formula":"K{0} b"}          satisfying set: count + hash
//   {"op":"check","formulas":[...]}            a batch, ONE fused sweep
//   {"op":"check","formula":...,"ids":true}    ... plus the class ids
//   {"op":"check-at","formula":...,"at":"0>1:0/ping ..."}
//   {"op":"deepen","levels":N}                 grow the space N BFS levels
//   {"op":"info"} {"op":"residency"} {"op":"ping"} {"op":"quit"}
//
// Every response is {"ok":...,"v":kServeProtocolVersion,...} and echoes the
// request's "id" (string or number) — errors too, once the request parsed
// as an object.  A failing request gets {"ok":false,...,"error":"..."} and
// the session keeps serving.  The response bytes are deterministic: timing
// goes to stderr, never into a response.
#ifndef HPL_SERVE_SERVE_H_
#define HPL_SERVE_SERVE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/formula.h"
#include "core/knowledge.h"
#include "core/space.h"

namespace hpl::serve {

inline constexpr int kServeProtocolVersion = 3;

// FNV-1a over the satisfying class ids (8 little-endian bytes each), as 16
// hex digits: a stable fingerprint of a satisfying set.  `hpl_cli check`
// prints it and serve returns it as "hash", so "serve verdicts equal a
// standalone check" is testable by comparing two short strings.
std::string SatisfyingHashHex(const std::vector<std::size_t>& sat);

// The long-lived state behind one serve process.  The space lives inside a
// resumable SpaceBuilder so "deepen" grows it in place, and one
// KnowledgeEvaluator over it keeps its memo planes warm across requests;
// after a Deepen, Refresh() re-syncs them instead of rebuilding.  The
// evaluator interns every formula structurally, so the hundredth
// "K{0} sent" lands on the first one's memo rows and kernel program; the
// session only caches request text -> parsed formula to skip re-parsing.
class Session {
 public:
  // `builder`'s system must outlive the session (Deepen enumerates it).
  Session(SpaceBuilder builder, std::vector<Predicate> atoms,
          const KnowledgeOptions& options);

  // One request line -> one response line (without the newline).  Never
  // throws for a bad request: the error becomes the response.
  std::string Handle(const std::string& line);

  const SpaceBuilder& builder() const noexcept { return builder_; }
  // Requests that named an op, known or not.
  std::uint64_t requests() const noexcept { return requests_; }
  // True once a quit request was answered.
  bool done() const noexcept { return done_; }

 private:
  friend struct SessionOps;

  FormulaPtr FormulaFor(const std::string& text);

  SpaceBuilder builder_;
  std::vector<Predicate> atoms_;
  KnowledgeEvaluator eval_;
  std::unordered_map<std::string, FormulaPtr> by_text_;
  std::uint64_t requests_ = 0;
  bool done_ = false;
};

// Answers `in` line by line until end of input or a quit request, writing
// each response to `out` followed by a newline and a flush.  Blank lines
// get no response.  Returns the session's request count.
std::uint64_t Run(Session& session, std::istream& in, std::ostream& out);

}  // namespace hpl::serve

#endif  // HPL_SERVE_SERVE_H_
