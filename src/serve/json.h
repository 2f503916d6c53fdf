// The one JSON codec of the repo: a small strict parser and a string
// escaper, shared by the serve protocol (serve.h) and the bench reporter
// (bench/reporter.h).  It has no dependency on the hpl core libraries so
// any tool can link it.
//
// Parse accepts objects, arrays, strings with the standard escapes,
// numbers, true/false/null.  Malformed input throws std::runtime_error
// with a "bad JSON: ..." message; so does a document nesting arrays and
// objects deeper than kMaxDepth, which keeps a hostile line like 100,000
// '[' from overflowing the stack.  Object members keep their document
// order (duplicates included), so callers can check a fixed key order.
#ifndef HPL_SERVE_JSON_H_
#define HPL_SERVE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hpl::json {

// Deepest array/object nesting Parse accepts.  Serve requests nest 2 deep,
// bench reports 4.
inline constexpr int kMaxDepth = 64;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> members;

  // First member with the key, or null (objects only).
  const Value* Find(std::string_view key) const;
};

// Parses exactly one JSON document (surrounding whitespace allowed).
// `\u` escapes above 0x7f are rejected: every text this repo exchanges is
// ASCII, so no UTF-8 encoder is carried for input that cannot occur.
Value Parse(const std::string& text);

// The body of a JSON string literal for `s` (no surrounding quotes).
std::string Escape(std::string_view s);

}  // namespace hpl::json

#endif  // HPL_SERVE_JSON_H_
