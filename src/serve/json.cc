#include "serve/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace hpl::json {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::runtime_error("bad JSON: " + what);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value Parse() {
    Value v = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) Fail("trailing characters after value");
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n'))
      ++pos_;
  }
  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end");
    return text_[pos_];
  }
  void Expect(char c) {
    if (Peek() != c)
      Fail(std::string("expected '") + c + "' at offset " +
           std::to_string(pos_));
    ++pos_;
  }
  bool Literal(std::string_view word) {
    if (std::string_view(text_).substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Value ParseValue() {
    SkipSpace();
    const char c = Peek();
    Value v;
    if (c == '{' || c == '[') {
      if (++depth_ > kMaxDepth)
        Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      v = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return v;
    }
    if (c == '"') {
      v.type = Value::Type::kString;
      v.string = ParseString();
      return v;
    }
    if (Literal("true")) {
      v.type = Value::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (Literal("false")) {
      v.type = Value::Type::kBool;
      return v;
    }
    if (Literal("null")) return v;
    if (c == '-' || (c >= '0' && c <= '9')) {
      // `text_` is a std::string, so strtod stops at its terminator.
      v.type = Value::Type::kNumber;
      const char* begin = text_.c_str() + pos_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) Fail("malformed number");
      pos_ += static_cast<std::size_t>(end - begin);
      return v;
    }
    Fail(std::string("unexpected character '") + c + "' at offset " +
         std::to_string(pos_));
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        Fail("control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          const char* hex = text_.data() + pos_;
          const auto [end, ec] = std::from_chars(hex, hex + 4, code, 16);
          if (ec != std::errc{} || end != hex + 4)
            Fail("bad hex digit in \\u escape");
          pos_ += 4;
          if (code > 0x7f) Fail("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          Fail(std::string("unknown escape '\\") + e + "'");
      }
    }
  }

  Value ParseArray() {
    Expect('[');
    Value v;
    v.type = Value::Type::kArray;
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(ParseValue());
      SkipSpace();
      const char c = Peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  Value ParseObject() {
    Expect('{');
    Value v;
    v.type = Value::Type::kObject;
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      SkipSpace();
      std::string key = ParseString();
      SkipSpace();
      Expect(':');
      v.members.emplace_back(std::move(key), ParseValue());
      SkipSpace();
      const char c = Peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Value* Value::Find(std::string_view key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

Value Parse(const std::string& text) { return Parser(text).Parse(); }

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace hpl::json
