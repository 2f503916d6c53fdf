#include "core/formula.h"

#include <algorithm>
#include <cctype>

namespace hpl {

// Formula's fields are private with only static factories as writers; the
// factories funnel through this builder (a friend of Formula).
struct FormulaBuilder {
  static FormulaPtr Build(FormulaKind kind, Predicate atom, FormulaPtr left,
                          FormulaPtr right, ProcessSet group) {
    auto node = std::shared_ptr<Formula>(new Formula());
    node->kind_ = kind;
    node->height_ = 1 + std::max(left ? left->height_ : 0,
                                 right ? right->height_ : 0);
    node->atom_ = std::move(atom);
    node->left_ = std::move(left);
    node->right_ = std::move(right);
    node->group_ = group;
    return node;
  }
};

FormulaPtr Formula::Atom(Predicate b) {
  if (!b.valid()) throw ModelError("Formula::Atom: empty predicate");
  return FormulaBuilder::Build(FormulaKind::kAtom, std::move(b), nullptr,
                               nullptr, ProcessSet{});
}

FormulaPtr Formula::Not(FormulaPtr f) {
  if (!f) throw ModelError("Formula::Not: null operand");
  return FormulaBuilder::Build(FormulaKind::kNot, Predicate{}, std::move(f),
                               nullptr, ProcessSet{});
}

FormulaPtr Formula::And(FormulaPtr a, FormulaPtr b) {
  if (!a || !b) throw ModelError("Formula::And: null operand");
  return FormulaBuilder::Build(FormulaKind::kAnd, Predicate{}, std::move(a),
                               std::move(b), ProcessSet{});
}

FormulaPtr Formula::Or(FormulaPtr a, FormulaPtr b) {
  if (!a || !b) throw ModelError("Formula::Or: null operand");
  return FormulaBuilder::Build(FormulaKind::kOr, Predicate{}, std::move(a),
                               std::move(b), ProcessSet{});
}

FormulaPtr Formula::Implies(FormulaPtr a, FormulaPtr b) {
  if (!a || !b) throw ModelError("Formula::Implies: null operand");
  return FormulaBuilder::Build(FormulaKind::kImplies, Predicate{},
                               std::move(a), std::move(b), ProcessSet{});
}

FormulaPtr Formula::Knows(ProcessSet p, FormulaPtr f) {
  if (!f) throw ModelError("Formula::Knows: null operand");
  return FormulaBuilder::Build(FormulaKind::kKnows, Predicate{}, std::move(f),
                               nullptr, p);
}

FormulaPtr Formula::Knows(ProcessId p, FormulaPtr f) {
  return Knows(ProcessSet::Of(p), std::move(f));
}

FormulaPtr Formula::Sure(ProcessSet p, FormulaPtr f) {
  if (!f) throw ModelError("Formula::Sure: null operand");
  return FormulaBuilder::Build(FormulaKind::kSure, Predicate{}, std::move(f),
                               nullptr, p);
}

FormulaPtr Formula::Common(ProcessSet g, FormulaPtr f) {
  if (!f) throw ModelError("Formula::Common: null operand");
  if (g.IsEmpty()) throw ModelError("Formula::Common: empty group");
  return FormulaBuilder::Build(FormulaKind::kCommon, Predicate{},
                               std::move(f), nullptr, g);
}

FormulaPtr Formula::Everyone(ProcessSet g, FormulaPtr f) {
  if (!f) throw ModelError("Formula::Everyone: null operand");
  if (g.IsEmpty()) throw ModelError("Formula::Everyone: empty group");
  return FormulaBuilder::Build(FormulaKind::kEveryone, Predicate{},
                               std::move(f), nullptr, g);
}

FormulaPtr Formula::EveryoneIterated(ProcessSet g, int k, FormulaPtr f) {
  if (k < 0) throw ModelError("Formula::EveryoneIterated: negative depth");
  FormulaPtr out = std::move(f);
  for (int i = 0; i < k; ++i) out = Everyone(g, std::move(out));
  return out;
}

FormulaPtr Formula::Possible(ProcessSet p, FormulaPtr f) {
  if (!f) throw ModelError("Formula::Possible: null operand");
  return FormulaBuilder::Build(FormulaKind::kPossible, Predicate{},
                               std::move(f), nullptr, p);
}

FormulaPtr Formula::KnowsChain(const std::vector<ProcessSet>& chain,
                               FormulaPtr f) {
  FormulaPtr out = std::move(f);
  for (auto it = chain.rbegin(); it != chain.rend(); ++it)
    out = Knows(*it, std::move(out));
  return out;
}

std::string Formula::ToString() const {
  // Appends into one string: gcc 12 -O3 flags `"lit" + std::string` with a
  // false -Werror=restrict positive.
  const auto binary = [&](const char* op) {
    std::string out(1, '(');
    out += left_->ToString();
    out += op;
    out += right_->ToString();
    out += ')';
    return out;
  };
  const auto modal = [&](const char* name) {
    std::string out(name);
    out += group_.ToString();
    out += ' ';
    out += left_->ToString();
    return out;
  };
  switch (kind_) {
    case FormulaKind::kAtom:
      return atom_.name();
    case FormulaKind::kNot: {
      std::string out(1, '!');
      out += left_->ToString();
      return out;
    }
    case FormulaKind::kAnd:
      return binary(" && ");
    case FormulaKind::kOr:
      return binary(" || ");
    case FormulaKind::kImplies:
      return binary(" => ");
    case FormulaKind::kKnows:
      return modal("K");
    case FormulaKind::kSure:
      return modal("Sure");
    case FormulaKind::kCommon:
      return modal("CK");
    case FormulaKind::kEveryone:
      return modal("E");
    case FormulaKind::kPossible:
      return modal("M");
  }
  return "?";
}

int Formula::ModalDepth() const {
  const int l = left_ ? left_->ModalDepth() : 0;
  const int r = right_ ? right_->ModalDepth() : 0;
  const int sub = std::max(l, r);
  switch (kind_) {
    case FormulaKind::kKnows:
    case FormulaKind::kSure:
    case FormulaKind::kCommon:
    case FormulaKind::kEveryone:
    case FormulaKind::kPossible:
      return sub + 1;
    default:
      return sub;
  }
}

// ---------------------------------------------------------------------------
// Parser for the text syntax.
// ---------------------------------------------------------------------------
namespace {

class Parser {
 public:
  Parser(const std::string& text, const std::vector<Predicate>& atoms)
      : text_(text), atoms_(atoms) {}

  FormulaPtr Parse() {
    FormulaPtr f = ParseImplies();
    SkipSpace();
    if (pos_ != text_.size())
      throw ModelError("Formula parse: trailing input at " +
                       std::to_string(pos_));
    return f;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_])))
      ++pos_;
  }

  [[noreturn]] static void TooDeep() {
    throw ModelError("Formula parse: formula deeper than the limit of " +
                     std::to_string(kMaxFormulaHeight) + " levels");
  }

  static FormulaPtr Bounded(FormulaPtr f) {
    if (f->Height() > kMaxFormulaHeight) TooDeep();
    return f;
  }

  bool Eat(const std::string& token) {
    SkipSpace();
    if (text_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  // implies is right-associative and lowest precedence; the chain folds
  // from the right without recursing.
  FormulaPtr ParseImplies() {
    std::vector<FormulaPtr> operands{ParseOr()};
    while (Eat("=>")) operands.push_back(ParseOr());
    FormulaPtr f = operands.back();
    for (auto it = operands.rbegin() + 1; it != operands.rend(); ++it)
      f = Bounded(Formula::Implies(*it, f));
    return f;
  }

  FormulaPtr ParseOr() {
    FormulaPtr lhs = ParseAnd();
    while (Eat("||")) lhs = Bounded(Formula::Or(lhs, ParseAnd()));
    return lhs;
  }

  FormulaPtr ParseAnd() {
    FormulaPtr lhs = ParseUnary();
    while (Eat("&&")) lhs = Bounded(Formula::And(lhs, ParseUnary()));
    return lhs;
  }

  // Each '!', modal operator and '(' is one level of recursion here; a
  // parser that threw is discarded, so only success paths restore depth_.
  FormulaPtr ParseUnary() {
    if (++depth_ > kMaxFormulaHeight) TooDeep();
    FormulaPtr f = Bounded(ParseUnaryOperand());
    --depth_;
    return f;
  }

  FormulaPtr ParseUnaryOperand() {
    SkipSpace();
    if (Eat("!")) return Formula::Not(ParseUnary());
    // The group must be parsed before the operand (argument evaluation
    // order is unspecified, so sequence explicitly).
    if (Eat("CK")) {
      const ProcessSet group = ParseGroup();
      return Formula::Common(group, ParseUnary());
    }
    if (Eat("E{")) {
      --pos_;  // give the '{' back to ParseGroup
      const ProcessSet group = ParseGroup();
      return Formula::Everyone(group, ParseUnary());
    }
    if (Eat("M{")) {
      --pos_;
      const ProcessSet group = ParseGroup();
      return Formula::Possible(group, ParseUnary());
    }
    if (Eat("Sure")) {
      const ProcessSet group = ParseGroup();
      return Formula::Sure(group, ParseUnary());
    }
    if (Eat("K")) {
      const ProcessSet group = ParseGroup();
      return Formula::Knows(group, ParseUnary());
    }
    if (Eat("(")) {
      FormulaPtr f = ParseImplies();
      if (!Eat(")")) throw ModelError("Formula parse: expected ')'");
      return f;
    }
    return ParseAtom();
  }

  ProcessSet ParseGroup() {
    if (!Eat("{")) throw ModelError("Formula parse: expected '{'");
    ProcessSet set;
    for (;;) {
      SkipSpace();
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      if (pos_ == start) throw ModelError("Formula parse: expected process id");
      set.Insert(std::stoi(text_.substr(start, pos_ - start)));
      if (Eat(",")) continue;
      if (Eat("}")) break;
      throw ModelError("Formula parse: expected ',' or '}'");
    }
    return set;
  }

  FormulaPtr ParseAtom() {
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_'))
      ++pos_;
    if (pos_ == start)
      throw ModelError("Formula parse: expected atom at " +
                       std::to_string(pos_));
    const std::string name = text_.substr(start, pos_ - start);
    if (name == "true") return Formula::Atom(Predicate::True());
    if (name == "false") return Formula::Atom(Predicate::False());
    for (const Predicate& p : atoms_)
      if (p.name() == name) return Formula::Atom(p);
    throw ModelError("Formula parse: unknown atom '" + name + "'");
  }

  const std::string& text_;
  const std::vector<Predicate>& atoms_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

FormulaPtr Formula::Parse(const std::string& text,
                          const std::vector<Predicate>& atoms) {
  return Parser(text, atoms).Parse();
}

// ---------------------------------------------------------------------------
// FormulaInterner
// ---------------------------------------------------------------------------
namespace {

// Rebuilds `f` with canonical children (used when a child interned to a
// different node than the one `f` holds).
FormulaPtr Rebuild(const Formula& f, FormulaPtr l, FormulaPtr r) {
  switch (f.kind()) {
    case FormulaKind::kAtom:
      return Formula::Atom(f.atom());
    case FormulaKind::kNot:
      return Formula::Not(std::move(l));
    case FormulaKind::kAnd:
      return Formula::And(std::move(l), std::move(r));
    case FormulaKind::kOr:
      return Formula::Or(std::move(l), std::move(r));
    case FormulaKind::kImplies:
      return Formula::Implies(std::move(l), std::move(r));
    case FormulaKind::kKnows:
      return Formula::Knows(f.group(), std::move(l));
    case FormulaKind::kSure:
      return Formula::Sure(f.group(), std::move(l));
    case FormulaKind::kCommon:
      return Formula::Common(f.group(), std::move(l));
    case FormulaKind::kEveryone:
      return Formula::Everyone(f.group(), std::move(l));
    case FormulaKind::kPossible:
      return Formula::Possible(f.group(), std::move(l));
  }
  throw ModelError("FormulaInterner: unknown formula kind");
}

void AppendRaw(std::string& key, const void* bytes, std::size_t size) {
  key.append(static_cast<const char*>(bytes), size);
}

}  // namespace

FormulaPtr FormulaInterner::Intern(const FormulaPtr& f) {
  if (!f) throw ModelError("FormulaInterner::Intern: null formula");
  return InternNode(f);
}

FormulaPtr FormulaInterner::InternNode(const FormulaPtr& f) {
  auto hit = by_node_.find(f.get());
  if (hit != by_node_.end()) return hit->second.canonical;

  FormulaPtr l = f->left() ? InternNode(f->left()) : nullptr;
  FormulaPtr r = f->right() ? InternNode(f->right()) : nullptr;

  // Structural key: kind + group bits, then the atom name (leaves) or the
  // canonical child pointers (interior nodes) — children are already
  // canonical, so structural equality reduces to pointer equality one level
  // down.  Canonical pointers are retained forever, so they are never
  // reused for a different node.
  std::string key;
  key.push_back(static_cast<char>(f->kind()));
  const std::uint64_t bits = f->group().bits();
  AppendRaw(key, &bits, sizeof(bits));
  if (f->kind() == FormulaKind::kAtom) {
    key += f->atom().name();
  } else {
    const Formula* lp = l.get();
    const Formula* rp = r.get();
    AppendRaw(key, &lp, sizeof(lp));
    AppendRaw(key, &rp, sizeof(rp));
  }

  FormulaPtr canonical;
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    canonical = it->second;
  } else {
    canonical = (l.get() == f->left().get() && r.get() == f->right().get())
                    ? f
                    : Rebuild(*f, std::move(l), std::move(r));
    by_key_.emplace(std::move(key), canonical);
  }
  by_node_.emplace(f.get(), Seen{f, canonical});
  if (canonical.get() != f.get())
    by_node_.emplace(canonical.get(), Seen{canonical, canonical});
  return canonical;
}

std::size_t FormulaInterner::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, node] : by_key_)
    bytes += key.capacity() + sizeof(node) + sizeof(Formula);
  bytes += by_node_.size() * (sizeof(const Formula*) + sizeof(Seen));
  return bytes;
}

}  // namespace hpl
