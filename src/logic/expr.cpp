#include "logic/expr.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "util/error.hpp"

namespace cnfet::logic {

Expr Expr::var(int index) {
  CNFET_REQUIRE(index >= 0);
  Expr e;
  e.kind_ = Kind::kVar;
  e.var_ = index;
  return e;
}

Expr Expr::make_and(std::vector<Expr> terms) {
  CNFET_REQUIRE(!terms.empty());
  if (terms.size() == 1) return std::move(terms.front());
  Expr e;
  e.kind_ = Kind::kAnd;
  // Flatten nested ANDs so series chains are a single child list.
  for (auto& t : terms) {
    if (t.kind_ == Kind::kAnd) {
      for (auto& c : t.children_) e.children_.push_back(std::move(c));
    } else {
      e.children_.push_back(std::move(t));
    }
  }
  return e;
}

Expr Expr::make_or(std::vector<Expr> terms) {
  CNFET_REQUIRE(!terms.empty());
  if (terms.size() == 1) return std::move(terms.front());
  Expr e;
  e.kind_ = Kind::kOr;
  for (auto& t : terms) {
    if (t.kind_ == Kind::kOr) {
      for (auto& c : t.children_) e.children_.push_back(std::move(c));
    } else {
      e.children_.push_back(std::move(t));
    }
  }
  return e;
}

Expr Expr::make_not(Expr term) {
  // Double negation cancels immediately so generator round-trips through
  // INV chains do not grow the tree.
  if (term.kind_ == Kind::kNot) return std::move(term.children_.front());
  Expr e;
  e.kind_ = Kind::kNot;
  e.children_.push_back(std::move(term));
  return e;
}

int Expr::var_index() const {
  CNFET_REQUIRE(kind_ == Kind::kVar);
  return var_;
}

int Expr::num_literals() const {
  if (kind_ == Kind::kVar) return 1;
  int total = 0;
  for (const auto& c : children_) total += c.num_literals();
  return total;
}

int Expr::num_nodes() const {
  int total = 1;
  for (const auto& c : children_) total += c.num_nodes();
  return total;
}

int Expr::num_vars() const {
  if (kind_ == Kind::kVar) return var_ + 1;
  int n = 0;
  for (const auto& c : children_) n = std::max(n, c.num_vars());
  return n;
}

Expr Expr::dual() const {
  // dual(NOT g) = NOT dual(g); NOT nodes pass through unchanged.
  Expr e;
  e.kind_ = kind_ == Kind::kAnd  ? Kind::kOr
            : kind_ == Kind::kOr ? Kind::kAnd
                                 : kind_;
  e.var_ = var_;
  e.children_.reserve(children_.size());
  for (const auto& c : children_) e.children_.push_back(c.dual());
  return e;
}

TruthTable Expr::truth(int n) const {
  CNFET_REQUIRE(n >= num_vars() && TruthTable::valid_arity(n));
  std::uint64_t vars[TruthTable::kMaxInputs] = {};
  for (int i = 0; i < n; ++i) vars[i] = row_word(i, 0);
  return {n, eval_word(vars)};
}

std::uint64_t Expr::eval_word(const std::uint64_t* vars) const {
  std::uint64_t word = kind_ == Kind::kAnd ? ~0ull : 0;
  switch (kind_) {
    case Kind::kVar:
      return vars[var_];
    case Kind::kAnd:
      for (const auto& c : children_) word &= c.eval_word(vars);
      return word;
    case Kind::kOr:
      for (const auto& c : children_) word |= c.eval_word(vars);
      return word;
    case Kind::kNot:
      return ~children_.front().eval_word(vars);
  }
  throw util::Error("unreachable expr kind");
}

int Expr::stack_depth() const {
  switch (kind_) {
    case Kind::kVar:
      return 1;
    case Kind::kNot:
      throw util::Error(
          "stack_depth: NOT is not realizable in a single series/parallel "
          "plane; map the expression to cells first");
    case Kind::kAnd: {
      int sum = 0;
      for (const auto& c : children_) sum += c.stack_depth();
      return sum;
    }
    case Kind::kOr: {
      int best = 0;
      for (const auto& c : children_) best = std::max(best, c.stack_depth());
      return best;
    }
  }
  throw util::Error("unreachable expr kind");
}

std::string Expr::to_string() const {
  switch (kind_) {
    case Kind::kVar: {
      if (var_ < 26) return std::string(1, static_cast<char>('A' + var_));
      return "x" + std::to_string(var_);
    }
    case Kind::kAnd: {
      std::ostringstream out;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i) out << "*";
        const bool paren = children_[i].kind_ == Kind::kOr;
        if (paren) out << "(";
        out << children_[i].to_string();
        if (paren) out << ")";
      }
      return out.str();
    }
    case Kind::kOr: {
      std::ostringstream out;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i) out << "+";
        out << children_[i].to_string();
      }
      return out.str();
    }
    case Kind::kNot: {
      const Expr& c = children_.front();
      const bool paren = c.kind_ != Kind::kVar;
      return paren ? "!(" + c.to_string() + ")" : "!" + c.to_string();
    }
  }
  throw util::Error("unreachable expr kind");
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::vector<std::string>* names)
      : text_(text), names_(names) {}

  Expr parse() {
    Expr e = parse_or();
    skip_ws();
    if (pos_ != text_.size()) {
      throw util::Error("unexpected trailing input in expression: '" +
                        text_.substr(pos_) + "'");
    }
    return e;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  Expr parse_or() {
    std::vector<Expr> terms;
    terms.push_back(parse_and());
    while (peek() == '+' || peek() == '|') {
      ++pos_;
      terms.push_back(parse_and());
    }
    return Expr::make_or(std::move(terms));
  }

  Expr parse_and() {
    std::vector<Expr> terms;
    terms.push_back(parse_primary());
    for (;;) {
      const char c = peek();
      if (c == '*' || c == '&') {
        ++pos_;
        terms.push_back(parse_primary());
      } else if (c == '(' || std::isalpha(static_cast<unsigned char>(c))) {
        terms.push_back(parse_primary());  // juxtaposition, e.g. "AB"
      } else {
        break;
      }
    }
    return Expr::make_and(std::move(terms));
  }

  Expr parse_primary() {
    const char c = peek();
    if (c == '!' || c == '~') {
      ++pos_;
      return Expr::make_not(parse_primary());
    }
    if (c == '(') {
      ++pos_;
      Expr e = parse_or();
      if (peek() != ')') throw util::Error("expected ')' in expression");
      ++pos_;
      return e;
    }
    if (std::isalpha(static_cast<unsigned char>(c))) {
      std::string name;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        name.push_back(text_[pos_++]);
      }
      // Names of length > 1 are whole identifiers; "ABC" is A*B*C only when
      // all letters are single capitals — keep it simple: single capital
      // letters are variables, multi-character tokens are named variables.
      if (name.size() > 1 &&
          std::all_of(name.begin(), name.end(), [](unsigned char ch) {
            return std::isupper(ch);
          })) {
        std::vector<Expr> vars;
        for (char letter : name) {
          vars.push_back(Expr::var(intern(std::string(1, letter))));
        }
        return Expr::make_and(std::move(vars));
      }
      return Expr::var(intern(name));
    }
    throw util::Error(std::string("unexpected character '") + c +
                      "' in expression");
  }

  int intern(const std::string& name) {
    if (names_ != nullptr) {
      for (std::size_t i = 0; i < names_->size(); ++i) {
        if ((*names_)[i] == name) return static_cast<int>(i);
      }
      names_->push_back(name);
      return static_cast<int>(names_->size() - 1);
    }
    // Without an explicit name map, single capitals map to fixed indices so
    // "C" is always input 2 even if A/B never appear.
    if (name.size() == 1 && name[0] >= 'A' && name[0] <= 'Z') {
      return name[0] - 'A';
    }
    throw util::Error("multi-character variable '" + name +
                      "' requires a name map");
  }

  const std::string& text_;
  std::vector<std::string>* names_;
  std::size_t pos_ = 0;
};

}  // namespace

Expr parse_expr(const std::string& text, std::vector<std::string>* names) {
  return Parser(text, names).parse();
}

}  // namespace cnfet::logic
