// AND/OR expressions over positive literals.
//
// A static (CMOS-style or CNFET) gate computes out = NOT g(x) where g is the
// *pull-down* function realized by the NFET network: AND = series, OR =
// parallel. The pull-up network realizes the Boolean dual of g with PFETs.
// These expressions are therefore the single source of truth a cell needs:
// netlist construction, Euler-path layout synthesis, and functional
// verification all start from the same tree.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "logic/truth_table.hpp"

namespace cnfet::logic {

/// Immutable AND/OR/NOT/VAR expression tree. Pull-down functions for cell
/// synthesis use only AND/OR over positive literals; NOT nodes exist so
/// multi-level specifications (adders, XOR trees from the netlist
/// generators) can be round-tripped through the mapper, which is
/// phase-aware and absorbs them for free. NOT is rejected by the
/// series/parallel plane builder (stack_depth / cell synthesis).
class Expr {
 public:
  enum class Kind { kVar, kAnd, kOr, kNot };

  [[nodiscard]] static Expr var(int index);
  [[nodiscard]] static Expr make_and(std::vector<Expr> terms);
  [[nodiscard]] static Expr make_or(std::vector<Expr> terms);
  [[nodiscard]] static Expr make_not(Expr term);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] int var_index() const;
  [[nodiscard]] const std::vector<Expr>& children() const { return children_; }

  /// Number of leaf literals (with multiplicity) — equals the number of
  /// transistors needed in one plane.
  [[nodiscard]] int num_literals() const;

  /// Total tree nodes (the generators budget specification size with this:
  /// Expr has no subtree sharing, so conversions must watch for blowup).
  [[nodiscard]] int num_nodes() const;

  /// Highest variable index + 1.
  [[nodiscard]] int num_vars() const;

  /// Boolean dual: swap AND and OR (used to derive the pull-up network).
  [[nodiscard]] Expr dual() const;

  /// Truth table over n inputs (n >= num_vars()).
  [[nodiscard]] TruthTable truth(int n) const;

  /// Word-parallel evaluation, 64 assignments per call: bit b of the
  /// result is the expression with variable i set to bit b of vars[i].
  [[nodiscard]] std::uint64_t eval_word(const std::uint64_t* vars) const;

  /// Longest chain of AND-series levels: the transistor stack depth when
  /// realized as a series/parallel network (sizing needs this).
  [[nodiscard]] int stack_depth() const;

  /// Expression text using variable names A, B, C, ... '*' and '+'.
  [[nodiscard]] std::string to_string() const;

 private:
  Kind kind_ = Kind::kVar;
  int var_ = -1;
  std::vector<Expr> children_;
};

/// Parses expressions such as "A*B+C", "(A+B+C)*D", "A&B | C*D", "!A*B".
/// Variables are single capital letters A..Z mapped to indices 0..25 in
/// order of first appearance, or named explicitly via the `names` output.
/// Grammar: or := and ('+'|'|') and ... ; and := primary (('*'|'&')?
/// primary) ... ; primary := NAME | '(' or ')'.
[[nodiscard]] Expr parse_expr(const std::string& text,
                              std::vector<std::string>* names = nullptr);

}  // namespace cnfet::logic
