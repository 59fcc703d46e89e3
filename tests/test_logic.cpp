// Unit tests for truth tables and SOP/POS expressions.
#include <gtest/gtest.h>

#include "logic/expr.hpp"
#include "logic/truth_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cnfet::logic {
namespace {

TEST(TruthTable, VarProjectsItsInput) {
  const auto a = TruthTable::var(0, 2);
  const auto b = TruthTable::var(1, 2);
  EXPECT_EQ(a.to_string(), "0101");
  EXPECT_EQ(b.to_string(), "0011");
}

TEST(TruthTable, BasicOperators) {
  const auto a = TruthTable::var(0, 2);
  const auto b = TruthTable::var(1, 2);
  EXPECT_EQ((a & b).to_string(), "0001");
  EXPECT_EQ((a | b).to_string(), "0111");
  EXPECT_EQ((a ^ b).to_string(), "0110");
  EXPECT_EQ((~(a & b)).to_string(), "1110");
}

TEST(TruthTable, ConstantAndCounting) {
  EXPECT_TRUE(TruthTable::constant(true, 3).is_constant());
  EXPECT_TRUE(TruthTable::constant(false, 0).is_constant());
  EXPECT_EQ(TruthTable::constant(true, 3).count_ones(), 8);
  EXPECT_EQ(TruthTable::var(2, 3).count_ones(), 4);
}

TEST(TruthTable, DependsOn) {
  const auto f = TruthTable::var(0, 3) & TruthTable::var(2, 3);
  EXPECT_TRUE(f.depends_on(0));
  EXPECT_FALSE(f.depends_on(1));
  EXPECT_TRUE(f.depends_on(2));
}

TEST(TruthTable, ExtendedKeepsFunction) {
  const auto f = TruthTable::var(0, 2) & TruthTable::var(1, 2);
  const auto g = f.extended(4);
  for (std::uint64_t row = 0; row < 16; ++row) {
    EXPECT_EQ(g.eval(row), ((row & 1) != 0) && ((row & 2) != 0));
  }
}

TEST(TruthTable, PermutedSwapsRoles) {
  // f(x0,x1) = x0 AND NOT x1 -> permute inputs -> x1 AND NOT x0.
  const auto f = TruthTable::var(0, 2) & ~TruthTable::var(1, 2);
  const int perm[] = {1, 0};
  const auto g = f.permuted(perm);
  EXPECT_EQ(g, TruthTable::var(1, 2) & ~TruthTable::var(0, 2));
}

// With input i on row_word(i, 0), lane r of eval_word is row r mod 2^n:
// the word-wise evaluator agrees with the table row by row.
TEST(TruthTable, EvalWordOnRowWordsReadsTheTable) {
  std::uint64_t in[TruthTable::kMaxInputs];
  for (int i = 0; i < TruthTable::kMaxInputs; ++i) in[i] = row_word(i, 0);
  util::Xoshiro256 rng(3);
  for (int n = 0; n <= TruthTable::kMaxInputs; ++n) {
    for (int trial = 0; trial < 40; ++trial) {
      const TruthTable f(n, rng());
      const std::uint64_t word = f.eval_word(in);
      for (std::uint64_t r = 0; r < 64; ++r) {
        EXPECT_EQ(((word >> r) & 1) != 0, f.eval(r % f.num_rows()))
            << f.to_string() << " row " << r;
      }
    }
  }
}

TEST(TruthTable, SixInputMaskIsFullWidth) {
  const auto t = TruthTable::constant(true, 6);
  EXPECT_EQ(t.bits(), ~0ull);
  EXPECT_EQ(t.count_ones(), 64);
}

TEST(TruthTable, RejectsBadArity) {
  EXPECT_THROW(TruthTable(7), util::ContractViolation);
  EXPECT_THROW((void)TruthTable::var(2, 2), util::ContractViolation);
}

TEST(Expr, ParsesSopForms) {
  const auto e = parse_expr("A*B+C");
  EXPECT_EQ(e.to_string(), "A*B+C");
  EXPECT_EQ(e.num_literals(), 3);
  EXPECT_EQ(e.num_vars(), 3);
}

TEST(Expr, ParsesJuxtaposedLiterals) {
  const auto e = parse_expr("ABC+D");
  EXPECT_EQ(e.to_string(), "A*B*C+D");
  EXPECT_EQ(e.num_literals(), 4);
}

TEST(Expr, ParsesPosWithParens) {
  const auto e = parse_expr("(A+B+C)*D");
  EXPECT_EQ(e.to_string(), "(A+B+C)*D");
  EXPECT_EQ(e.stack_depth(), 2);
}

TEST(Expr, ParsesAmpersandAndPipe) {
  const auto e = parse_expr("A&B | C");
  EXPECT_EQ(e.to_string(), "A*B+C");
}

TEST(Expr, DualSwapsAndOr) {
  const auto e = parse_expr("A*B+C");
  EXPECT_EQ(e.dual().to_string(), "(A+B)*C");
  // Dual of dual is the original.
  EXPECT_EQ(e.dual().dual().to_string(), e.to_string());
}

TEST(Expr, TruthMatchesSemantics) {
  const auto e = parse_expr("A*B+C");
  const auto t = e.truth(3);
  for (std::uint64_t row = 0; row < 8; ++row) {
    const bool a = row & 1, b = row & 2, c = row & 4;
    EXPECT_EQ(t.eval(row), (a && b) || c) << "row " << row;
  }
}

TEST(Expr, DualComplementLaw) {
  // dual(f)(x) == NOT f(NOT x) for all positive-literal expressions.
  for (const char* text : {"A*B", "A+B", "A*B+C", "(A+B)*(C+D)", "ABC+D",
                           "(A+B+C)*D", "A*B+C*D", "(A+B)*C+D"}) {
    const auto e = parse_expr(text);
    const int n = e.num_vars();
    const auto f = e.truth(n);
    const auto d = e.dual().truth(n);
    for (std::uint64_t row = 0; row < f.num_rows(); ++row) {
      const std::uint64_t flipped = ~row & (f.num_rows() - 1);
      EXPECT_EQ(d.eval(row), !f.eval(flipped))
          << text << " row " << row;
    }
  }
}

TEST(Expr, StackDepthExamples) {
  EXPECT_EQ(parse_expr("A").stack_depth(), 1);
  EXPECT_EQ(parse_expr("A*B*C").stack_depth(), 3);
  EXPECT_EQ(parse_expr("A+B+C").stack_depth(), 1);
  EXPECT_EQ(parse_expr("ABC+D").stack_depth(), 3);
  EXPECT_EQ(parse_expr("(A+B)*(C+D)").stack_depth(), 2);
}

TEST(Expr, NamedVariablesViaMap) {
  std::vector<std::string> names;
  const auto e = parse_expr("sel*din + load", &names);
  EXPECT_EQ(names, (std::vector<std::string>{"sel", "din", "load"}));
  EXPECT_EQ(e.num_vars(), 3);
}

TEST(Expr, FixedLetterIndexWithoutMap) {
  // "C" alone must still be input index 2.
  const auto e = parse_expr("C");
  EXPECT_EQ(e.num_vars(), 3);
  EXPECT_TRUE(e.truth(3).depends_on(2));
}

TEST(Expr, ParseErrors) {
  EXPECT_THROW(parse_expr("A+"), util::Error);
  EXPECT_THROW(parse_expr("(A+B"), util::Error);
  EXPECT_THROW(parse_expr("A)"), util::Error);
  EXPECT_THROW(parse_expr("1+2"), util::Error);
}

}  // namespace
}  // namespace cnfet::logic
