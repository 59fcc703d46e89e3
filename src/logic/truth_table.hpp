// Truth tables for single-output Boolean functions of up to 6 variables —
// plenty for standard-cell functions (the widest cell in the kit, AOI31,
// has four inputs) and for 4-feasible technology-mapping cuts.
#pragma once

#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace cnfet::logic {

/// Word `w` of input `i` when rows are enumerated in order: bit b is input
/// i's value in row 64w+b, i.e. bit i of the row index (i < 70).
[[nodiscard]] constexpr std::uint64_t row_word(int i, std::uint64_t w) {
  constexpr std::uint64_t kLane[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  return i < 6 ? kLane[i] : ((w >> (i - 6)) & 1) != 0 ? ~0ull : 0;
}

/// Value-semantic truth table. Bit r of `bits()` is f(r) where input i of
/// row r is bit i of r (input 0 is the least significant).
class TruthTable {
 public:
  static constexpr int kMaxInputs = 6;

  /// Constant-false function of `n` inputs.
  explicit TruthTable(int n = 0) : n_(n) { CNFET_REQUIRE(valid_arity(n)); }

  TruthTable(int n, std::uint64_t bits) : n_(n), bits_(bits & mask(n)) {
    CNFET_REQUIRE(valid_arity(n));
  }

  [[nodiscard]] static bool valid_arity(int n) {
    return n >= 0 && n <= kMaxInputs;
  }

  /// The projection function x_i over n inputs.
  [[nodiscard]] static TruthTable var(int i, int n);
  [[nodiscard]] static TruthTable constant(bool value, int n);

  [[nodiscard]] int num_inputs() const { return n_; }
  [[nodiscard]] std::uint64_t bits() const { return bits_; }
  [[nodiscard]] std::uint64_t num_rows() const { return 1ull << n_; }

  [[nodiscard]] bool eval(std::uint64_t row) const {
    CNFET_REQUIRE(row < num_rows());
    return (bits_ >> row) & 1;
  }

  void set(std::uint64_t row, bool value) {
    CNFET_REQUIRE(row < num_rows());
    if (value) {
      bits_ |= (1ull << row);
    } else {
      bits_ &= ~(1ull << row);
    }
  }

  /// Word-parallel evaluation, 64 rows per call: bit b of the result is f
  /// on the row whose input i is bit b of in[i]. `in` holds num_inputs()
  /// words.
  [[nodiscard]] std::uint64_t eval_word(const std::uint64_t* in) const;

  [[nodiscard]] bool is_constant() const {
    return bits_ == 0 || bits_ == mask(n_);
  }

  /// Number of ON-set rows.
  [[nodiscard]] int count_ones() const;

  /// True when the function actually depends on input i.
  [[nodiscard]] bool depends_on(int i) const;

  friend TruthTable operator~(TruthTable a) {
    return {a.n_, ~a.bits_ & mask(a.n_)};
  }
  friend TruthTable operator&(TruthTable a, TruthTable b) {
    CNFET_REQUIRE(a.n_ == b.n_);
    return {a.n_, a.bits_ & b.bits_};
  }
  friend TruthTable operator|(TruthTable a, TruthTable b) {
    CNFET_REQUIRE(a.n_ == b.n_);
    return {a.n_, a.bits_ | b.bits_};
  }
  friend TruthTable operator^(TruthTable a, TruthTable b) {
    CNFET_REQUIRE(a.n_ == b.n_);
    return {a.n_, a.bits_ ^ b.bits_};
  }
  bool operator==(const TruthTable&) const = default;

  /// Bit string, row 0 first, e.g. "0111" for 2-input NAND.
  [[nodiscard]] std::string to_string() const;

 private:
  [[nodiscard]] static constexpr std::uint64_t mask(int n) {
    return n == 6 ? ~0ull : ((1ull << (1 << n)) - 1);
  }

  int n_ = 0;
  std::uint64_t bits_ = 0;
};

}  // namespace cnfet::logic
