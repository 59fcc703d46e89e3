#include "logic/truth_table.hpp"

#include <bit>

namespace cnfet::logic {

TruthTable TruthTable::var(int i, int n) {
  CNFET_REQUIRE(valid_arity(n) && i >= 0 && i < n);
  return {n, row_word(i, 0)};
}

TruthTable TruthTable::constant(bool value, int n) {
  TruthTable t(n);
  if (value) t.bits_ = mask(n);
  return t;
}

std::uint64_t TruthTable::eval_word(const std::uint64_t* in) const {
  // Shannon expansion one input at a time: after folding input i, cof[j]
  // is f on the rows whose inputs above i spell j.
  std::uint64_t cof[1 << kMaxInputs];
  for (std::uint64_t row = 0; row < num_rows(); ++row) {
    cof[row] = 0 - ((bits_ >> row) & 1);
  }
  for (int i = 0; i < n_; ++i) {
    for (std::uint64_t j = 0; j < num_rows() >> (i + 1); ++j) {
      cof[j] = (in[i] & cof[2 * j + 1]) | (~in[i] & cof[2 * j]);
    }
  }
  return cof[0];
}

int TruthTable::count_ones() const {
  return std::popcount(bits_ & mask(n_));
}

bool TruthTable::depends_on(int i) const {
  CNFET_REQUIRE(i >= 0 && i < n_);
  for (std::uint64_t row = 0; row < num_rows(); ++row) {
    if (((row >> i) & 1) == 0 && eval(row) != eval(row | (1ull << i))) {
      return true;
    }
  }
  return false;
}

TruthTable TruthTable::extended(int n) const {
  CNFET_REQUIRE(valid_arity(n) && n >= n_);
  TruthTable t(n);
  for (std::uint64_t row = 0; row < t.num_rows(); ++row) {
    t.set(row, eval(row & (num_rows() - 1)));
  }
  return t;
}

TruthTable TruthTable::permuted(const int* perm) const {
  TruthTable t(n_);
  for (std::uint64_t row = 0; row < num_rows(); ++row) {
    std::uint64_t src = 0;
    for (int j = 0; j < n_; ++j) {
      if ((row >> j) & 1) src |= (1ull << perm[j]);
    }
    t.set(row, eval(src));
  }
  return t;
}

std::string TruthTable::to_string() const {
  std::string s;
  s.reserve(num_rows());
  for (std::uint64_t row = 0; row < num_rows(); ++row) {
    s.push_back(eval(row) ? '1' : '0');
  }
  return s;
}

}  // namespace cnfet::logic
