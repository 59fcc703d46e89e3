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

std::string TruthTable::to_string() const {
  std::string s;
  s.reserve(num_rows());
  for (std::uint64_t row = 0; row < num_rows(); ++row) {
    s.push_back(eval(row) ? '1' : '0');
  }
  return s;
}

}  // namespace cnfet::logic
