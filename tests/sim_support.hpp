// Simulation helpers shared by the gate-level test suites.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/gate_netlist.hpp"

namespace cnfet::test {

/// Input vector of row `row` over `n` inputs: input i is bit i of the row.
inline std::vector<bool> row_bits(std::uint64_t row, std::size_t n) {
  std::vector<bool> bits(n, false);
  for (std::size_t i = 0; i < n; ++i) bits[i] = (row >> i) & 1u;
  return bits;
}

/// Primary-output values for one input vector (simulate() returns every
/// net's value; oracles speak primary outputs).
inline std::vector<bool> po_values(const flow::GateNetlist& netlist,
                                   const std::vector<bool>& inputs) {
  const auto values = netlist.simulate(inputs);
  std::vector<bool> out;
  out.reserve(netlist.outputs().size());
  for (const int po : netlist.outputs()) {
    out.push_back(values[static_cast<std::size_t>(po)]);
  }
  return out;
}

}  // namespace cnfet::test
