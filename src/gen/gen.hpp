// Deterministic netlist generators: the at-scale workload family.
//
// The paper's case studies stop at a 13-gate full adder; these generators
// grow that to arithmetic blocks (ripple-carry and carry-lookahead adders,
// array multipliers) and ISCAS-style seeded random DAG logic at 1k-10k
// gates, so the mapper, timing graph, opt passes, placer and signoff can
// be profiled and differentially tested at realistic design sizes.
//
// Every generator is deterministic: the same GenOptions (including the
// seed) produce a byte-identical netlist, gate for gate and name for
// name. Each Generated carries an independent oracle — big-integer
// arithmetic for the adders/multiplier, the recorded op list for the
// random DAG — so a netlist's simulated outputs can be checked against a
// reference that never saw the netlist construction.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flow/gate_netlist.hpp"
#include "flow/mapper.hpp"
#include "liberty/library.hpp"
#include "util/result.hpp"

namespace cnfet::gen {

enum class Family {
  kRippleCarryAdder,   ///< N-bit RCA: 9 NAND2 per bit
  kCarryLookaheadAdder,///< N-bit block-4 CLA over INV/NAND2/NOR2
  kArrayMultiplier,    ///< NxN array multiplier (~11 N^2 gates)
  kRandomDag,          ///< seeded random acyclic INV/NAND2/NOR2 logic
};

[[nodiscard]] const char* to_string(Family family);
[[nodiscard]] util::Result<Family> family_from_string(const std::string& text);

struct GenOptions {
  Family family = Family::kRippleCarryAdder;
  /// Operand width in bits (adders and multiplier).
  int width = 8;
  /// Gate count target (random DAG; exact — the generator emits exactly
  /// this many gates).
  int target_gates = 1000;
  /// Primary-input count (random DAG).
  int num_inputs = 16;
  /// Structure seed (random DAG; ignored by the arithmetic families,
  /// which are fully determined by width).
  std::uint64_t seed = 1;
  /// Drive suffix of the INV/NAND2/NOR2 cells the reference netlist
  /// instantiates. The stock library characterizes the full family at 1X.
  double drive = 1.0;
};

/// Reference function over the primary inputs (in netlist.inputs() order),
/// returning one bool per primary output (in netlist.outputs() order).
using Oracle = std::function<std::vector<bool>(const std::vector<bool>&)>;

struct Generated {
  std::string name;           ///< e.g. "rca16", "mul8", "rand1000_s7"
  flow::GateNetlist netlist;  ///< reference structure over the library
  Oracle oracle;              ///< independent functional reference
};

/// Builds the requested design over `library` (which must carry INV,
/// NAND2 and NOR2 at GenOptions::drive). Deterministic per options.
[[nodiscard]] Generated generate(const liberty::Library& library,
                                 const GenOptions& options);

/// `count` sampled primary-input assignments, deterministic per seed and
/// independent of count (vector i is always the same): the stimulus the
/// differential tests and bench_scale replay.
[[nodiscard]] std::vector<std::vector<bool>> sample_vectors(
    std::size_t num_inputs, int count, std::uint64_t seed);

/// Structural conversion of a reference netlist into mapper input: INV ->
/// NOT, NAND2 -> NOT(AND), NOR2 -> NOT(OR), one OutputSpec per primary
/// output. logic::Expr trees share no subtrees, so reconvergent netlists
/// blow up exponentially — the conversion counts the nodes it creates and
/// throws util::Error beyond `max_nodes`. Mapper-differential tests run at
/// moderate sizes; full 10k-gate flows adopt the reference netlist
/// directly via api::Flow::from_netlist.
[[nodiscard]] std::vector<flow::OutputSpec> to_expressions(
    const flow::GateNetlist& netlist, int max_nodes = 200000);

namespace detail {

/// Shared gate-emission helper for the family implementations: wraps a
/// GateNetlist with INV/NAND2/NOR2 emitters and the derived AND/OR/XOR
/// and full/half-adder compositions, with compact deterministic names.
class Builder {
 public:
  Builder(const liberty::Library& library, double drive);

  [[nodiscard]] flow::GateNetlist& netlist() { return netlist_; }

  [[nodiscard]] int input(const std::string& name);
  void output(int net) { netlist_.mark_output(net); }

  [[nodiscard]] int inv(int a);
  [[nodiscard]] int nand2(int a, int b);
  [[nodiscard]] int nor2(int a, int b);
  [[nodiscard]] int and2(int a, int b) { return inv(nand2(a, b)); }
  [[nodiscard]] int or2(int a, int b) { return inv(nor2(a, b)); }
  /// 4-NAND XOR.
  [[nodiscard]] int xor2(int a, int b);
  /// The classic 9-NAND full adder; returns {sum, carry}.
  [[nodiscard]] std::pair<int, int> full_add(int a, int b, int cin);
  /// Half adder: {sum = a^b, carry = a&b}.
  [[nodiscard]] std::pair<int, int> half_add(int a, int b);

 private:
  [[nodiscard]] int emit(const liberty::LibCell* cell, std::vector<int> ins);

  flow::GateNetlist netlist_;
  const liberty::LibCell* inv_;
  const liberty::LibCell* nand_;
  const liberty::LibCell* nor_;
  int serial_ = 0;
};

/// Family implementations (one translation unit each).
[[nodiscard]] Generated generate_rca(const liberty::Library& library,
                                     const GenOptions& options);
[[nodiscard]] Generated generate_cla(const liberty::Library& library,
                                     const GenOptions& options);
[[nodiscard]] Generated generate_multiplier(const liberty::Library& library,
                                            const GenOptions& options);
[[nodiscard]] Generated generate_random_dag(const liberty::Library& library,
                                            const GenOptions& options);

/// Adds integers (LSB-first bit vectors) — the adder families' oracle.
[[nodiscard]] std::vector<bool> add_bits(const std::vector<bool>& a,
                                         const std::vector<bool>& b,
                                         bool carry_in);
/// Schoolbook multiply (LSB-first) — the multiplier's oracle.
[[nodiscard]] std::vector<bool> multiply_bits(const std::vector<bool>& a,
                                              const std::vector<bool>& b);

}  // namespace detail

}  // namespace cnfet::gen
