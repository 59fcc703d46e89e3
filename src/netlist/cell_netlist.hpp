// Transistor-level representation of a static logic cell, plus a
// switch-level evaluator.
//
// The evaluator is the functional ground truth of the whole kit: layout
// immunity is *defined* as "for every realizable stray CNT, superimposing
// the stray devices on the cell netlist leaves the evaluated function
// unchanged with no supply short" — so stray devices and rail shorts are
// first-class citizens here, not an afterthought.
//
// Evaluation is bit-parallel: each device is a ConductionEdge carrying the
// mask of input rows (64 per block) in which it conducts, and one flood
// gives every net's VDD and GND reach in all of them. A truth table has at
// most 64 rows, so one flood checks a whole cell function.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "logic/expr.hpp"
#include "logic/truth_table.hpp"

namespace cnfet::netlist {

/// Channel polarity. In CNFET cells the polarity follows the doping of the
/// source/drain CNT segments (p+ segments form p-FETs).
enum class FetType { kP, kN };

using NetId = int;

/// One field-effect transistor. Source/drain are interchangeable.
struct Fet {
  FetType type = FetType::kN;
  int gate_input = 0;       ///< index of the controlling cell input
  NetId a = 0;              ///< one channel terminal
  NetId b = 0;              ///< the other channel terminal
  double width_lambda = 4;  ///< drawn channel width in lambda
};

/// Zero-resistance connection between two nets (a fully doped stray CNT
/// bridging two contacts).
struct RailShort {
  NetId a = 0;
  NetId b = 0;
};

/// Logic level observed at a net by the switch-level evaluator.
enum class Level { kLow, kHigh, kFloat, kFight };

[[nodiscard]] const char* to_string(Level level);

/// Result of exhaustively evaluating a cell against its specification.
struct FunctionalReport {
  bool ok = true;
  std::uint64_t failing_row = 0;  ///< first failing input vector
  Level observed = Level::kFloat;
  bool expected_high = false;
  bool supply_short = false;

  [[nodiscard]] std::string to_string() const;
};

/// Rows of the 64-row input block `block` (bit r stands for input row
/// 64 * block + r) in which a FET conducts: an N-FET where its gate input
/// is 1, a P-FET where it is 0. Inputs 0-5 vary within a block; higher
/// inputs are constant across it.
[[nodiscard]] inline std::uint64_t conducting_rows(FetType type,
                                                   int gate_input,
                                                   std::uint64_t block) {
  const std::uint64_t high = logic::row_word(gate_input, block);
  return type == FetType::kN ? high : ~high;
}

/// A potential conduction path between two nets (a FET channel or a
/// short) and the rows of one 64-row input block in which it conducts.
struct ConductionEdge {
  NetId a = 0;
  NetId b = 0;
  std::uint64_t rows = 0;
};

/// Per-net supply reach over one 64-row block: bit r of from_vdd (from_gnd)
/// is set when the net connects to VDD (GND) in row r.
struct RowReach {
  std::uint64_t from_vdd = 0;
  std::uint64_t from_gnd = 0;
};

/// A single-output static cell: FETs between the fixed rails/output nets and
/// optional internal nets, controlled by `num_inputs` input signals.
class CellNetlist {
 public:
  static constexpr NetId kGnd = 0;
  static constexpr NetId kVdd = 1;
  static constexpr NetId kOut = 2;

  explicit CellNetlist(int num_inputs);

  [[nodiscard]] int num_inputs() const { return num_inputs_; }
  [[nodiscard]] int num_nets() const { return static_cast<int>(net_names_.size()); }
  [[nodiscard]] const std::string& net_name(NetId id) const;

  /// Adds an internal net and returns its id.
  NetId add_net(const std::string& name);

  void add_fet(Fet fet);
  void add_short(RailShort s);

  [[nodiscard]] const std::vector<Fet>& fets() const { return fets_; }
  [[nodiscard]] const std::vector<RailShort>& shorts() const {
    return shorts_;
  }

  /// FETs of one polarity (the PUN is the P plane, the PDN the N plane).
  [[nodiscard]] std::vector<Fet> plane_fets(FetType type) const;

  /// Every FET channel and short as a ConductionEdge over 64-row block `block`.
  [[nodiscard]] std::vector<ConductionEdge> conduction_edges(
      std::uint64_t block = 0) const;

  /// Switch-level value at `net` for the given input vector (bit i of
  /// `input_row` drives input i).
  [[nodiscard]] Level evaluate(std::uint64_t input_row,
                               NetId net = kOut) const;

  /// True when VDD and GND are connected through ON devices/shorts.
  [[nodiscard]] bool has_supply_short(std::uint64_t input_row) const;

  /// Exhaustive check of OUT against `expected` over all input vectors:
  /// requires a clean High/Low matching the table and no supply short.
  [[nodiscard]] FunctionalReport check_function(
      const logic::TruthTable& expected) const;

 private:
  int num_inputs_;
  std::vector<std::string> net_names_;
  std::vector<Fet> fets_;
  std::vector<RailShort> shorts_;
};

/// The switch-level kernel. Floods VDD and GND over `edges` among
/// `num_nets` nets for all 64 rows of a block at once, relaxing
/// reach[b] |= reach[a] & rows (both directions) until nothing changes.
/// `reach` is resized to `num_nets` and overwritten; with warm capacity
/// the call allocates nothing.
void flood_rows(std::span<const ConductionEdge> edges, int num_nets,
                std::vector<RowReach>& reach);

/// Judges OUT against `expected` from the block-0 reach masks of a flood:
/// every row needs a clean High/Low matching the table and no supply
/// short. The first failing row is reported.
[[nodiscard]] FunctionalReport judge_rows(std::span<const RowReach> reach,
                                          const logic::TruthTable& expected);

/// Options controlling transistor sizing during cell construction.
struct SizingRule {
  /// Base (unit) widths per plane, in lambda.
  double wp_base = 4.0;
  double wn_base = 4.0;
  /// When true, every device in a series path of length k is drawn k times
  /// wider so the worst-case path resistance matches a single unit device
  /// (standard static-gate practice; the paper sizes NAND3 n-FETs 3x).
  bool upsize_series = true;
  /// Devices wider than this are folded into parallel fingers (standard
  /// library practice; it is what keeps high-drive cells near the
  /// standard height instead of growing arbitrarily tall strips).
  /// Disabled by default: Table-1-style width sweeps use unfolded strips.
  double max_finger_width_lambda = 1e9;
};

/// Builds the canonical static realization of out = NOT pdn_expr(x):
/// N-plane implements pdn_expr between OUT and GND (AND = series,
/// OR = parallel), P-plane implements its Boolean dual between VDD and OUT.
[[nodiscard]] CellNetlist build_static_cell(const logic::Expr& pdn_expr,
                                            const SizingRule& sizing = {});

}  // namespace cnfet::netlist
