// Technology mapping: Boolean expressions to library gates.
//
// The input function is built into an AND-inverter graph (structural
// hashing, OR via De Morgan), then a phase-aware dynamic program covers it
// with NAND2/NOR2/INV cells: each AND node can be produced inverted by one
// NAND2 (cheap) or non-inverted by a NOR2 over complemented fanins or
// NAND2+INV, whichever costs fewer gates. This is the classic
// inverter-minimizing NAND mapping, which is the natural target for a
// static CNFET library.
#pragma once

#include <string>
#include <vector>

#include "flow/gate_netlist.hpp"
#include "logic/expr.hpp"

namespace cnfet::flow {

/// One named output to synthesize. `inverted` requests NOT expr(x).
struct OutputSpec {
  std::string name;
  logic::Expr expr{logic::Expr::var(0)};
  bool inverted = false;
};

/// Covering objective.
enum class MapCost {
  /// Minimize gate count — the classic inverter-minimizing NAND mapping
  /// the paper's figures are reproduced with (the default).
  kGateCount,
  /// Minimize estimated arrival using the library's NLDM tables: the DP
  /// propagates (arrival, slew) through candidate covers under an assumed
  /// per-gate load, so a slow NOR2 loses to NAND2+INV where the tables say
  /// so. Area (gate count) breaks ties.
  kDelay,
};

struct MapOptions {
  /// Drive strength for the mapped gates (suffix on library lookups).
  double drive = 1.0;
  /// When > 0, gates driving primary outputs are resized to this drive
  /// after covering (the mapper's lightweight output buffering).
  double output_drive = 0.0;
  /// Covering objective (see MapCost).
  MapCost cost = MapCost::kGateCount;
  /// kDelay boundary condition: slew at the primary inputs (s).
  double input_slew = 20e-12;
  /// kDelay load model: assumed output load per gate (F) while real fanout
  /// is still unknown — roughly one sink pin plus wiring.
  double est_load = 2e-15;
};

struct MapResult {
  GateNetlist netlist;
  int nand_count = 0;
  int nor_count = 0;
  int inv_count = 0;

  [[nodiscard]] int total_gates() const {
    return nand_count + nor_count + inv_count;
  }
};

/// Maps outputs over shared primary inputs `input_names`.
[[nodiscard]] MapResult map_expressions(
    const std::vector<OutputSpec>& outputs,
    const std::vector<std::string>& input_names,
    const liberty::Library& library, const MapOptions& options = {});

/// Checks the mapped netlist against the specification on
/// check_patterns(): primary output o against outputs[o] (evaluated
/// word-wise) for each spec given. Exhaustive, hence a proof, up to
/// kExhaustiveInputs inputs; a seeded 4,096-vector sample above. Returns
/// true when every output matches on every pattern.
[[nodiscard]] bool verify_mapping(const MapResult& result,
                                  const std::vector<OutputSpec>& outputs);

}  // namespace cnfet::flow
