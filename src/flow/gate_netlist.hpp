// Gate-level netlists over a characterized library: the object the paper's
// "logic-to-GDSII" flow synthesizes, places and times.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "liberty/library.hpp"

namespace cnfet::flow {

/// One placed-able logic gate instance.
struct Gate {
  const liberty::LibCell* cell = nullptr;
  std::vector<int> inputs;  ///< net ids, in cell pin order
  int output = -1;          ///< net id
  std::string name;
};

/// A gate netlist with cached connectivity: the net->driver table, the
/// per-net fanout adjacency and the topological order are built once on
/// demand and kept consistent across the cheap mutations (add_net,
/// add_gate, pin-preserving replace_gate, set_gate_input), so the timing
/// graph and the opt:: passes can hammer driver()/fanout()/net_load()
/// without re-scanning every gate.
class GateNetlist {
 public:
  [[nodiscard]] int add_net(const std::string& name);
  [[nodiscard]] int num_nets() const {
    return static_cast<int>(net_names_.size());
  }
  [[nodiscard]] const std::string& net_name(int net) const;

  void mark_input(int net);
  void mark_output(int net);
  [[nodiscard]] const std::vector<int>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<int>& outputs() const { return outputs_; }

  void add_gate(Gate gate);
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }

  /// Swaps out one gate (e.g. resizing a cell) with the same validation as
  /// add_gate plus the single-driver invariant: the replacement must keep
  /// driving the same output net. This is the only mutation of an existing
  /// gate's cell — handing out a mutable gates() vector would let callers
  /// silently break driver/topological invariants. A replacement with the
  /// same input nets (the resize case) keeps the connectivity caches warm.
  void replace_gate(int index, Gate gate);

  /// Swaps one gate's cell in place, keeping name and pin connectivity —
  /// the drive-change fast path the sizing pass hammers (no Gate copy, no
  /// cache invalidation). The replacement cell must have the same pin
  /// arity.
  void resize_gate(int index, const liberty::LibCell* cell);

  /// Rewires one input pin of an existing gate to a different net (how the
  /// buffering pass moves sinks onto a buffered copy). Cycles introduced by
  /// a bad rewire surface on the next topological_order().
  void set_gate_input(int gate_index, int pin, int net);

  /// Replaces the first primary-output entry `old_net` with `new_net`
  /// (output buffering: the buffered copy becomes the port).
  void replace_output(int old_net, int new_net);

  /// Drops every gate whose keep flag is false (dead/duplicate cleanup).
  /// Net ids are preserved — orphaned nets simply lose their driver —
  /// but gate indices compact, so connectivity caches rebuild.
  void remove_gates(const std::vector<bool>& keep);

  /// Gates in topological order (inputs before users); throws on cycles.
  [[nodiscard]] std::vector<const Gate*> topological_order() const;

  /// The gate driving a net, or nullptr for primary inputs.
  [[nodiscard]] const Gate* driver(int net) const;
  /// Index of the driving gate, or -1 for primary inputs / undriven nets.
  [[nodiscard]] int driver_index(int net) const;
  /// Every (gate index, pin) pair reading `net`, ascending by gate then
  /// pin — the canonical order net_load() sums in.
  [[nodiscard]] const std::vector<std::pair<int, int>>& fanout(int net) const;

  /// Capacitive load on a net: sink pin caps + per-fanout wire capacitance.
  [[nodiscard]] double net_load(int net, double wire_cap_per_fanout,
                                double output_load) const;

  /// The bit-parallel evaluator: 64 patterns per word, one topological
  /// walk per block of at most 8 words (scratch: 8 words per net). Words
  /// are pattern-major: input_words[w * inputs().size() + i] is input i on
  /// patterns 64w..64w+63 (bit b is pattern 64w+b), and the result holds
  /// net probe[k] at [w * probe.size() + k].
  [[nodiscard]] std::vector<std::uint64_t> simulate_words(
      std::span<const std::uint64_t> input_words, std::size_t words,
      std::span<const int> probe) const;

  /// Every net's value for one primary-input assignment (in inputs()
  /// order): one lane of simulate_words.
  [[nodiscard]] std::vector<bool> simulate(
      const std::vector<bool>& input_values) const;

 private:
  void ensure_adjacency() const;
  void ensure_topological() const;

  std::vector<std::string> net_names_;
  std::vector<int> inputs_;
  std::vector<int> outputs_;
  std::vector<Gate> gates_;
  // Primary-output multiplicity per net, maintained eagerly by mark_output/
  // replace_output: net_load() used to scan outputs_ per call, which is
  // O(nets * outputs) across a full timing update — quadratic at 10k gates.
  std::vector<int> po_count_;

  // Connectivity caches, indexed by net id / gate index (never pointers:
  // gates_ may reallocate). Rebuilt lazily after invalidating mutations and
  // patched in place by the mutations that preserve them.
  mutable bool adjacency_valid_ = false;
  mutable std::vector<int> driver_of_;
  mutable std::vector<std::vector<std::pair<int, int>>> fanout_;
  mutable bool topo_valid_ = false;
  mutable std::vector<int> topo_order_;
};

/// Primary inputs up to which a function check enumerates every row.
inline constexpr std::size_t kExhaustiveInputs = 16;
/// Words per input a wider design's check draws: 4,096 seeded vectors.
inline constexpr std::size_t kSampledWords = 64;

/// The stimulus of every function check: all rows up to kExhaustiveInputs
/// inputs (under 6 inputs, rows repeat within the one word), otherwise
/// kSampledWords words per input from a fixed seed (util::derive_stream).
struct CheckPatterns {
  std::size_t words = 0;              ///< words per input
  std::vector<std::uint64_t> inputs;  ///< pattern-major, as simulate_words
};
[[nodiscard]] CheckPatterns check_patterns(std::size_t num_inputs);

/// The netlist's primary-output words under check_patterns(): the function
/// snapshot opt::optimize compares before and after its passes.
[[nodiscard]] std::vector<std::uint64_t> function_snapshot(
    const GateNetlist& netlist);

/// The paper's case-study-2 workload: a full adder from nine NAND2 gates
/// (Sum and Carry), with optional output buffer inverters.
struct FullAdderOptions {
  double nand_drive = 2.0;
  double sum_buffer_drive = 0.0;    ///< 0 = no buffer
  double carry_buffer_drive = 0.0;  ///< 0 = no buffer
};

/// Builds the 9-NAND full adder; nets: inputs A,B,CIN; outputs SUM,CARRY
/// (inverted convention matches buffering choices; see implementation).
[[nodiscard]] GateNetlist build_full_adder(const liberty::Library& library,
                                           const FullAdderOptions& options = {});

}  // namespace cnfet::flow
