// Pin-level incremental timing graph over a mapped gate netlist.
//
// One TimingGraph is built from flow::GateNetlist + the library's NLDM
// tables and is shared by sign-off STA (sta::analyze is a thin full-build
// wrapper over it), and the opt:: sizing/buffering passes. Nodes are the
// driver pins of nets (input pins share their net's node — the model has
// no wire delay, so a net and every pin reading it see one arrival/slew);
// edges are the cells' characterized timing arcs.
//
// The graph is *incrementally updatable*: after a local netlist edit
// (replace_gate resize, buffer insertion, sink rewiring) only the
// affected fanout cone is re-levelized and re-timed through a
// level-ordered worklist. The results are bit-for-bit identical to a
// full rebuild because each node evaluation is a pure function of its
// fanin arrivals/slews and the cached pin loads, and propagation stops
// exactly where a full pass would have produced bitwise-unchanged values.
#pragma once

#include <cstdint>
#include <vector>

#include "flow/gate_netlist.hpp"
#include "sta/sta.hpp"

namespace cnfet::sta {

/// Work counters: how much of the graph each update actually touched.
/// gates_evaluated is the number the equivalence tests bound — every
/// evaluation performs the full set of NLDM lookups for one gate.
struct TimingStats {
  std::uint64_t gates_evaluated = 0;
  std::uint64_t full_builds = 0;
  std::uint64_t incremental_retimes = 0;
};

class TimingGraph {
 public:
  /// Builds and fully propagates. `target_delay` seeds the required-time
  /// propagation; 0 means "the worst arrival" (zero slack on the critical
  /// path). `wires` layers extracted parasitics on top of the ideal model:
  /// each net's load gains its wire cap, each input pin's arrival gains its
  /// Elmore wire delay. The netlist must outlive the graph.
  explicit TimingGraph(const flow::GateNetlist& netlist,
                       const StaOptions& options = {},
                       double target_delay = 0.0, WireLoads wires = {});

  /// Rebind clone: copies every cached arrival/slew/load/level/arc table
  /// from `other` but reads gates from `netlist` — which must be currently
  /// identical to other's netlist (the usual source is a plain copy). No
  /// NLDM evaluation happens; the parallel sizing shards and the buffering
  /// pass use this to get a private graph over a private netlist copy at
  /// memcpy cost instead of a full build.
  TimingGraph(const TimingGraph& other, const flow::GateNetlist& netlist);

  /// Rebuilds every level, load, arrival, slew, required time and slack
  /// from scratch (also run by the constructor).
  void full_update();

  // --- incremental edit notifications ------------------------------------
  // Call after the corresponding GateNetlist mutation; each enqueues the
  // affected cone, and the next query (or retime()) drains the worklist.

  /// The gate at `gate_index` changed cell with the same pin connectivity
  /// (the resize case). For connectivity changes use on_input_rewired.
  void on_gate_replaced(int gate_index);
  /// A gate (and possibly its nets) was appended to the netlist.
  void on_gate_added(int gate_index);
  /// Input `pin` of `gate_index` was moved off `old_net` (set_gate_input).
  void on_input_rewired(int gate_index, int pin, int old_net);
  /// A primary output moved from `old_net` to `new_net` (replace_output).
  void on_output_moved(int old_net, int new_net);

  /// Drains the dirty worklist and refreshes the summary + required times.
  /// Queries call this implicitly; exposed so benches can time it.
  void retime();

  // --- queries ------------------------------------------------------------
  [[nodiscard]] double arrival(int net);
  [[nodiscard]] double slew(int net);
  [[nodiscard]] double required(int net);
  [[nodiscard]] double slack(int net);
  [[nodiscard]] double load(int net);

  [[nodiscard]] double worst_arrival();
  [[nodiscard]] int critical_output();
  /// Gate indices along the critical path, input side first.
  [[nodiscard]] std::vector<int> critical_gates();
  /// Same, into a caller-owned buffer (cleared first) — the sizing loop
  /// calls this once per round, so reusing its buffer keeps the round's
  /// steady state off the heap.
  void critical_gates(std::vector<int>& out);
  /// Energy with every gate switching once per cycle, each gate evaluated
  /// at its *critical* input's slew (summed in gate-index order).
  [[nodiscard]] double energy_per_cycle();

  /// Snapshot in the classic sta::analyze shape.
  [[nodiscard]] StaResult to_sta_result();

  /// True when arrival/slew/load/required of every net equal a freshly
  /// built graph bit-for-bit — the incremental==full equivalence contract
  /// the tests and the opt passes' verify mode check after each edit.
  [[nodiscard]] bool matches_full_rebuild();

  [[nodiscard]] const TimingStats& stats() const { return stats_; }
  [[nodiscard]] const flow::GateNetlist& netlist() const { return *netlist_; }
  [[nodiscard]] const StaOptions& options() const { return options_; }

 private:
  void grow_to_netlist();
  void eval_gate(int gate_index);
  void enqueue(int gate_index);
  void recompute_load(int net);
  void enqueue_driver(int net);
  [[nodiscard]] int gate_level(int gate_index) const;
  void relevel_from(int gate_index);
  void update_summary();
  /// The backward required-time pass is lazy: retime() only invalidates
  /// it, and the first required()/slack() query after an edit pays the
  /// O(E) sweep. Hot consumers (the sizing loop's worst_arrival probes)
  /// never do.
  void ensure_required();

  const flow::GateNetlist* netlist_;
  StaOptions options_;
  double target_delay_;
  WireLoads wires_;

  // Per net id.
  std::vector<double> arrival_;
  std::vector<double> slew_;
  std::vector<double> required_;
  std::vector<double> load_;
  std::vector<int> level_;

  // Per gate index.
  std::vector<int> pin_offset_;     ///< start of the gate's arcs in arc_delay_
  std::vector<double> arc_delay_;   ///< worst-direction delay per (gate, pin)
  std::vector<double> energy_;      ///< per-cycle switching energy
  std::vector<char> energy_stale_;  ///< lazily refreshed by energy_per_cycle
  std::vector<int> crit_pin_;       ///< input pin that set the arrival

  // Worklist: a lazy binary min-heap of (level, gate); stale levels are
  // re-pushed on pop. queued_ dedups.
  std::vector<std::pair<int, int>> heap_;
  std::vector<char> queued_;
  bool summary_dirty_ = true;
  bool required_valid_ = false;

  // Summary (valid when worklist drained and summary_dirty_ is false).
  double worst_arrival_ = 0.0;
  int critical_output_ = -1;

  // Backward-pass visit order: gate indices sorted by (level, index),
  // cached until levels or the gate count change.
  std::vector<int> order_scratch_;
  bool order_valid_ = false;

  TimingStats stats_;
};

}  // namespace cnfet::sta
