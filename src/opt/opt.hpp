// Timing-driven netlist optimization passes over the incremental
// sta::TimingGraph: greedy critical-path gate sizing across the library's
// drive families, output/fanout buffer insertion, and dead/duplicate-gate
// cleanup. optimize() always runs cleanup -> sizing -> buffering -> sizing
// (the second sizing round re-sizes under the loads the buffers changed).
// Every pass mutates the flow::GateNetlist in place and keeps the shared
// graph consistent through its incremental edit notifications. Each
// candidate edit is tried the same way: applied to the live netlist and
// graph, measured, then kept or undone in place (GateNetlist::truncate +
// TimingGraph::on_truncated drop a rejected buffer pair), so a candidate
// costs one cone re-time instead of a full STA or a netlist copy.
//
// The passes never change the netlist's function: optimize() snapshots the
// primary outputs under flow::check_patterns() before running and compares
// after (every row up to 16 inputs, 4,096 seeded vectors above), and every
// kept or undone edit can be cross-checked against a full graph rebuild
// with OptOptions::verify_incremental.
#pragma once

#include "flow/gate_netlist.hpp"
#include "liberty/library.hpp"
#include "sta/timing_graph.hpp"
#include "util/error.hpp"

namespace cnfet::opt {

struct OptOptions {
  /// Timing conditions the passes optimize under (same struct sign-off
  /// STA uses, so "better" here is better at sign-off).
  sta::StaOptions sta;
  /// Stop improving once the worst arrival meets this (s); 0 = minimize.
  double target_delay = 0.0;
  /// Bound on total cell area, as a fraction of the starting area
  /// (0.25 = the optimized netlist may be up to 25% larger).
  double max_area_growth = 0.25;
  /// Sizing iterations: each round accepts at most one resize.
  int max_sizing_rounds = 64;
  /// Nets with at least this many sink pins are candidates for fanout
  /// buffer splitting; 0 disables splitting.
  int fanout_buffer_threshold = 4;
  /// Cross-check the graph against a full rebuild after every accepted
  /// resize and every buffer trial, kept or undone (bit-for-bit; throws on
  /// divergence). For tests — quadratic.
  bool verify_incremental = false;
  /// Ignored: every pass runs on one thread. Kept only because perfbench
  /// still assigns it; it goes with the next change to perfbench.
  int num_threads = 1;
};

/// What the passes did, and the before/after headline numbers.
struct PassStats {
  int gates_resized = 0;
  int buffers_inserted = 0;  ///< gates added by buffer insertion
  int gates_removed = 0;     ///< dead/duplicate cleanup
  /// True when the function recheck was exhaustive (<= 16 inputs) and
  /// passed. Wider designs are checked on a seeded sample, which is not a
  /// proof; api::Flow surfaces that as a warning, mirroring map()'s.
  bool function_verified = false;
  double delay_before = 0.0;  ///< s, worst arrival entering optimize()
  double delay_after = 0.0;   ///< s, worst arrival leaving optimize()
  double area_before = 0.0;   ///< lambda^2, total cell area
  double area_after = 0.0;    ///< lambda^2

  [[nodiscard]] int edits() const {
    return gates_resized + buffers_inserted + gates_removed;
  }
  [[nodiscard]] double area_growth() const {
    return area_before > 0.0 ? area_after / area_before - 1.0 : 0.0;
  }
};

/// Total cell area of a netlist (lambda^2, scheme-1 core areas).
[[nodiscard]] double total_area(const flow::GateNetlist& netlist);

/// Removes gates whose output drives nothing and merges duplicate gates
/// (same cell, same input nets) by rewiring sinks onto the first copy.
/// Purely structural — no graph needed; run it before building one.
void cleanup(flow::GateNetlist& netlist, PassStats* stats);

/// Greedy critical-path sizing: each round walks the critical path, tries
/// every other drive of each gate's family (library.drives_of) under the
/// area budget, and accepts the single resize that improves the worst
/// arrival most. Every candidate is tried in place by an incremental cone
/// re-time and reverted the same way; ties break by enumeration order.
void size_gates(flow::GateNetlist& netlist, sta::TimingGraph& graph,
                const liberty::Library& library, const OptOptions& options,
                double area_budget, PassStats* stats);

/// Buffer insertion: a polarity-preserving INV_2X -> INV_kX pair on each
/// primary output (k swept over the inverter drive family), and fanout
/// splitting of heavy nets (half the sinks move to a buffered copy). Both
/// are one edit, tried on the live netlist and graph through the graph's
/// incremental notifications and undone in place when no drive helps.
void insert_buffers(flow::GateNetlist& netlist, sta::TimingGraph& graph,
                    const liberty::Library& library, const OptOptions& options,
                    double area_budget, PassStats* stats);

/// The whole pass pipeline: cleanup, sizing, buffering, sizing again
/// (buffers change loads), with the function recheck (flow::
/// function_snapshot before and after). Throws util::Error if a pass ever
/// changes the netlist's function on a checked pattern —
/// the api:: boundary converts that into a Diagnostic. `final_timing`
/// (optional) receives the post-optimization sign-off snapshot straight
/// from the pass-shared graph, saving callers a from-scratch re-analysis.
[[nodiscard]] PassStats optimize(flow::GateNetlist& netlist,
                                 const liberty::Library& library,
                                 const OptOptions& options = {},
                                 sta::StaResult* final_timing = nullptr);

namespace detail {
/// The per-edit incremental==full cross-check shared by the passes.
inline void check_incremental(sta::TimingGraph& graph,
                              const OptOptions& options) {
  if (!options.verify_incremental) return;
  CNFET_REQUIRE_MSG(graph.matches_full_rebuild(),
                    "incremental re-time diverged from a full rebuild");
}
}  // namespace detail

}  // namespace cnfet::opt
