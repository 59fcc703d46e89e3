#include <vector>

#include "opt/opt.hpp"
#include "util/error.hpp"

namespace cnfet::opt {

using flow::GateNetlist;

namespace {

/// Exhaustive output truth snapshot (one row-indexed table per primary
/// output), or empty when the design is too wide to enumerate.
std::vector<std::vector<bool>> truth_snapshot(const GateNetlist& netlist) {
  const int n = static_cast<int>(netlist.inputs().size());
  if (n > 16) return {};
  std::vector<std::vector<bool>> truth(
      netlist.outputs().size(), std::vector<bool>(1ull << n, false));
  for (std::uint64_t row = 0; row < (1ull << n); ++row) {
    const auto values = netlist.simulate(row);
    for (std::size_t o = 0; o < netlist.outputs().size(); ++o) {
      truth[o][row] = values[static_cast<std::size_t>(netlist.outputs()[o])];
    }
  }
  return truth;
}

}  // namespace

PassStats optimize(GateNetlist& netlist, const liberty::Library& library,
                   const OptOptions& options, sta::StaResult* final_timing) {
  PassStats stats;
  const auto truth_before = truth_snapshot(netlist);
  stats.area_before = total_area(netlist);
  stats.delay_before =
      sta::TimingGraph(netlist, options.sta, options.target_delay)
          .worst_arrival();
  const double area_budget =
      stats.area_before * (1.0 + options.max_area_growth);

  // Structural cleanup first — it invalidates gate indices, so the graph
  // the timing-driven passes share is built over the cleaned netlist.
  cleanup(netlist, &stats);

  sta::TimingGraph graph(netlist, options.sta, options.target_delay);
  size_gates(netlist, graph, library, options, area_budget, &stats);
  insert_buffers(netlist, graph, library, options, area_budget, &stats);
  // Buffers change the loads the first sizing round optimized under.
  size_gates(netlist, graph, library, options, area_budget, &stats);

  stats.delay_after = graph.worst_arrival();
  stats.area_after = total_area(netlist);

  stats.function_verified = !truth_before.empty();
  if (stats.function_verified) {
    const auto truth_after = truth_snapshot(netlist);
    CNFET_REQUIRE_MSG(truth_after == truth_before,
                      "optimization changed the netlist's function");
  }
  // The shared graph is already fully propagated over the final netlist;
  // snapshotting it here saves the caller a from-scratch re-analysis.
  if (final_timing != nullptr) *final_timing = graph.to_sta_result();
  return stats;
}

}  // namespace cnfet::opt
