#include "opt/opt.hpp"
#include "util/error.hpp"

namespace cnfet::opt {

using flow::GateNetlist;

PassStats optimize(GateNetlist& netlist, const liberty::Library& library,
                   const OptOptions& options, sta::StaResult* final_timing) {
  PassStats stats;
  const auto function_before = flow::function_snapshot(netlist);
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

  if (flow::function_snapshot(netlist) != function_before) {
    throw util::Error("optimization changed the netlist's function");
  }
  stats.function_verified =
      netlist.inputs().size() <= flow::kExhaustiveInputs;
  // The shared graph is already fully propagated over the final netlist;
  // snapshotting it here saves the caller a from-scratch re-analysis.
  if (final_timing != nullptr) *final_timing = graph.to_sta_result();
  return stats;
}

}  // namespace cnfet::opt
