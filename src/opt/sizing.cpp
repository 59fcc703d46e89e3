#include <vector>

#include "opt/opt.hpp"

namespace cnfet::opt {

using flow::GateNetlist;

using detail::check_incremental;

void size_gates(GateNetlist& netlist, sta::TimingGraph& graph,
                const liberty::Library& library, const OptOptions& options,
                double area_budget, PassStats* stats) {
  double area = total_area(netlist);
  std::vector<int> path;

  for (int round = 0; round < options.max_sizing_rounds; ++round) {
    const double worst = graph.worst_arrival();
    if (options.target_delay > 0.0 && worst <= options.target_delay) return;
    graph.critical_gates(path);

    // Try every in-budget resize on the critical path in place, in (path,
    // family) order, and restore each gate's cell after its family. The
    // first strictly best arrival wins, so ties break by that order.
    int best_gate = -1;
    const liberty::LibCell* best_cell = nullptr;
    double best_worst = worst;
    for (const int g : path) {
      const liberty::LibCell* original =
          netlist.gates()[static_cast<std::size_t>(g)].cell;
      const auto family =
          library.drives_of(liberty::Library::base_name(original->name));
      for (const auto& option : family) {
        if (option.cell == original) continue;
        if (area - original->area_lambda2 + option.cell->area_lambda2 >
            area_budget) {
          continue;
        }
        netlist.resize_gate(g, option.cell);
        graph.on_gate_replaced(g);
        const double candidate = graph.worst_arrival();
        if (candidate < best_worst) {
          best_worst = candidate;
          best_gate = g;
          best_cell = option.cell;
        }
      }
      if (netlist.gates()[static_cast<std::size_t>(g)].cell != original) {
        netlist.resize_gate(g, original);
        graph.on_gate_replaced(g);
      }
    }
    if (best_gate < 0) return;  // no resize improves the critical path

    area += best_cell->area_lambda2 -
            netlist.gates()[static_cast<std::size_t>(best_gate)]
                .cell->area_lambda2;
    netlist.resize_gate(best_gate, best_cell);
    graph.on_gate_replaced(best_gate);
    ++stats->gates_resized;
    check_incremental(graph, options);
  }
}

}  // namespace cnfet::opt
