#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "opt/opt.hpp"

namespace cnfet::opt {

using flow::Gate;
using flow::GateNetlist;

using detail::check_incremental;

void insert_buffers(GateNetlist& netlist, sta::TimingGraph& graph,
                    const liberty::Library& library, const OptOptions& options,
                    double area_budget, PassStats* stats) {
  const auto inv_family = library.drives_of("INV");
  if (inv_family.empty()) return;
  const liberty::LibCell* pre_cell = inv_family.front().cell;
  for (const auto& option : inv_family) {
    if (option.drive == 2.0) pre_cell = option.cell;  // the classic 2X pre-driver
  }
  double area = total_area(netlist);
  const auto fits = [&](const liberty::DriveOption& option) {
    return area + pre_cell->area_lambda2 + option.cell->area_lambda2 <=
           area_budget;
  };

  // The one buffering edit: an INV_2X -> INV_kX pair on `net` takes over
  // `sinks` (and the port `net`, when `port`), tried in place on the live
  // netlist and graph. The final stage's drive is swept under the area
  // budget; the best drive that lowers the worst arrival is kept, or the
  // whole edit is undone.
  const auto try_pair = [&](int net, const char* tag,
                            const std::vector<std::pair<int, int>>& sinks,
                            bool port) {
    if (std::none_of(inv_family.begin(), inv_family.end(), fits)) return;
    const double worst = graph.worst_arrival();
    const int gates = static_cast<int>(netlist.gates().size());
    const int nets = netlist.num_nets();
    const std::string base = netlist.net_name(net) + "_" + tag;
    const int pre = netlist.add_net(base + "_pre");
    const int buf = netlist.add_net(base + "_buf");
    netlist.add_gate(Gate{pre_cell, {net}, pre, base + "_pre"});
    netlist.add_gate(Gate{inv_family.front().cell, {pre}, buf, base + "_buf"});
    const int final_stage = gates + 1;
    graph.on_gate_added(gates);
    graph.on_gate_added(final_stage);
    for (const auto& [sink, pin] : sinks) {
      netlist.set_gate_input(sink, pin, buf);
      graph.on_input_rewired(sink, pin, net);
    }
    if (port) {
      netlist.replace_output(net, buf);
      graph.on_output_moved(net, buf);
    }

    const liberty::LibCell* best = nullptr;
    double best_worst = worst;
    for (const auto& option : inv_family) {
      if (!fits(option)) continue;
      netlist.resize_gate(final_stage, option.cell);
      graph.on_gate_replaced(final_stage);
      const double candidate = graph.worst_arrival();
      if (candidate < best_worst) {
        best_worst = candidate;
        best = option.cell;
      }
    }

    if (best != nullptr) {
      if (netlist.gates()[static_cast<std::size_t>(final_stage)].cell !=
          best) {
        netlist.resize_gate(final_stage, best);
        graph.on_gate_replaced(final_stage);
      }
      area += pre_cell->area_lambda2 + best->area_lambda2;
      stats->buffers_inserted += 2;
    } else {
      if (port) {
        netlist.replace_output(buf, net);
        graph.on_output_moved(buf, net);
      }
      for (const auto& [sink, pin] : sinks) {
        netlist.set_gate_input(sink, pin, net);
        graph.on_input_rewired(sink, pin, buf);
      }
      graph.on_truncated(netlist.truncate(gates, nets));
    }
    check_incremental(graph, options);
  };
  const auto met_target = [&] {
    return options.target_delay > 0.0 &&
           graph.worst_arrival() <= options.target_delay;
  };

  // --- primary-output buffering -----------------------------------------
  for (std::size_t k = 0; k < netlist.outputs().size(); ++k) {
    const int po = netlist.outputs()[k];
    if (netlist.driver_index(po) < 0) continue;  // PI-fed output
    if (met_target()) return;
    try_pair(po, "obuf", {}, /*port=*/true);
  }

  // --- fanout splitting ---------------------------------------------------
  // Heavy nets hand the later half of their sinks, in canonical (gate, pin)
  // order, to a buffered copy, halving the load the driver sees.
  if (options.fanout_buffer_threshold <= 0) return;
  std::vector<int> heavy;
  for (int net = 0; net < netlist.num_nets(); ++net) {
    if (static_cast<int>(netlist.fanout(net).size()) >=
        options.fanout_buffer_threshold) {
      heavy.push_back(net);
    }
  }
  for (const int net : heavy) {
    if (met_target()) return;
    const auto& sinks = netlist.fanout(net);
    try_pair(net, "fbuf",
             {sinks.begin() + static_cast<std::ptrdiff_t>(sinks.size() / 2),
              sinks.end()},
             /*port=*/false);
  }
}

}  // namespace cnfet::opt
