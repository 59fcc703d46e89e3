#include "sta/timing_graph.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace cnfet::sta {

using flow::Gate;

namespace {
constexpr double kUnconstrained = std::numeric_limits<double>::infinity();
}  // namespace

TimingGraph::TimingGraph(const flow::GateNetlist& netlist,
                         const StaOptions& options, double target_delay,
                         WireLoads wires)
    : netlist_(&netlist),
      options_(options),
      target_delay_(target_delay),
      wires_(std::move(wires)) {
  full_update();
}

TimingGraph::TimingGraph(const TimingGraph& other,
                         const flow::GateNetlist& netlist)
    : TimingGraph(other) {
  // Every cached value is indexed by net id / gate index, never by pointer,
  // so retargeting the netlist pointer is the whole rebind. The caller
  // guarantees `netlist` currently equals other's netlist gate-for-gate.
  CNFET_REQUIRE(netlist.num_nets() == other.netlist_->num_nets());
  CNFET_REQUIRE(netlist.gates().size() == other.netlist_->gates().size());
  netlist_ = &netlist;
}

void TimingGraph::full_update() {
  const auto& gates = netlist_->gates();
  const auto n = static_cast<std::size_t>(netlist_->num_nets());
  arrival_.assign(n, 0.0);
  slew_.assign(n, options_.input_slew);
  required_.assign(n, kUnconstrained);
  load_.assign(n, 0.0);
  level_.assign(n, 0);

  pin_offset_.clear();
  pin_offset_.reserve(gates.size());
  std::size_t arcs = 0;
  for (const auto& g : gates) {
    pin_offset_.push_back(static_cast<int>(arcs));
    arcs += g.inputs.size();
  }
  arc_delay_.assign(arcs, 0.0);
  energy_.assign(gates.size(), 0.0);
  energy_stale_.assign(gates.size(), 1);
  crit_pin_.assign(gates.size(), -1);
  heap_.clear();
  queued_.assign(gates.size(), 0);

  for (int net = 0; net < netlist_->num_nets(); ++net) {
    recompute_load(net);
  }

  // Levelize, then evaluate every gate once in topological order — each
  // evaluation only reads finalized fanin values, so one pass settles the
  // graph exactly like the worklist would.
  const auto topo = netlist_->topological_order();
  for (const Gate* g : topo) {
    int lvl = 0;
    for (const int in : g->inputs) {
      lvl = std::max(lvl, level_[static_cast<std::size_t>(in)]);
    }
    level_[static_cast<std::size_t>(g->output)] = lvl + 1;
  }
  for (const Gate* g : topo) {
    eval_gate(static_cast<int>(g - gates.data()));
  }
  // eval_gate enqueued sinks of every changed net; the one-pass settle
  // makes those entries redundant.
  heap_.clear();
  std::fill(queued_.begin(), queued_.end(), 0);

  ++stats_.full_builds;
  order_valid_ = false;
  update_summary();
  required_valid_ = false;
  summary_dirty_ = false;
}

int TimingGraph::gate_level(int gate_index) const {
  return level_[static_cast<std::size_t>(
      netlist_->gates()[static_cast<std::size_t>(gate_index)].output)];
}

void TimingGraph::enqueue(int gate_index) {
  if (queued_[static_cast<std::size_t>(gate_index)]) return;
  queued_[static_cast<std::size_t>(gate_index)] = 1;
  heap_.emplace_back(gate_level(gate_index), gate_index);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  summary_dirty_ = true;
}

void TimingGraph::enqueue_driver(int net) {
  const int d = netlist_->driver_index(net);
  if (d >= 0) enqueue(d);
}

void TimingGraph::recompute_load(int net) {
  load_[static_cast<std::size_t>(net)] =
      netlist_->net_load(net, options_.wire_cap_per_fanout,
                         options_.output_load) +
      wires_.net_cap_of(net);
}

void TimingGraph::eval_gate(int gate_index) {
  const Gate& gate = netlist_->gates()[static_cast<std::size_t>(gate_index)];
  const double out_load = load_[static_cast<std::size_t>(gate.output)];
  double worst = 0.0;
  int crit = -1;
  bool crit_rising = false;
  for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
    const auto in = static_cast<std::size_t>(gate.inputs[pin]);
    // The extracted wire delay into this pin adds to every arc through it
    // (and to the cached worst-direction arc delay, so the backward
    // required-time pass sees the same wire-loaded graph).
    const double w = wires_.pin_delay_of(gate_index, static_cast<int>(pin));
    double pin_delay = 0.0;
    for (const bool rising : {true, false}) {
      const auto& arc = gate.cell->arc(static_cast<int>(pin), rising);
      const double d = w + arc.delay.lookup(slew_[in], out_load);
      pin_delay = std::max(pin_delay, d);
      if (arrival_[in] + d > worst) {
        worst = arrival_[in] + d;
        crit = static_cast<int>(pin);
        crit_rising = rising;
      }
    }
    arc_delay_[static_cast<std::size_t>(pin_offset_[static_cast<std::size_t>(
                   gate_index)]) +
               pin] = pin_delay;
  }
  // One slew lookup, for the arc that won (characterized delays are
  // strictly positive, so some arc always wins).
  double worst_slew = options_.input_slew;
  if (crit >= 0) {
    const auto crit_in =
        static_cast<std::size_t>(gate.inputs[static_cast<std::size_t>(crit)]);
    worst_slew = gate.cell->arc(crit, crit_rising)
                     .out_slew.lookup(slew_[crit_in], out_load);
  } else {
    crit = 0;
  }
  // The energy roll-up is lazy (see energy_per_cycle): it depends only on
  // the critical pin's slew and the load, both of which this evaluation
  // just finalized, so deferring the two table lookups loses nothing.
  energy_stale_[static_cast<std::size_t>(gate_index)] = 1;
  crit_pin_[static_cast<std::size_t>(gate_index)] = crit;
  ++stats_.gates_evaluated;

  const auto out = static_cast<std::size_t>(gate.output);
  if (arrival_[out] != worst || slew_[out] != worst_slew) {
    arrival_[out] = worst;
    slew_[out] = worst_slew;
    for (const auto& [sink, pin] : netlist_->fanout(gate.output)) {
      (void)pin;
      enqueue(sink);
    }
  }
}

void TimingGraph::relevel_from(int gate_index) {
  // Iterative level fixpoint over the fanout cone; levels only grow along
  // a path, so a level exceeding the gate count proves a cycle.
  std::vector<int> stack{gate_index};
  while (!stack.empty()) {
    const int g = stack.back();
    stack.pop_back();
    const Gate& gate = netlist_->gates()[static_cast<std::size_t>(g)];
    int lvl = 0;
    for (const int in : gate.inputs) {
      lvl = std::max(lvl, level_[static_cast<std::size_t>(in)]);
    }
    ++lvl;
    CNFET_REQUIRE_MSG(lvl <= static_cast<int>(netlist_->gates().size()),
                      "combinational cycle");
    if (lvl == level_[static_cast<std::size_t>(gate.output)]) continue;
    level_[static_cast<std::size_t>(gate.output)] = lvl;
    order_valid_ = false;
    for (const auto& [sink, pin] : netlist_->fanout(gate.output)) {
      (void)pin;
      stack.push_back(sink);
    }
  }
}

void TimingGraph::grow_to_netlist() {
  const auto n = static_cast<std::size_t>(netlist_->num_nets());
  if (arrival_.size() < n) {
    arrival_.resize(n, 0.0);
    slew_.resize(n, options_.input_slew);
    required_.resize(n, kUnconstrained);
    load_.resize(n, 0.0);
    level_.resize(n, 0);
  }
}

void TimingGraph::on_gate_replaced(int gate_index) {
  const Gate& gate = netlist_->gates()[static_cast<std::size_t>(gate_index)];
  // The new cell's pin caps change the load of every fanin net, which
  // re-times those nets' drivers; the gate itself re-times on its new arcs.
  for (const int in : gate.inputs) {
    recompute_load(in);
    enqueue_driver(in);
  }
  enqueue(gate_index);
}

void TimingGraph::on_gate_added(int gate_index) {
  grow_to_netlist();
  const Gate& gate = netlist_->gates()[static_cast<std::size_t>(gate_index)];
  CNFET_REQUIRE_MSG(gate_index == static_cast<int>(pin_offset_.size()),
                    "on_gate_added must follow each add_gate in order");
  pin_offset_.push_back(static_cast<int>(arc_delay_.size()));
  arc_delay_.resize(arc_delay_.size() + gate.inputs.size(), 0.0);
  energy_.push_back(0.0);
  energy_stale_.push_back(1);
  crit_pin_.push_back(-1);
  queued_.push_back(0);
  order_valid_ = false;
  for (const int in : gate.inputs) {
    recompute_load(in);
    enqueue_driver(in);
  }
  recompute_load(gate.output);
  relevel_from(gate_index);
  enqueue(gate_index);
}

void TimingGraph::on_input_rewired(int gate_index, int pin, int old_net) {
  const Gate& gate = netlist_->gates()[static_cast<std::size_t>(gate_index)];
  recompute_load(old_net);
  enqueue_driver(old_net);
  const int new_net = gate.inputs[static_cast<std::size_t>(pin)];
  recompute_load(new_net);
  enqueue_driver(new_net);
  relevel_from(gate_index);
  enqueue(gate_index);
}

void TimingGraph::on_output_moved(int old_net, int new_net) {
  recompute_load(old_net);
  enqueue_driver(old_net);
  recompute_load(new_net);
  enqueue_driver(new_net);
  summary_dirty_ = true;
}

void TimingGraph::retime() {
  if (heap_.empty() && !summary_dirty_) return;
  const bool incremental = stats_.full_builds > 0 && !heap_.empty();
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [lvl, g] = heap_.back();
    heap_.pop_back();
    if (!queued_[static_cast<std::size_t>(g)]) continue;
    // Re-levelization may have moved the gate after it was pushed; a stale
    // entry is re-pushed at its current level so fanins still pop first.
    if (lvl != gate_level(g)) {
      heap_.emplace_back(gate_level(g), g);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
      continue;
    }
    queued_[static_cast<std::size_t>(g)] = 0;
    eval_gate(g);
  }
  if (incremental) ++stats_.incremental_retimes;
  update_summary();
  required_valid_ = false;
  summary_dirty_ = false;
}

void TimingGraph::update_summary() {
  // Worst primary output; exact ties break to the lowest net id so the
  // reported critical output never depends on declaration order.
  worst_arrival_ = 0.0;
  critical_output_ = -1;
  for (const int po : netlist_->outputs()) {
    const double a = arrival_[static_cast<std::size_t>(po)];
    if (a > worst_arrival_ ||
        (a == worst_arrival_ &&
         (critical_output_ < 0 || po < critical_output_))) {
      worst_arrival_ = a;
      critical_output_ = po;
    }
  }
}

void TimingGraph::ensure_required() {
  retime();
  if (required_valid_) return;
  // Backward required-time pass over the cached worst-direction arc
  // delays: pure arithmetic, no NLDM lookups, identical for incremental
  // and full updates because min() is exact and the visit order is the
  // deterministic (level, index) sort.
  const double target = target_delay_ > 0.0 ? target_delay_ : worst_arrival_;
  std::fill(required_.begin(), required_.end(), kUnconstrained);
  for (const int po : netlist_->outputs()) {
    required_[static_cast<std::size_t>(po)] =
        std::min(required_[static_cast<std::size_t>(po)], target);
  }
  const auto& gates = netlist_->gates();
  if (!order_valid_) {
    order_scratch_.resize(gates.size());
    for (std::size_t i = 0; i < gates.size(); ++i) {
      order_scratch_[i] = static_cast<int>(i);
    }
    std::sort(order_scratch_.begin(), order_scratch_.end(),
              [&](int a, int b) {
                const int la = gate_level(a);
                const int lb = gate_level(b);
                return la != lb ? la < lb : a < b;
              });
    order_valid_ = true;
  }
  for (auto it = order_scratch_.rbegin(); it != order_scratch_.rend(); ++it) {
    const int g = *it;
    const Gate& gate = gates[static_cast<std::size_t>(g)];
    const double r_out = required_[static_cast<std::size_t>(gate.output)];
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      const auto in = static_cast<std::size_t>(gate.inputs[pin]);
      const double cand =
          r_out -
          arc_delay_[static_cast<std::size_t>(
                         pin_offset_[static_cast<std::size_t>(g)]) +
                     pin];
      required_[in] = std::min(required_[in], cand);
    }
  }
  required_valid_ = true;
}

double TimingGraph::arrival(int net) {
  retime();
  return arrival_[static_cast<std::size_t>(net)];
}

double TimingGraph::slew(int net) {
  retime();
  return slew_[static_cast<std::size_t>(net)];
}

double TimingGraph::required(int net) {
  ensure_required();
  return required_[static_cast<std::size_t>(net)];
}

double TimingGraph::slack(int net) {
  ensure_required();
  return required_[static_cast<std::size_t>(net)] -
         arrival_[static_cast<std::size_t>(net)];
}

double TimingGraph::load(int net) {
  retime();
  return load_[static_cast<std::size_t>(net)];
}

double TimingGraph::worst_arrival() {
  retime();
  return worst_arrival_;
}

int TimingGraph::critical_output() {
  retime();
  return critical_output_;
}

std::vector<int> TimingGraph::critical_gates() {
  std::vector<int> path;
  critical_gates(path);
  return path;
}

void TimingGraph::critical_gates(std::vector<int>& out) {
  retime();
  out.clear();
  if (critical_output_ < 0) return;
  int g = netlist_->driver_index(critical_output_);
  while (g >= 0) {
    out.push_back(g);
    const Gate& gate = netlist_->gates()[static_cast<std::size_t>(g)];
    const int crit = crit_pin_[static_cast<std::size_t>(g)];
    g = crit < 0 ? -1
                 : netlist_->driver_index(
                       gate.inputs[static_cast<std::size_t>(crit)]);
  }
  std::reverse(out.begin(), out.end());
}

double TimingGraph::energy_per_cycle() {
  retime();
  // Refresh the stale entries: energy for one output transition per cycle,
  // looked up at the slew of the *critical* input (the transition that
  // actually drives the output), averaged over that pin's rise/fall arcs.
  // The inputs to the lookup are exactly the post-retime slew and load, so
  // the deferred value is bit-identical to an eager one.
  const auto& gates = netlist_->gates();
  for (std::size_t g = 0; g < gates.size(); ++g) {
    if (!energy_stale_[g]) continue;
    const Gate& gate = gates[g];
    const int crit = crit_pin_[g];
    const auto crit_in =
        static_cast<std::size_t>(gate.inputs[static_cast<std::size_t>(crit)]);
    const double out_load = load_[static_cast<std::size_t>(gate.output)];
    const auto& e_r = gate.cell->arc(crit, true).energy;
    const auto& e_f = gate.cell->arc(crit, false).energy;
    energy_[g] = 0.5 * (e_r.lookup(slew_[crit_in], out_load) +
                        e_f.lookup(slew_[crit_in], out_load));
    energy_stale_[g] = 0;
  }
  double total = 0.0;
  for (const double e : energy_) total += e;
  return total;
}

StaResult TimingGraph::to_sta_result() {
  retime();
  StaResult result;
  result.worst_arrival = worst_arrival_;
  result.critical_output = critical_output_;
  result.energy_per_cycle = energy_per_cycle();
  result.arrival = arrival_;
  result.slew = slew_;
  for (const int g : critical_gates()) {
    result.critical_path.push_back(
        netlist_->gates()[static_cast<std::size_t>(g)].name);
  }
  return result;
}

bool TimingGraph::matches_full_rebuild() {
  ensure_required();
  TimingGraph fresh(*netlist_, options_, target_delay_, wires_);
  fresh.ensure_required();
  return arrival_ == fresh.arrival_ && slew_ == fresh.slew_ &&
         load_ == fresh.load_ && required_ == fresh.required_ &&
         worst_arrival_ == fresh.worst_arrival_ &&
         critical_output_ == fresh.critical_output_ &&
         energy_per_cycle() == fresh.energy_per_cycle();
}

}  // namespace cnfet::sta
