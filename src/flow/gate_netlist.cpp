#include "flow/gate_netlist.hpp"

#include <algorithm>
#include <numeric>

#include "logic/truth_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cnfet::flow {

int GateNetlist::add_net(const std::string& name) {
  net_names_.push_back(name);
  po_count_.push_back(0);
  if (adjacency_valid_) {
    driver_of_.push_back(-1);
    fanout_.emplace_back();
  }
  return num_nets() - 1;
}

const std::string& GateNetlist::net_name(int net) const {
  CNFET_REQUIRE(net >= 0 && net < num_nets());
  return net_names_[static_cast<std::size_t>(net)];
}

void GateNetlist::mark_input(int net) {
  CNFET_REQUIRE(net >= 0 && net < num_nets());
  inputs_.push_back(net);
}

void GateNetlist::mark_output(int net) {
  CNFET_REQUIRE(net >= 0 && net < num_nets());
  outputs_.push_back(net);
  ++po_count_[static_cast<std::size_t>(net)];
}

void GateNetlist::add_gate(Gate gate) {
  CNFET_REQUIRE(gate.cell != nullptr);
  CNFET_REQUIRE(static_cast<int>(gate.inputs.size()) ==
                gate.cell->built.netlist.num_inputs());
  for (const int n : gate.inputs) CNFET_REQUIRE(n >= 0 && n < num_nets());
  CNFET_REQUIRE(gate.output >= 0 && gate.output < num_nets());
  const int index = static_cast<int>(gates_.size());
  if (adjacency_valid_) {
    CNFET_REQUIRE_MSG(driver_of_[static_cast<std::size_t>(gate.output)] < 0,
                      "multiple drivers on net " + net_name(gate.output));
    driver_of_[static_cast<std::size_t>(gate.output)] = index;
    for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
      // Appending keeps each net's fanout ascending by (gate, pin): this
      // gate's index is the largest so far.
      fanout_[static_cast<std::size_t>(gate.inputs[pin])].emplace_back(
          index, static_cast<int>(pin));
    }
  }
  // The new gate may drive a net that earlier gates already read, so the
  // cached topological order cannot simply be appended to.
  topo_valid_ = false;
  gates_.push_back(std::move(gate));
}

void GateNetlist::replace_gate(int index, Gate gate) {
  CNFET_REQUIRE(index >= 0 && index < static_cast<int>(gates_.size()));
  CNFET_REQUIRE(gate.cell != nullptr);
  CNFET_REQUIRE(static_cast<int>(gate.inputs.size()) ==
                gate.cell->built.netlist.num_inputs());
  for (const int n : gate.inputs) CNFET_REQUIRE(n >= 0 && n < num_nets());
  CNFET_REQUIRE_MSG(gate.output == gates_[static_cast<std::size_t>(index)].output,
                    "replace_gate must keep the same output net");
  // A resize (same pins, different cell) touches no connectivity; only a
  // replacement that rewires inputs invalidates the caches.
  if (gate.inputs != gates_[static_cast<std::size_t>(index)].inputs) {
    adjacency_valid_ = false;
    topo_valid_ = false;
  }
  gates_[static_cast<std::size_t>(index)] = std::move(gate);
}

void GateNetlist::resize_gate(int index, const liberty::LibCell* cell) {
  CNFET_REQUIRE(index >= 0 && index < static_cast<int>(gates_.size()));
  CNFET_REQUIRE(cell != nullptr);
  auto& gate = gates_[static_cast<std::size_t>(index)];
  CNFET_REQUIRE(static_cast<int>(gate.inputs.size()) ==
                cell->built.netlist.num_inputs());
  gate.cell = cell;
}

void GateNetlist::set_gate_input(int gate_index, int pin, int net) {
  CNFET_REQUIRE(gate_index >= 0 &&
                gate_index < static_cast<int>(gates_.size()));
  auto& gate = gates_[static_cast<std::size_t>(gate_index)];
  CNFET_REQUIRE(pin >= 0 && pin < static_cast<int>(gate.inputs.size()));
  CNFET_REQUIRE(net >= 0 && net < num_nets());
  const int old_net = gate.inputs[static_cast<std::size_t>(pin)];
  if (old_net == net) return;
  gate.inputs[static_cast<std::size_t>(pin)] = net;
  if (adjacency_valid_) {
    auto& old_list = fanout_[static_cast<std::size_t>(old_net)];
    old_list.erase(std::find(old_list.begin(), old_list.end(),
                             std::make_pair(gate_index, pin)));
    auto& new_list = fanout_[static_cast<std::size_t>(net)];
    new_list.insert(std::upper_bound(new_list.begin(), new_list.end(),
                                     std::make_pair(gate_index, pin)),
                    {gate_index, pin});
  }
  topo_valid_ = false;
}

void GateNetlist::replace_output(int old_net, int new_net) {
  CNFET_REQUIRE(new_net >= 0 && new_net < num_nets());
  const auto it = std::find(outputs_.begin(), outputs_.end(), old_net);
  CNFET_REQUIRE_MSG(it != outputs_.end(),
                    "replace_output: " + net_name(old_net) +
                        " is not a primary output");
  *it = new_net;
  --po_count_[static_cast<std::size_t>(old_net)];
  ++po_count_[static_cast<std::size_t>(new_net)];
}

void GateNetlist::remove_gates(const std::vector<bool>& keep) {
  CNFET_REQUIRE(keep.size() == gates_.size());
  std::vector<Gate> kept;
  kept.reserve(gates_.size());
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (keep[i]) kept.push_back(std::move(gates_[i]));
  }
  gates_ = std::move(kept);
  adjacency_valid_ = false;
  topo_valid_ = false;
}

void GateNetlist::ensure_adjacency() const {
  if (adjacency_valid_) return;
  driver_of_.assign(static_cast<std::size_t>(num_nets()), -1);
  fanout_.assign(static_cast<std::size_t>(num_nets()), {});
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const auto& g = gates_[i];
    CNFET_REQUIRE_MSG(driver_of_[static_cast<std::size_t>(g.output)] < 0,
                      "multiple drivers on net " + net_name(g.output));
    driver_of_[static_cast<std::size_t>(g.output)] = static_cast<int>(i);
    for (std::size_t pin = 0; pin < g.inputs.size(); ++pin) {
      fanout_[static_cast<std::size_t>(g.inputs[pin])].emplace_back(
          static_cast<int>(i), static_cast<int>(pin));
    }
  }
  adjacency_valid_ = true;
}

void GateNetlist::ensure_topological() const {
  if (topo_valid_) return;
  ensure_adjacency();
  topo_order_.clear();
  topo_order_.reserve(gates_.size());
  // 0 new, 1 visiting, 2 done. Iterative DFS with an explicit stack — a
  // 10k-gate inverter chain would overflow the call stack recursively —
  // emitting gates in the same order the recursive post-order did.
  std::vector<char> state(gates_.size(), 0);
  // (gate, next fanin pin to expand)
  std::vector<std::pair<int, std::size_t>> stack;
  for (int root = 0; root < static_cast<int>(gates_.size()); ++root) {
    if (state[static_cast<std::size_t>(root)] != 0) continue;
    stack.emplace_back(root, 0);
    state[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      auto& [g, pin] = stack.back();
      const auto& ins = gates_[static_cast<std::size_t>(g)].inputs;
      if (pin == ins.size()) {
        state[static_cast<std::size_t>(g)] = 2;
        topo_order_.push_back(g);
        stack.pop_back();
        continue;
      }
      const int d = driver_of_[static_cast<std::size_t>(ins[pin++])];
      if (d < 0 || state[static_cast<std::size_t>(d)] == 2) continue;
      CNFET_REQUIRE_MSG(state[static_cast<std::size_t>(d)] != 1,
                        "combinational cycle");
      state[static_cast<std::size_t>(d)] = 1;
      stack.emplace_back(d, 0);
    }
  }
  topo_valid_ = true;
}

std::vector<const Gate*> GateNetlist::topological_order() const {
  ensure_topological();
  std::vector<const Gate*> order;
  order.reserve(topo_order_.size());
  for (const int g : topo_order_) {
    order.push_back(&gates_[static_cast<std::size_t>(g)]);
  }
  return order;
}

const Gate* GateNetlist::driver(int net) const {
  const int index = driver_index(net);
  return index < 0 ? nullptr : &gates_[static_cast<std::size_t>(index)];
}

int GateNetlist::driver_index(int net) const {
  CNFET_REQUIRE(net >= 0 && net < num_nets());
  ensure_adjacency();
  return driver_of_[static_cast<std::size_t>(net)];
}

const std::vector<std::pair<int, int>>& GateNetlist::fanout(int net) const {
  CNFET_REQUIRE(net >= 0 && net < num_nets());
  ensure_adjacency();
  return fanout_[static_cast<std::size_t>(net)];
}

double GateNetlist::net_load(int net, double wire_cap_per_fanout,
                             double output_load) const {
  double load = 0.0;
  for (const auto& [g, pin] : fanout(net)) {
    load += gates_[static_cast<std::size_t>(g)]
                .cell->input_cap[static_cast<std::size_t>(pin)] +
            wire_cap_per_fanout;
  }
  // Repeated addition (not a multiply) keeps the sum bit-identical to the
  // outputs_ scan this replaced; a full timing update calls net_load once
  // per net, so the scan made it O(nets * outputs).
  for (int i = po_count_[static_cast<std::size_t>(net)]; i > 0; --i) {
    load += output_load;
  }
  return load;
}

std::vector<std::uint64_t> GateNetlist::simulate_words(
    std::span<const std::uint64_t> input_words, std::size_t words,
    std::span<const int> probe) const {
  CNFET_REQUIRE(input_words.size() == inputs_.size() * words);
  for (const int net : probe) CNFET_REQUIRE(net >= 0 && net < num_nets());
  ensure_topological();
  const std::size_t block = std::min<std::size_t>(words, 8);
  std::vector<std::uint64_t> value(static_cast<std::size_t>(num_nets()) *
                                   block);
  // Word k of the current block on `net`.
  const auto at = [&](int net, std::size_t k) -> std::uint64_t& {
    return value[static_cast<std::size_t>(net) * block + k];
  };
  std::vector<std::uint64_t> out(words * probe.size());
  std::uint64_t pins[logic::TruthTable::kMaxInputs];
  for (std::size_t base = 0; base < words; base += block) {
    const std::size_t len = std::min(block, words - base);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      for (std::size_t k = 0; k < len; ++k) {
        at(inputs_[i], k) = input_words[(base + k) * inputs_.size() + i];
      }
    }
    for (const int g : topo_order_) {
      const Gate& gate = gates_[static_cast<std::size_t>(g)];
      for (std::size_t k = 0; k < len; ++k) {
        for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
          pins[pin] = at(gate.inputs[pin], k);
        }
        at(gate.output, k) = gate.cell->built.function.eval_word(pins);
      }
    }
    for (std::size_t p = 0; p < probe.size(); ++p) {
      for (std::size_t k = 0; k < len; ++k) {
        out[(base + k) * probe.size() + p] = at(probe[p], k);
      }
    }
  }
  return out;
}

std::vector<bool> GateNetlist::simulate(
    const std::vector<bool>& input_values) const {
  const std::vector<std::uint64_t> lane(input_values.begin(),
                                       input_values.end());
  std::vector<int> every_net(static_cast<std::size_t>(num_nets()));
  std::iota(every_net.begin(), every_net.end(), 0);
  std::vector<bool> value;
  for (const auto word : simulate_words(lane, 1, every_net)) {
    value.push_back((word & 1) != 0);
  }
  return value;
}

CheckPatterns check_patterns(std::size_t num_inputs) {
  // A fixed seed: the same design always meets the same vectors.
  constexpr std::uint64_t kSeed = 0x5EED0F1C4EC6ull;
  const bool exhaustive = num_inputs <= kExhaustiveInputs;
  CheckPatterns patterns;
  patterns.words = !exhaustive       ? kSampledWords
                   : num_inputs > 6 ? std::size_t{1} << (num_inputs - 6)
                                    : 1;
  for (std::size_t w = 0; w < patterns.words; ++w) {
    for (std::size_t i = 0; i < num_inputs; ++i) {
      patterns.inputs.push_back(
          exhaustive ? logic::row_word(static_cast<int>(i), w)
                     : util::derive_stream(kSeed, i * kSampledWords + w));
    }
  }
  return patterns;
}

std::vector<std::uint64_t> function_snapshot(const GateNetlist& netlist) {
  const auto patterns = check_patterns(netlist.inputs().size());
  return netlist.simulate_words(patterns.inputs, patterns.words,
                                netlist.outputs());
}

GateNetlist build_full_adder(const liberty::Library& library,
                             const FullAdderOptions& options) {
  GateNetlist nl;
  const int a = nl.add_net("A");
  const int b = nl.add_net("B");
  const int cin = nl.add_net("CIN");
  nl.mark_input(a);
  nl.mark_input(b);
  nl.mark_input(cin);

  const auto& nand2 = library.find("NAND2", options.nand_drive);
  auto mk = [&](const std::string& name, int x, int y) {
    const int out = nl.add_net(name);
    nl.add_gate(Gate{&nand2, {x, y}, out, name});
    return out;
  };

  // Classic 9-NAND full adder.
  const int n1 = mk("n1", a, b);
  const int n2 = mk("n2", a, n1);
  const int n3 = mk("n3", b, n1);
  const int axb = mk("axb", n2, n3);  // A xor B
  const int n5 = mk("n5", axb, cin);
  const int n6 = mk("n6", axb, n5);
  const int n7 = mk("n7", cin, n5);
  int sum = mk("sum", n6, n7);
  int carry = mk("carry", n1, n5);

  auto buffer = [&](int net, const std::string& name, double drive) {
    // Two inverters preserve polarity: a 2X pre-driver into the final stage.
    const auto& pre = library.find("INV_2X");
    const auto& fin = library.find("INV", drive);
    const int mid = nl.add_net(name + "_pre");
    const int out = nl.add_net(name + "_buf");
    nl.add_gate(Gate{&pre, {net}, mid, name + "_bufpre"});
    nl.add_gate(Gate{&fin, {mid}, out, name + "_buf"});
    return out;
  };
  if (options.sum_buffer_drive > 0) {
    sum = buffer(sum, "sum", options.sum_buffer_drive);
  }
  if (options.carry_buffer_drive > 0) {
    carry = buffer(carry, "carry", options.carry_buffer_drive);
  }

  nl.mark_output(sum);
  nl.mark_output(carry);
  return nl;
}

}  // namespace cnfet::flow
