#include "flow/mapper.hpp"

#include <cstdint>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "util/error.hpp"

namespace cnfet::flow {

namespace {

/// AND-inverter graph with structural hashing. Literals pack node index and
/// complement bit; node 0 is the constant-true node (unused by mapping but
/// keeps literal 0 distinct).
class Aig {
 public:
  struct Node {
    int a = -1, b = -1;   ///< fanin literals (-1 for PIs)
    int var = -1;         ///< primary input index for leaves
  };

  [[nodiscard]] static int make_literal(int node, bool complemented) {
    return node * 2 + (complemented ? 1 : 0);
  }
  [[nodiscard]] static int node_of(int literal) { return literal / 2; }
  [[nodiscard]] static bool complemented(int literal) { return literal & 1; }

  [[nodiscard]] int input(int var) {
    const auto it = input_nodes_.find(var);
    if (it != input_nodes_.end()) return make_literal(it->second, false);
    nodes_.push_back(Node{-1, -1, var});
    const int node = static_cast<int>(nodes_.size()) - 1;
    input_nodes_[var] = node;
    return make_literal(node, false);
  }

  [[nodiscard]] int make_and(int la, int lb) {
    if (la > lb) std::swap(la, lb);
    const std::uint64_t key = (static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(la))
                               << 32) |
                              static_cast<std::uint32_t>(lb);
    const auto it = hash_.find(key);
    if (it != hash_.end()) return make_literal(it->second, false);
    nodes_.push_back(Node{la, lb, -1});
    const int node = static_cast<int>(nodes_.size()) - 1;
    hash_[key] = node;
    return make_literal(node, false);
  }

  [[nodiscard]] int build(const logic::Expr& expr) {
    using logic::Expr;
    switch (expr.kind()) {
      case Expr::Kind::kVar:
        return input(expr.var_index());
      case Expr::Kind::kAnd: {
        int lit = build(expr.children().front());
        for (std::size_t i = 1; i < expr.children().size(); ++i) {
          lit = make_and(lit, build(expr.children()[i]));
        }
        return lit;
      }
      case Expr::Kind::kOr: {
        // x + y = NOT(NOT x AND NOT y)
        int lit = build(expr.children().front()) ^ 1;
        for (std::size_t i = 1; i < expr.children().size(); ++i) {
          lit = make_and(lit, build(expr.children()[i]) ^ 1);
        }
        return lit ^ 1;
      }
      case Expr::Kind::kNot:
        return build(expr.children().front()) ^ 1;
    }
    throw util::Error("unreachable expr kind");
  }

  [[nodiscard]] const Node& node(int index) const {
    return nodes_[static_cast<std::size_t>(index)];
  }

 private:
  std::vector<Node> nodes_;
  std::unordered_map<int, int> input_nodes_;
  std::unordered_map<std::uint64_t, int> hash_;
};

/// (arrival, slew) at a cell output for the given fanin timing, under the
/// same worst-over-pins-and-directions rule the timing graph applies.
struct EstTiming {
  double arrival = 0.0;
  double slew = 20e-12;
};

EstTiming through_cell(const liberty::LibCell* cell,
                       const std::vector<EstTiming>& fanin, double load) {
  EstTiming out;
  out.arrival = 0.0;
  out.slew = fanin.empty() ? 0.0 : fanin.front().slew;
  for (std::size_t pin = 0; pin < fanin.size(); ++pin) {
    for (const bool rising : {true, false}) {
      const auto& arc = cell->arc(static_cast<int>(pin), rising);
      const double d = arc.delay.lookup(fanin[pin].slew, load);
      if (fanin[pin].arrival + d > out.arrival) {
        out.arrival = fanin[pin].arrival + d;
        out.slew = arc.out_slew.lookup(fanin[pin].slew, load);
      }
    }
  }
  return out;
}

/// The kDelay covering DP: for every AIG literal, the best achievable
/// (arrival, slew, gate count) and — for non-inverted AND nodes — whether
/// NOR2 over complemented fanins beats NAND2+INV under the NLDM tables.
/// Runs before emission so the Cover can realize the winning choice
/// without speculative gates.
class DelayDp {
 public:
  DelayDp(const Aig& aig, const liberty::LibCell* inv,
          const liberty::LibCell* nand, const liberty::LibCell* nor,
          double input_slew, double est_load)
      : aig_(aig),
        inv_(inv),
        nand_(nand),
        nor_(nor),
        input_slew_(input_slew),
        est_load_(est_load) {}

  struct Val {
    double arrival = 0.0;
    double slew = 0.0;
    int gates = 0;
    bool use_nor = false;  ///< meaningful for non-inverted AND literals
  };

  const Val& eval(int literal) {
    const auto it = memo_.find(literal);
    if (it != memo_.end()) return it->second;

    const auto& n = aig_.node(Aig::node_of(literal));
    const bool neg = Aig::complemented(literal);
    Val val;
    if (n.var >= 0) {
      if (!neg) {
        val = Val{0.0, input_slew_, 0, false};
      } else {
        const Val& in = eval(literal ^ 1);
        const auto t = through_cell(inv_, {{in.arrival, in.slew}}, est_load_);
        val = Val{t.arrival, t.slew, in.gates + 1, false};
      }
    } else if (neg) {
      // NOT(a AND b) == NAND2(a, b).
      const Val& a = eval(n.a);
      const Val& b = eval(n.b);
      const auto t = through_cell(
          nand_, {{a.arrival, a.slew}, {b.arrival, b.slew}}, est_load_);
      val = Val{t.arrival, t.slew, a.gates + b.gates + 1, false};
    } else {
      // a AND b: NOR2 over complemented fanins vs NAND2 + INV. The NLDM
      // arrival decides; gate count breaks exact ties (the gate-count mode's
      // preference for NOR is kept on a full tie).
      const Val& na = eval(n.a ^ 1);
      const Val& nb = eval(n.b ^ 1);
      const auto t_nor = through_cell(
          nor_, {{na.arrival, na.slew}, {nb.arrival, nb.slew}}, est_load_);
      const int g_nor = na.gates + nb.gates + 1;
      const Val& inner = eval(literal ^ 1);
      const auto t_inv =
          through_cell(inv_, {{inner.arrival, inner.slew}}, est_load_);
      const int g_inv = inner.gates + 1;
      const bool nor_wins =
          t_nor.arrival < t_inv.arrival ||
          (t_nor.arrival == t_inv.arrival && g_nor <= g_inv);
      val = nor_wins ? Val{t_nor.arrival, t_nor.slew, g_nor, true}
                     : Val{t_inv.arrival, t_inv.slew, g_inv, false};
    }
    return memo_.emplace(literal, val).first->second;
  }

 private:
  const Aig& aig_;
  const liberty::LibCell* inv_;
  const liberty::LibCell* nand_;
  const liberty::LibCell* nor_;
  double input_slew_;
  double est_load_;
  // unordered_map: references handed out by eval stay valid across inserts
  // (rehash moves buckets, not nodes), which the recursive a/b evals rely on.
  std::unordered_map<int, Val> memo_;
};

/// Phase-aware covering: produces the net computing a literal, emitting
/// gates on demand and caching per-literal results.
class Cover {
 public:
  Cover(const Aig& aig, GateNetlist& netlist, const liberty::Library& library,
        const std::vector<int>& input_nets, const MapOptions& options)
      : aig_(aig),
        netlist_(netlist),
        library_(library),
        options_(options),
        input_nets_(input_nets) {}

  int nand_count = 0;
  int nor_count = 0;
  int inv_count = 0;

  /// Net carrying the value of `literal`.
  [[nodiscard]] int realize(int literal) {
    const auto it = net_of_.find(literal);
    if (it != net_of_.end()) return it->second;

    const int node = Aig::node_of(literal);
    const bool neg = Aig::complemented(literal);
    const auto& n = aig_.node(node);

    int net = -1;
    if (n.var >= 0) {
      // Primary input leaf.
      if (!neg) {
        net = input_nets_[static_cast<std::size_t>(n.var)];
      } else {
        net = emit(inv(), {realize(literal ^ 1)}, "inv");
        ++inv_count;
      }
    } else if (neg) {
      // NOT(a AND b) == NAND2(a, b).
      net = emit(nand2(), {realize(n.a), realize(n.b)}, "nand");
      ++nand_count;
    } else {
      // a AND b == NOR2(NOT a, NOT b) — one gate over complemented fanins —
      // versus NAND2 + INV. In delay mode the NLDM DP already decided; in
      // gate-count mode, choose by realized-cost lookahead: fanins that
      // already exist in the needed phase are free.
      bool use_nor;
      if (options_.cost == MapCost::kDelay) {
        use_nor = dp().eval(literal).use_nor;
      } else {
        const int cost_nor = (net_of_.count(n.a ^ 1) ? 0 : 1) +
                             (net_of_.count(n.b ^ 1) ? 0 : 1);
        const int cost_nand =
            1 + (net_of_.count(n.a) ? 0 : 1) + (net_of_.count(n.b) ? 0 : 1);
        use_nor = cost_nor <= cost_nand;
      }
      if (use_nor) {
        net = emit(nor2(), {realize(n.a ^ 1), realize(n.b ^ 1)}, "nor");
        ++nor_count;
      } else {
        const int inner = realize(literal ^ 1);
        net = emit(inv(), {inner}, "inv");
        ++inv_count;
      }
    }
    net_of_[literal] = net;
    return net;
  }

 private:
  // Cells resolve lazily: a specification that never needs NAND2/NOR2 (an
  // inverter chain, say) must map against a library that only carries INV,
  // so eager lookups here would wrongly refuse such libraries.
  [[nodiscard]] const liberty::LibCell* inv() {
    if (inv_ == nullptr) {
      inv_ = &library_.find("INV", options_.drive);
    }
    return inv_;
  }
  [[nodiscard]] const liberty::LibCell* nand2() {
    if (nand_ == nullptr) {
      nand_ = &library_.find("NAND2", options_.drive);
    }
    return nand_;
  }
  [[nodiscard]] const liberty::LibCell* nor2() {
    if (nor_ == nullptr) {
      nor_ = &library_.find("NOR2", options_.drive);
    }
    return nor_;
  }
  [[nodiscard]] DelayDp& dp() {
    if (!dp_) {
      dp_ = std::make_unique<DelayDp>(aig_, inv(), nand2(), nor2(),
                                      options_.input_slew, options_.est_load);
    }
    return *dp_;
  }

  int emit(const liberty::LibCell* cell, std::vector<int> ins,
           const std::string& prefix) {
    const std::string id = prefix + std::to_string(serial_++);
    const int out = netlist_.add_net(id);
    netlist_.add_gate(Gate{cell, std::move(ins), out, id});
    return out;
  }

  const Aig& aig_;
  GateNetlist& netlist_;
  const liberty::Library& library_;
  const MapOptions options_;
  const std::vector<int>& input_nets_;
  const liberty::LibCell* inv_ = nullptr;
  const liberty::LibCell* nand_ = nullptr;
  const liberty::LibCell* nor_ = nullptr;
  std::unique_ptr<DelayDp> dp_;  ///< built on first kDelay decision
  std::unordered_map<int, int> net_of_;
  int serial_ = 0;
};

}  // namespace

MapResult map_expressions(const std::vector<OutputSpec>& outputs,
                          const std::vector<std::string>& input_names,
                          const liberty::Library& library,
                          const MapOptions& options) {
  CNFET_REQUIRE(!outputs.empty());
  MapResult result;

  std::vector<int> input_nets;
  for (const auto& name : input_names) {
    const int net = result.netlist.add_net(name);
    result.netlist.mark_input(net);
    input_nets.push_back(net);
  }

  Aig aig;
  Cover cover(aig, result.netlist, library, input_nets, options);
  for (const auto& out : outputs) {
    CNFET_REQUIRE_MSG(out.expr.num_vars() <=
                          static_cast<int>(input_names.size()),
                      "expression uses undeclared inputs");
    int literal = aig.build(out.expr);
    if (out.inverted) literal ^= 1;
    const int net = cover.realize(literal);
    result.netlist.mark_output(net);
  }
  result.nand_count = cover.nand_count;
  result.nor_count = cover.nor_count;
  result.inv_count = cover.inv_count;

  // Output buffering: resize the driver of each primary output in place.
  // 0 leaves the outputs alone; any other value must be a drive the
  // library has.
  if (options.output_drive != 0 && options.output_drive != options.drive) {
    for (const int out : result.netlist.outputs()) {
      const int i = result.netlist.driver_index(out);
      if (i < 0) continue;  // an output fed straight from a primary input
      const auto& gate = result.netlist.gates()[static_cast<std::size_t>(i)];
      result.netlist.resize_gate(
          i, &library.find(liberty::Library::base_name(gate.cell->name),
                           options.output_drive));
    }
  }
  return result;
}

bool verify_mapping(const MapResult& result,
                    const std::vector<OutputSpec>& outputs) {
  const GateNetlist& netlist = result.netlist;
  const std::size_t num_inputs = netlist.inputs().size();
  const std::size_t num_outputs = netlist.outputs().size();
  CNFET_REQUIRE(outputs.size() <= num_outputs);
  const auto patterns = check_patterns(num_inputs);
  const auto got = netlist.simulate_words(patterns.inputs, patterns.words,
                                          netlist.outputs());
  for (std::size_t w = 0; w < patterns.words; ++w) {
    const std::uint64_t* vars = patterns.inputs.data() + w * num_inputs;
    for (std::size_t o = 0; o < outputs.size(); ++o) {
      const std::uint64_t want = outputs[o].expr.eval_word(vars);
      if (got[w * num_outputs + o] != (outputs[o].inverted ? ~want : want)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace cnfet::flow
