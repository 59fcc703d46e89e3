// The at-scale verification tier. The ScaleTier suite runs everywhere
// (fast, sanitizer-friendly sizes); the Scale10k suite is the 10k-gate
// stress tier, registered as a separate ctest entry under the `scale`
// label so sanitizer runs can exclude it (-LE scale).
#include <gtest/gtest.h>

#include <algorithm>

#include "api/flow.hpp"
#include "api/serialize.hpp"
#include "gen/gen.hpp"
#include "opt/opt.hpp"
#include "sim_support.hpp"
#include "sta/timing_graph.hpp"
#include "util/json.hpp"

namespace cnfet {
namespace {

using test::po_values;

const liberty::Library& cnfet_library() {
  static const auto library =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  return *library;
}

gen::Generated random_dag(int gates, int num_inputs, std::uint64_t seed) {
  gen::GenOptions options;
  options.family = gen::Family::kRandomDag;
  options.target_gates = gates;
  options.num_inputs = num_inputs;
  options.seed = seed;
  return gen::generate(cnfet_library(), options);
}

/// Two mutants of `netlist` at the first NAND2/NOR2 that drives a primary
/// output: (a) that gate swapped for its dual, (b) its pin 0 rewired to a
/// primary input it does not read.
std::vector<flow::GateNetlist> output_mutants(
    const flow::GateNetlist& netlist) {
  for (const int po : netlist.outputs()) {
    const int g = netlist.driver_index(po);
    if (g < 0) continue;
    const flow::Gate& gate = netlist.gates()[static_cast<std::size_t>(g)];
    const auto base = liberty::Library::base_name(gate.cell->name);
    if (base != "NAND2" && base != "NOR2") continue;
    std::vector<flow::GateNetlist> mutants(2, netlist);
    mutants[0].resize_gate(
        g, &cnfet_library().find(base == "NAND2" ? "NOR2" : "NAND2", 1.0));
    for (const int pi : netlist.inputs()) {
      if (std::find(gate.inputs.begin(), gate.inputs.end(), pi) ==
          gate.inputs.end()) {
        mutants[1].set_gate_input(g, 0, pi);
        break;
      }
    }
    return mutants;
  }
  ADD_FAILURE() << "no NAND2/NOR2 drives a primary output";
  return {};
}

/// Both checks against one design and its mutants: verify_mapping against
/// `specs` (primary outputs 0..specs.size()-1) and optimize's
/// function_snapshot compare. Each mutant is first confirmed to disagree
/// with the generator's oracle, so it really changes the function.
void expect_checks_catch_mutants(const gen::Generated& design,
                                 const std::vector<flow::OutputSpec>& specs) {
  const auto& netlist = design.netlist;
  const auto snapshot = flow::function_snapshot(netlist);
  ASSERT_TRUE(flow::verify_mapping(flow::MapResult{netlist}, specs));
  const auto vectors = gen::sample_vectors(netlist.inputs().size(), 64, 8);
  const auto mutants = output_mutants(netlist);
  ASSERT_EQ(mutants.size(), 2U);
  for (std::size_t m = 0; m < mutants.size(); ++m) {
    SCOPED_TRACE(m == 0 ? "dual swap" : "rewired pin");
    const auto& mutant = mutants[m];
    ASSERT_TRUE(std::any_of(vectors.begin(), vectors.end(), [&](const auto& vec) {
      return po_values(mutant, vec) != design.oracle(vec);
    }));
    EXPECT_FALSE(flow::verify_mapping(flow::MapResult{mutant}, specs));
    EXPECT_NE(flow::function_snapshot(mutant), snapshot);
  }
}

// --- ScaleTier: fast differential and regression cases -------------------

TEST(ScaleTier, MapCostObjectivesComputeTheSameFunction) {
  const auto& lib = cnfet_library();
  gen::GenOptions options;
  options.family = gen::Family::kCarryLookaheadAdder;
  options.width = 6;
  const auto design = gen::generate(lib, options);
  const auto specs = gen::to_expressions(design.netlist);
  std::vector<std::string> input_names;
  for (const int pi : design.netlist.inputs()) {
    input_names.push_back(design.netlist.net_name(pi));
  }

  flow::MapOptions by_count;
  by_count.cost = flow::MapCost::kGateCount;
  flow::MapOptions by_delay;
  by_delay.cost = flow::MapCost::kDelay;
  const auto count_map =
      flow::map_expressions(specs, input_names, lib, by_count);
  const auto delay_map =
      flow::map_expressions(specs, input_names, lib, by_delay);
  ASSERT_TRUE(flow::verify_mapping(count_map, specs));
  ASSERT_TRUE(flow::verify_mapping(delay_map, specs));

  for (const auto& vec :
       gen::sample_vectors(input_names.size(), 64, 21)) {
    const auto expect = design.oracle(vec);
    EXPECT_EQ(po_values(count_map.netlist, vec), expect);
    EXPECT_EQ(po_values(delay_map.netlist, vec), expect);
  }
}

TEST(ScaleTier, OptimizePreservesFunctionOnSampledVectors) {
  const auto& lib = cnfet_library();
  auto design = random_dag(300, 12, 4);
  const auto vectors =
      gen::sample_vectors(design.netlist.inputs().size(), 64, 5);
  std::vector<std::vector<bool>> before;
  for (const auto& vec : vectors) {
    before.push_back(po_values(design.netlist, vec));
  }

  const auto stats = opt::optimize(design.netlist, lib);
  EXPECT_TRUE(stats.function_verified);  // 12 inputs: exhaustive recheck ran
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(po_values(design.netlist, vectors[i]), before[i])
        << "vector " << i;
  }
}

// The one function check catches a dual swap and a rewired pin at a
// primary-output driver, exhaustively at 16 inputs and on the seeded
// sample at 64 (the rca1112 case is in Scale10k).
TEST(ScaleTier, FunctionChecksCatchOutputMutantsAt16And64Inputs) {
  for (const int inputs : {16, 64}) {
    SCOPED_TRACE(std::to_string(inputs) + " inputs");
    const auto design = random_dag(200, inputs, 3);
    ASSERT_EQ(design.netlist.inputs().size(),
              static_cast<std::size_t>(inputs));
    expect_checks_catch_mutants(design, gen::to_expressions(design.netlist));
  }
}

// Regression: a packed-row simulate on a 65-input design used to shift by
// >= 64 (UB); the vector form carries on past 64 inputs.
TEST(ScaleTier, VectorSimulateCarriesBeyond64Inputs) {
  const auto& lib = cnfet_library();
  gen::GenOptions options;
  options.family = gen::Family::kRippleCarryAdder;
  options.width = 32;  // 65 primary inputs: A, B and CIN
  const auto design = gen::generate(lib, options);
  ASSERT_EQ(design.netlist.inputs().size(), 65U);
  for (const auto& vec : gen::sample_vectors(65, 8, 6)) {
    EXPECT_EQ(po_values(design.netlist, vec), design.oracle(vec));
  }
}

// Regression: net_load()'s primary-output term is tracked eagerly per net;
// replace_output must move it (the cached count once went stale).
TEST(ScaleTier, NetLoadFollowsReplacedOutput) {
  const auto& lib = cnfet_library();
  const auto* inv = &lib.find("INV_1X");
  const double wire_cap = 0.1e-15, output_load = 2e-15;

  auto build = [&](bool moved) {
    flow::GateNetlist netlist;
    const int a = netlist.add_net("A");
    netlist.mark_input(a);
    const int n1 = netlist.add_net("n1");
    const int n2 = netlist.add_net("n2");
    netlist.add_gate(flow::Gate{inv, {a}, n1, "u1"});
    netlist.add_gate(flow::Gate{inv, {n1}, n2, "u2"});
    netlist.mark_output(moved ? n2 : n1);
    return netlist;
  };

  auto mutated = build(false);
  mutated.replace_output(1, 2);  // n1 -> n2
  const auto reference = build(true);
  for (int net = 0; net < mutated.num_nets(); ++net) {
    EXPECT_EQ(mutated.net_load(net, wire_cap, output_load),
              reference.net_load(net, wire_cap, output_load))
        << "net " << net;
  }
}

// --- Scale10k: the 10k-gate stress tier (ctest label `scale`) ------------

TEST(Scale10k, FullFlowExportsDrcClean) {
  auto design = random_dag(10000, 64, 1);
  ASSERT_EQ(design.netlist.gates().size(), 10000U);
  auto made = api::Flow::from_netlist(std::move(design.netlist));
  ASSERT_TRUE(made.ok()) << made.error().message;
  auto& flow = made.value();
  const auto reached = flow.run();
  ASSERT_TRUE(reached.ok()) << reached.error().message;
  EXPECT_EQ(flow.stage(), api::Stage::kExported);
  ASSERT_NE(flow.signed_off(), nullptr);
  EXPECT_TRUE(flow.signed_off()->clean());
  ASSERT_NE(flow.exported(), nullptr);
  EXPECT_GT(flow.placed()->placement.placed_area_lambda2, 0.0);
}

// rca1112's 2,225 inputs: only the checks run (no optimize at this size).
// Its carry chain has no tree-sized Expr, so verify_mapping's spec is S0,
// the primary output the mutated gate drives: A0 ^ B0 ^ CIN.
TEST(Scale10k, FunctionChecksCatchOutputMutantsAt2225Inputs) {
  gen::GenOptions options;
  options.width = 1112;
  const auto design = gen::generate(cnfet_library(), options);
  ASSERT_EQ(design.netlist.inputs().size(), 2225U);
  using logic::Expr;
  const auto xor2 = [](const Expr& a, const Expr& b) {
    return Expr::make_or({Expr::make_and({a, Expr::make_not(b)}),
                          Expr::make_and({Expr::make_not(a), b})});
  };
  const Expr s0 = xor2(xor2(Expr::var(0), Expr::var(1112)), Expr::var(2224));
  expect_checks_catch_mutants(design, {{"S0", s0, false}});
}

TEST(Scale10k, IncrementalRetimeMatchesFullRebuild) {
  const auto& lib = cnfet_library();
  auto design = random_dag(10000, 64, 2);
  sta::TimingGraph graph(design.netlist);
  const double baseline = graph.worst_arrival();
  EXPECT_GT(baseline, 0.0);

  // Resize a spread of gates across the depth range and re-time
  // incrementally after each edit.
  int edits = 0;
  for (int gate = 100; gate < 10000 && edits < 24; gate += 401) {
    const auto& current = *design.netlist.gates()[gate].cell;
    for (const auto& option :
         lib.drives_of(liberty::Library::base_name(current.name))) {
      if (option.cell == &current) continue;
      design.netlist.resize_gate(gate, option.cell);
      graph.on_gate_replaced(gate);
      ++edits;
      break;
    }
    (void)graph.worst_arrival();
  }
  ASSERT_GT(edits, 0);
  EXPECT_TRUE(graph.matches_full_rebuild());
  EXPECT_GT(graph.stats().incremental_retimes, 0U);
}

TEST(Scale10k, SaveResumeRoundTripsByteIdentically) {
  auto design = random_dag(10000, 64, 3);
  auto made = api::Flow::from_netlist(std::move(design.netlist));
  ASSERT_TRUE(made.ok()) << made.error().message;
  auto& flow = made.value();
  ASSERT_TRUE(flow.run(api::Stage::kPlaced).ok());

  const auto saved = flow.session_json();
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto first = util::json::dump(saved.value());

  auto resumed = api::Flow::resume_json(saved.value(), "<test>");
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  const auto again = resumed.value().session_json();
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(first, util::json::dump(again.value()));

  // The resumed session also reports identical metrics.
  EXPECT_EQ(flow.metrics().placed_area_lambda2,
            resumed.value().metrics().placed_area_lambda2);
  EXPECT_EQ(flow.metrics().worst_arrival_s,
            resumed.value().metrics().worst_arrival_s);
}

}  // namespace
}  // namespace cnfet
