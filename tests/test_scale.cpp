// The at-scale verification tier. The ScaleTier suite runs everywhere
// (fast, sanitizer-friendly sizes); the Scale10k suite is the 10k-gate
// stress tier, registered as a separate ctest entry under the `scale`
// label so sanitizer runs can exclude it (-LE scale).
#include <gtest/gtest.h>

#include "api/flow.hpp"
#include "api/serialize.hpp"
#include "gen/gen.hpp"
#include "opt/opt.hpp"
#include "sta/timing_graph.hpp"
#include "util/json.hpp"

namespace cnfet {
namespace {

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

std::string netlist_bytes(const flow::GateNetlist& netlist) {
  return util::json::dump(api::to_json(netlist));
}

std::vector<bool> po_values(const flow::GateNetlist& netlist,
                            const std::vector<bool>& net_values) {
  std::vector<bool> out;
  out.reserve(netlist.outputs().size());
  for (const int po : netlist.outputs()) {
    out.push_back(net_values[static_cast<std::size_t>(po)]);
  }
  return out;
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
  const int n = static_cast<int>(input_names.size());
  ASSERT_TRUE(flow::verify_mapping(count_map, specs, n));
  ASSERT_TRUE(flow::verify_mapping(delay_map, specs, n));

  for (const auto& vec :
       gen::sample_vectors(input_names.size(), 64, 21)) {
    const auto expect = design.oracle(vec);
    EXPECT_EQ(po_values(count_map.netlist, count_map.netlist.simulate(vec)),
              expect);
    EXPECT_EQ(po_values(delay_map.netlist, delay_map.netlist.simulate(vec)),
              expect);
  }
}

TEST(ScaleTier, OptimizePreservesFunctionOnSampledVectors) {
  const auto& lib = cnfet_library();
  auto design = random_dag(300, 12, 4);
  const auto vectors =
      gen::sample_vectors(design.netlist.inputs().size(), 64, 5);
  std::vector<std::vector<bool>> before;
  for (const auto& vec : vectors) {
    before.push_back(po_values(design.netlist, design.netlist.simulate(vec)));
  }

  opt::OptOptions options;
  options.num_threads = 2;
  const auto stats = opt::optimize(design.netlist, lib, options);
  EXPECT_TRUE(stats.function_verified);  // 12 inputs: exhaustive recheck ran
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(po_values(design.netlist, design.netlist.simulate(vectors[i])),
              before[i])
        << "vector " << i;
  }
}

TEST(ScaleTier, ShardedSizingIsBitIdenticalToSerial) {
  const auto& lib = cnfet_library();
  gen::GenOptions gopt;
  gopt.family = gen::Family::kCarryLookaheadAdder;
  gopt.width = 8;
  auto serial = gen::generate(lib, gopt);
  auto sharded = gen::generate(lib, gopt);

  opt::OptOptions one;
  one.num_threads = 1;
  opt::OptOptions four;
  four.num_threads = 4;
  sta::StaResult serial_timing, sharded_timing;
  (void)opt::optimize(serial.netlist, lib, one, &serial_timing);
  (void)opt::optimize(sharded.netlist, lib, four, &sharded_timing);

  EXPECT_EQ(netlist_bytes(serial.netlist), netlist_bytes(sharded.netlist));
  EXPECT_EQ(serial_timing.worst_arrival, sharded_timing.worst_arrival);
  EXPECT_EQ(serial_timing.critical_path, sharded_timing.critical_path);
}

// Regression: simulate(uint64) on a 65-input design used to shift by >= 64
// (UB); it must refuse, and the vector form must carry on.
TEST(ScaleTier, PackedSimulateRefusesBeyond64Inputs) {
  const auto& lib = cnfet_library();
  gen::GenOptions options;
  options.family = gen::Family::kRippleCarryAdder;
  options.width = 32;  // 65 primary inputs: A, B and CIN
  const auto design = gen::generate(lib, options);
  ASSERT_EQ(design.netlist.inputs().size(), 65U);
  EXPECT_THROW((void)design.netlist.simulate(std::uint64_t{0}), util::Error);
  for (const auto& vec : gen::sample_vectors(65, 8, 6)) {
    EXPECT_EQ(po_values(design.netlist, design.netlist.simulate(vec)),
              design.oracle(vec));
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
