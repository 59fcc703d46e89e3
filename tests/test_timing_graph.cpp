// Tests of the pin-level incremental timing graph and the opt:: passes:
// bit-for-bit incremental==full equivalence under randomized edit
// sequences on the paper's circuits, slack/required-time invariants, the
// STA bugfixes (critical-input energy, lowest-net-id tie-break),
// functional equivalence through the optimization pipeline, and the
// in-place undo of rejected buffer trials (GateNetlist::truncate).
#include <gtest/gtest.h>

#include <ctime>
#include <limits>

#include "api/library_cache.hpp"
#include "flow/gate_netlist.hpp"
#include "opt/opt.hpp"
#include "sim_support.hpp"
#include "sta/sta.hpp"
#include "sta/timing_graph.hpp"
#include "util/rng.hpp"

namespace cnfet {
namespace {

using flow::Gate;
using flow::GateNetlist;
using test::row_bits;

const liberty::Library& cnfet_library() {
  static const api::LibraryHandle handle =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  return *handle;
}

/// A chain of inverters with alternating drives: IN -> c0 -> ... -> c{n-1}.
GateNetlist build_inverter_chain(const liberty::Library& library, int length) {
  GateNetlist nl;
  int net = nl.add_net("IN");
  nl.mark_input(net);
  const double drives[] = {1.0, 2.0, 4.0};
  for (int i = 0; i < length; ++i) {
    const auto& cell = library.find("INV", drives[i % 3]);
    const int out = nl.add_net("c" + std::to_string(i));
    nl.add_gate(Gate{&cell, {net}, out, "c" + std::to_string(i)});
    net = out;
  }
  nl.mark_output(net);
  return nl;
}

/// A balanced NAND2 tree over eight leaves.
GateNetlist build_nand_tree(const liberty::Library& library) {
  GateNetlist nl;
  std::vector<int> level;
  for (int i = 0; i < 8; ++i) {
    const int net = nl.add_net("i" + std::to_string(i));
    nl.mark_input(net);
    level.push_back(net);
  }
  const auto& nand2 = library.find("NAND2_1X");
  int serial = 0;
  while (level.size() > 1) {
    std::vector<int> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const std::string name = "t" + std::to_string(serial++);
      const int out = nl.add_net(name);
      nl.add_gate(Gate{&nand2, {level[i], level[i + 1]}, out, name});
      next.push_back(out);
    }
    level = std::move(next);
  }
  nl.mark_output(level.front());
  return nl;
}

/// One randomized resize: a random gate swapped to a random member of its
/// drive family, applied to the netlist and announced to the graph.
void random_resize(GateNetlist& nl, sta::TimingGraph& graph,
                   const liberty::Library& library, util::Xoshiro256& rng) {
  const int g = static_cast<int>(rng() % nl.gates().size());
  const Gate original = nl.gates()[static_cast<std::size_t>(g)];
  const auto family =
      library.drives_of(liberty::Library::base_name(original.cell->name));
  ASSERT_FALSE(family.empty());
  nl.resize_gate(g, family[rng() % family.size()].cell);
  graph.on_gate_replaced(g);
}

TEST(TimingGraph, FullBuildMatchesAnalyzeWrapper) {
  const auto& library = cnfet_library();
  const auto adder = flow::build_full_adder(library, {});
  sta::TimingGraph graph(adder);
  const auto direct = graph.to_sta_result();
  const auto wrapped = sta::analyze(adder);
  EXPECT_EQ(direct.worst_arrival, wrapped.worst_arrival);
  EXPECT_EQ(direct.critical_output, wrapped.critical_output);
  EXPECT_EQ(direct.energy_per_cycle, wrapped.energy_per_cycle);
  EXPECT_EQ(direct.arrival, wrapped.arrival);
  EXPECT_EQ(direct.slew, wrapped.slew);
  EXPECT_EQ(direct.critical_path, wrapped.critical_path);
}

TEST(TimingGraph, IncrementalEqualsFullUnderRandomResizeSequences) {
  const auto& library = cnfet_library();
  util::Xoshiro256 rng(20090420);
  GateNetlist circuits[] = {build_inverter_chain(library, 12),
                            build_nand_tree(library),
                            flow::build_full_adder(library, {})};
  for (auto& nl : circuits) {
    sta::TimingGraph graph(nl);
    for (int edit = 0; edit < 40; ++edit) {
      random_resize(nl, graph, library, rng);
      ASSERT_TRUE(graph.matches_full_rebuild())
          << "edit " << edit << " diverged";
    }
  }
}

TEST(TimingGraph, IncrementalEqualsFullThroughBufferInsertion) {
  const auto& library = cnfet_library();
  auto nl = flow::build_full_adder(library, {});
  sta::TimingGraph graph(nl);
  // Manual polarity-preserving output buffer on SUM, announced edit by
  // edit: two added gates and the moved primary output.
  const int sum = nl.outputs()[0];
  const auto& pre_cell = library.find("INV_2X");
  const auto& fin_cell = library.find("INV_4X");
  const int pre = nl.add_net("sum_pre");
  const int buf = nl.add_net("sum_bufd");
  nl.add_gate(Gate{&pre_cell, {sum}, pre, "sum_pre"});
  graph.on_gate_added(static_cast<int>(nl.gates().size()) - 1);
  EXPECT_TRUE(graph.matches_full_rebuild());
  nl.add_gate(Gate{&fin_cell, {pre}, buf, "sum_bufd"});
  graph.on_gate_added(static_cast<int>(nl.gates().size()) - 1);
  EXPECT_TRUE(graph.matches_full_rebuild());
  nl.replace_output(sum, buf);
  graph.on_output_moved(sum, buf);
  EXPECT_TRUE(graph.matches_full_rebuild());

  // And a sink rewire: move the carry gate's n5 pin onto the buffered
  // net's pre stage (nonsensical electrically, but a legal edit — the
  // graph must track it bit-for-bit).
  const int carry_gate = nl.driver_index(nl.outputs()[1]);
  ASSERT_GE(carry_gate, 0);
  const int old_net = nl.gates()[static_cast<std::size_t>(carry_gate)].inputs[1];
  nl.set_gate_input(carry_gate, 1, pre);
  graph.on_input_rewired(carry_gate, 1, old_net);
  EXPECT_TRUE(graph.matches_full_rebuild());
}

TEST(TimingGraph, SlackAndRequiredTimeInvariants) {
  const auto& library = cnfet_library();
  auto adder = flow::build_full_adder(library, {});
  sta::TimingGraph graph(adder);
  const double worst = graph.worst_arrival();
  ASSERT_GT(worst, 0.0);
  // The worst output's slack is exactly zero (required == arrival there);
  // every net's slack is non-negative up to rounding in the backward
  // subtraction chain.
  EXPECT_EQ(graph.slack(graph.critical_output()), 0.0);
  for (int net = 0; net < adder.num_nets(); ++net) {
    EXPECT_GE(graph.slack(net), -1e-18) << adder.net_name(net);
  }
  // Slack along the critical path stays pinned at ~zero.
  for (const int g : graph.critical_gates()) {
    const int out = adder.gates()[static_cast<std::size_t>(g)].output;
    EXPECT_NEAR(graph.slack(out), 0.0, 1e-18) << adder.net_name(out);
  }
  // An explicit target loosens every slack by the same margin.
  sta::TimingGraph relaxed(adder, {}, worst + 10e-12);
  for (int net = 0; net < adder.num_nets(); ++net) {
    if (graph.required(net) ==
        std::numeric_limits<double>::infinity()) {
      continue;
    }
    EXPECT_NEAR(relaxed.slack(net) - graph.slack(net), 10e-12, 1e-18);
  }
}

TEST(TimingGraph, EnergyUsesTheCriticalInputsSlew) {
  const auto& library = cnfet_library();
  // B ----------------.
  //                    NAND2_1X -> OUT    A -> INV_1X -> x (late, slewed)
  // A -> INV_1X -> x -'
  GateNetlist nl;
  const int a = nl.add_net("A");
  const int b = nl.add_net("B");
  nl.mark_input(a);
  nl.mark_input(b);
  const auto& inv = library.find("INV_1X");
  const auto& nand2 = library.find("NAND2_1X");
  const int x = nl.add_net("x");
  const int out = nl.add_net("OUT");
  nl.add_gate(Gate{&inv, {a}, x, "g_inv"});
  nl.add_gate(Gate{&nand2, {b, x}, out, "g_nand"});
  nl.mark_output(out);

  sta::StaOptions options;
  sta::TimingGraph graph(nl, options);
  // Pin 1 (net x) dominates: it carries the inverter's delay.
  EXPECT_GT(graph.arrival(x), 0.0);
  const double load_x = graph.load(x);
  const double load_out = graph.load(out);
  const double inv_energy =
      0.5 * (inv.arc(0, true).energy.lookup(options.input_slew, load_x) +
             inv.arc(0, false).energy.lookup(options.input_slew, load_x));
  // The fix under test: the NAND's energy is looked up on pin 1's arcs at
  // net x's propagated slew — not on pin 0's arcs at pin 0's slew.
  const double nand_energy =
      0.5 * (nand2.arc(1, true).energy.lookup(graph.slew(x), load_out) +
             nand2.arc(1, false).energy.lookup(graph.slew(x), load_out));
  EXPECT_EQ(graph.energy_per_cycle(), inv_energy + nand_energy);
}

TEST(TimingGraph, WorstOutputTieBreaksToLowestNetId) {
  const auto& library = cnfet_library();
  // Two bitwise-identical INV chains from one input; the later-declared
  // net is marked as an output first, so "last wins" would pick the
  // higher net id.
  GateNetlist nl;
  const int in = nl.add_net("IN");
  nl.mark_input(in);
  const auto& inv = library.find("INV_2X");
  const int o1 = nl.add_net("o1");
  const int o2 = nl.add_net("o2");
  nl.add_gate(Gate{&inv, {in}, o1, "g1"});
  nl.add_gate(Gate{&inv, {in}, o2, "g2"});
  nl.mark_output(o2);
  nl.mark_output(o1);
  sta::TimingGraph graph(nl);
  ASSERT_EQ(graph.arrival(o1), graph.arrival(o2));
  EXPECT_EQ(graph.critical_output(), o1);
}

TEST(TimingGraph, IncrementalRetimeTouchesOnlyTheCone) {
  const auto& library = cnfet_library();
  auto adder = flow::build_full_adder(library, {});
  sta::TimingGraph graph(adder);
  const auto full_evals = graph.stats().gates_evaluated;
  ASSERT_EQ(full_evals, adder.gates().size());

  // Resizing the SUM driver re-times its own arcs plus the two fanin
  // drivers whose loads changed — not the whole graph.
  const int sum_gate = adder.driver_index(adder.outputs()[0]);
  ASSERT_GE(sum_gate, 0);
  adder.resize_gate(sum_gate, &library.find("NAND2_4X"));
  graph.on_gate_replaced(sum_gate);
  (void)graph.worst_arrival();
  const auto delta = graph.stats().gates_evaluated - full_evals;
  EXPECT_LE(delta, 3u);
  EXPECT_LT(delta, adder.gates().size());
  EXPECT_EQ(graph.stats().incremental_retimes, 1u);
}

TEST(TimingGraph, IncrementalRetimeIsMuchFasterThanFullRebuild) {
  const auto& library = cnfet_library();
  // The paper's drawn adder: 9 NAND2 plus the sum/carry buffer pairs.
  // The edit is the sizing pass's bread and butter — swapping the final
  // sum buffer between drives.
  flow::FullAdderOptions sizing;
  sizing.sum_buffer_drive = 9.0;
  sizing.carry_buffer_drive = 7.0;
  auto adder = flow::build_full_adder(library, sizing);
  const auto* c2 = &library.find("INV_7X");
  const auto* c4 = &library.find("INV_9X");
  const int sum_gate = adder.driver_index(adder.outputs()[0]);
  ASSERT_GE(sum_gate, 0);

  // The calling thread's CPU time, not wall time: on a loaded host the
  // scheduler can stall either loop, and a wall-clock ratio then measures
  // the load instead of the re-time.
  const auto now = [] {
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) +
           1e-9 * static_cast<double>(t.tv_nsec);
  };
  const auto seconds = [](double a, double b) { return b - a; };

  // Best-of-5 to shed cache and frequency noise; inner loops amortize
  // clock reads.
  double best_full = 1e300;
  double best_incr = 1e300;
  constexpr int kFull = 200;
  constexpr int kEdits = 2000;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = now();
    for (int i = 0; i < kFull; ++i) {
      sta::TimingGraph fresh(adder);
      (void)fresh.worst_arrival();
    }
    best_full = std::min(best_full, seconds(t0, now()) / kFull);

    sta::TimingGraph graph(adder);
    (void)graph.worst_arrival();
    const auto t1 = now();
    for (int i = 0; i < kEdits; ++i) {
      adder.resize_gate(sum_gate, (i & 1) ? c2 : c4);
      graph.on_gate_replaced(sum_gate);
      (void)graph.worst_arrival();
    }
    best_incr = std::min(best_incr, seconds(t1, now()) / kEdits);
  }
  const double speedup = best_full / best_incr;
  // Sanitizer / unoptimized builds distort the ratio; the Release perf
  // bench (bench_perf + scripts/check_perf.py) enforces the hard 10x gate.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(NDEBUG)
  const double floor = 2.0;
#else
  const double floor = 10.0;
#endif
  EXPECT_GE(speedup, floor)
      << "full " << best_full * 1e9 << "ns vs incremental "
      << best_incr * 1e9 << "ns per edit";
}

TEST(OptPasses, CleanupRemovesDeadAndDuplicateGates) {
  const auto& library = cnfet_library();
  GateNetlist nl;
  const int a = nl.add_net("A");
  const int b = nl.add_net("B");
  nl.mark_input(a);
  nl.mark_input(b);
  const auto& nand2 = library.find("NAND2_1X");
  const auto& inv = library.find("INV_1X");
  const int x1 = nl.add_net("x1");
  const int x2 = nl.add_net("x2");
  const int dead = nl.add_net("dead");
  const int o1 = nl.add_net("o1");
  const int o2 = nl.add_net("o2");
  nl.add_gate(Gate{&nand2, {a, b}, x1, "dup1"});
  nl.add_gate(Gate{&nand2, {a, b}, x2, "dup2"});  // duplicate of dup1
  nl.add_gate(Gate{&inv, {a}, dead, "deadgate"});  // drives nothing
  nl.add_gate(Gate{&inv, {x1}, o1, "u1"});
  nl.add_gate(Gate{&inv, {x2}, o2, "u2"});
  nl.mark_output(o1);
  nl.mark_output(o2);

  const auto before0 = nl.simulate({true, false});
  const bool want_o1 = before0[static_cast<std::size_t>(o1)];
  const bool want_o2 = before0[static_cast<std::size_t>(o2)];

  opt::PassStats stats;
  opt::cleanup(nl, &stats);
  // dup2 merges into dup1, which turns u1/u2 into duplicates of each
  // other; the cascade plus the dead inverter removes three gates.
  EXPECT_EQ(stats.gates_removed, 3);
  EXPECT_EQ(nl.gates().size(), 2u);
  const auto after0 = nl.simulate({true, false});
  EXPECT_EQ(after0[static_cast<std::size_t>(nl.outputs()[0])], want_o1);
  EXPECT_EQ(after0[static_cast<std::size_t>(nl.outputs()[1])], want_o2);
}

TEST(OptPasses, OptimizePreservesFunctionAndVerifiesIncrementally) {
  const auto& library = cnfet_library();
  flow::FullAdderOptions weak;
  weak.nand_drive = 1.0;
  auto nl = flow::build_full_adder(library, weak);

  std::vector<std::vector<bool>> truth_before;
  for (std::uint64_t row = 0; row < 8; ++row) {
    truth_before.push_back(nl.simulate(row_bits(row, 3)));
  }

  opt::OptOptions options;
  options.max_area_growth = 0.6;
  options.verify_incremental = true;  // full-rebuild cross-check per edit
  const auto stats = opt::optimize(nl, library, options);
  EXPECT_GT(stats.edits(), 0);
  EXPECT_LT(stats.delay_after, stats.delay_before);
  EXPECT_LE(stats.area_after, stats.area_before * 1.6 + 1e-9);

  for (std::uint64_t row = 0; row < 8; ++row) {
    const auto after = nl.simulate(row_bits(row, 3));
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      // Outputs may have moved onto buffered nets; compare by position.
      EXPECT_EQ(after[static_cast<std::size_t>(nl.outputs()[o])],
                truth_before[static_cast<std::size_t>(row)]
                            [static_cast<std::size_t>(
                                flow::build_full_adder(library, weak)
                                    .outputs()[o])])
          << "row " << row << " output " << o;
    }
  }
}

TEST(OptPasses, FanoutSplittingKeepsFunction) {
  const auto& library = cnfet_library();
  // One weak inverter fanning out to six distinct NAND2 loads (distinct
  // side inputs, so cleanup cannot merge them): a textbook splitting case.
  GateNetlist nl;
  const int a = nl.add_net("A");
  nl.mark_input(a);
  const auto& inv1 = library.find("INV_1X");
  const auto& nand2 = library.find("NAND2_1X");
  const int x = nl.add_net("x");
  nl.add_gate(Gate{&inv1, {a}, x, "root"});
  for (int i = 0; i < 6; ++i) {
    const int side = nl.add_net("B" + std::to_string(i));
    nl.mark_input(side);
    const int out = nl.add_net("o" + std::to_string(i));
    nl.add_gate(Gate{&nand2, {x, side}, out, "leaf" + std::to_string(i)});
    nl.mark_output(out);
  }

  opt::OptOptions options;
  options.fanout_buffer_threshold = 3;
  options.max_area_growth = 3.0;  // the circuit is tiny; let buffers in
  options.verify_incremental = true;
  const auto stats = opt::optimize(nl, library, options);
  EXPECT_LE(stats.delay_after, stats.delay_before);
  // o_i = NAND(NOT A, B_i); input bit 0 is A, bit i+1 is B_i.
  for (std::uint64_t row = 0; row < (1ull << 7); ++row) {
    const auto values = nl.simulate(row_bits(row, 7));
    const bool not_a = (row & 1) == 0;
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      const bool side = (row >> (o + 1)) & 1;
      EXPECT_EQ(values[static_cast<std::size_t>(nl.outputs()[o])],
                !(not_a && side))
          << "row " << row << " output " << o;
    }
  }
}

/// Every field a rejected trial must restore: gates, net names, ports and
/// each net's driver and fanout list.
void expect_same_netlist(const GateNetlist& actual,
                         const GateNetlist& expected) {
  ASSERT_EQ(actual.gates().size(), expected.gates().size());
  for (std::size_t g = 0; g < expected.gates().size(); ++g) {
    const Gate& a = actual.gates()[g];
    const Gate& e = expected.gates()[g];
    EXPECT_EQ(a.cell, e.cell) << e.name;
    EXPECT_EQ(a.inputs, e.inputs) << e.name;
    EXPECT_EQ(a.output, e.output) << e.name;
    EXPECT_EQ(a.name, e.name);
  }
  ASSERT_EQ(actual.num_nets(), expected.num_nets());
  for (int net = 0; net < expected.num_nets(); ++net) {
    EXPECT_EQ(actual.net_name(net), expected.net_name(net));
    EXPECT_EQ(actual.driver_index(net), expected.driver_index(net)) << net;
    EXPECT_EQ(actual.fanout(net), expected.fanout(net)) << net;
  }
  EXPECT_EQ(actual.inputs(), expected.inputs());
  EXPECT_EQ(actual.outputs(), expected.outputs());
}

TEST(OptPasses, RejectedBufferTrialsLeaveNetlistAndGraphAsTheyWere) {
  const auto& library = cnfet_library();
  // A strong inverter fans out to four weak ones that reconverge on one
  // unloaded NAND2 port: neither buffering the port nor splitting x's
  // fanout pays for two more inverter stages.
  GateNetlist nl;
  const int a = nl.add_net("A");
  nl.mark_input(a);
  const int x = nl.add_net("x");
  nl.add_gate(Gate{&library.find("INV_4X"), {a}, x, "root"});
  std::vector<int> leaves;
  for (int i = 0; i < 4; ++i) {
    leaves.push_back(nl.add_net("y" + std::to_string(i)));
    nl.add_gate(Gate{&library.find("INV_1X"), {x}, leaves.back(),
                     "leaf" + std::to_string(i)});
  }
  const auto& nand2 = library.find("NAND2_1X");
  const int z0 = nl.add_net("z0");
  nl.add_gate(Gate{&nand2, {leaves[0], leaves[1]}, z0, "z0"});
  const int z1 = nl.add_net("z1");
  nl.add_gate(Gate{&nand2, {leaves[2], leaves[3]}, z1, "z1"});
  const int out = nl.add_net("out");
  nl.add_gate(Gate{&nand2, {z0, z1}, out, "out"});
  nl.mark_output(out);

  opt::OptOptions options;
  options.sta.output_load = 0.0;
  options.verify_incremental = true;  // also cross-checks each undo
  sta::TimingGraph graph(nl, options.sta);
  const GateNetlist before = nl;
  const double budget = opt::total_area(nl) * 4.0;
  // The output-buffer trial alone, then again with x's fanout split.
  std::uint64_t evaluated[2] = {};
  for (const int threshold : {0, 4}) {
    SCOPED_TRACE("fanout_buffer_threshold " + std::to_string(threshold));
    options.fanout_buffer_threshold = threshold;
    const auto start = graph.stats().gates_evaluated;
    opt::PassStats stats;
    opt::insert_buffers(nl, graph, library, options, budget, &stats);
    evaluated[threshold == 0 ? 0 : 1] = graph.stats().gates_evaluated - start;
    EXPECT_EQ(stats.buffers_inserted, 0);
    expect_same_netlist(nl, before);
    EXPECT_TRUE(graph.matches_full_rebuild());
  }
  EXPECT_GT(evaluated[0], 0U);            // the output trial ran
  EXPECT_GT(evaluated[1], evaluated[0]);  // and so did the split
}

TEST(GateNetlistTruncate, RefusesToDropANetAKeptGateReadsOrAPort) {
  const auto& inv = cnfet_library().find("INV_1X");
  // IN -> x -> y (the port), then a trial pair x -> p -> b whose undo was
  // left half done: b still feeds gy, or b is still the port.
  const auto build = [&](bool with_pair) {
    GateNetlist nl;
    const int in = nl.add_net("IN");
    nl.mark_input(in);
    const int x = nl.add_net("x");
    nl.add_gate(Gate{&inv, {in}, x, "gx"});
    const int y = nl.add_net("y");
    nl.add_gate(Gate{&inv, {x}, y, "gy"});
    nl.mark_output(y);
    if (with_pair) {
      const int p = nl.add_net("p");
      nl.add_gate(Gate{&inv, {x}, p, "gp"});
      const int b = nl.add_net("b");
      nl.add_gate(Gate{&inv, {p}, b, "gb"});
    }
    return nl;
  };
  auto read = build(true);
  read.set_gate_input(1, 0, 4);
  auto port = build(true);
  port.replace_output(2, 4);
  const std::vector<std::pair<GateNetlist*, std::string>> refused = {
      {&read, "net b is read by a kept gate"},
      {&port, "net b is a primary output"},
  };
  for (const auto& [nl, message] : refused) {
    SCOPED_TRACE(message);
    const GateNetlist before = *nl;
    try {
      (void)nl->truncate(2, 3);
      ADD_FAILURE() << "truncate did not refuse";
    } catch (const util::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
    expect_same_netlist(*nl, before);
  }

  // The whole undo: only x lost a reader, and the pair is gone.
  auto undone = build(true);
  EXPECT_EQ(undone.truncate(2, 3), std::vector<int>{1});
  expect_same_netlist(undone, build(false));
}

TEST(LibertyDrives, DrivesOfEnumeratesTheFamily) {
  const auto& library = cnfet_library();
  const auto inv = library.drives_of("INV");
  ASSERT_EQ(inv.size(), 5u);
  EXPECT_EQ(inv.front().drive, 1.0);
  EXPECT_EQ(inv.back().drive, 9.0);
  for (std::size_t i = 1; i < inv.size(); ++i) {
    EXPECT_LT(inv[i - 1].drive, inv[i].drive);
    EXPECT_EQ(liberty::Library::base_name(inv[i].cell->name), "INV");
  }
  EXPECT_EQ(library.drives_of("NAND2").size(), 3u);
  EXPECT_EQ(library.drives_of("NAND9").size(), 0u);
}

}  // namespace
}  // namespace cnfet
