// Tests of the CNT mispositioning analysis — the paper's central claim:
// compact Euler layouts are 100% functionally immune, the prior etched
// technique is immune, and the naive layout of Figure 2(b) is not.
#include <gtest/gtest.h>

#include "cnt/analyzer.hpp"
#include "layout/cells.hpp"

namespace cnfet::cnt {
namespace {

using layout::build_cell;
using layout::CellBuildOptions;
using layout::CellScheme;
using layout::find_cell_spec;
using layout::LayoutStyle;
using netlist::CellNetlist;

layout::BuiltCell make(const char* name, LayoutStyle style,
                       CellScheme scheme = CellScheme::kScheme1) {
  CellBuildOptions options;
  options.style = style;
  options.scheme = scheme;
  return build_cell(find_cell_spec(name), options);
}

TEST(ExactImmunity, InverterImmuneEvenInNaiveLayout) {
  // Figure 2(a): mispositioned tubes never break an inverter.
  const auto built = make("INV", LayoutStyle::kNaiveVulnerable);
  const auto report = check_exact(built.layout, built.netlist, built.function);
  EXPECT_TRUE(report.immune) << report.to_string(built.netlist);
  EXPECT_EQ(report.short_pairs, 0);
}

TEST(ExactImmunity, NaiveNand2IsVulnerableWithVddOutShort) {
  // Figure 2(b): a fully doped tube shorts VDD to OUT between branches.
  const auto built = make("NAND2", LayoutStyle::kNaiveVulnerable);
  const auto report = check_exact(built.layout, built.netlist, built.function);
  EXPECT_FALSE(report.immune);
  EXPECT_GE(report.short_pairs, 1);
  const auto text = report.to_string(built.netlist);
  EXPECT_NE(text.find("short"), std::string::npos) << text;
}

TEST(ExactImmunity, EtchedNand2IsImmune) {
  // Figure 2(c): the [6] technique restores immunity with etched regions.
  const auto built = make("NAND2", LayoutStyle::kEtchedIsolatedBranches);
  const auto report = check_exact(built.layout, built.netlist, built.function);
  EXPECT_TRUE(report.immune) << report.to_string(built.netlist);
}

TEST(ExactImmunity, CompactEulerFamilyIsFullyImmuneBothSchemes) {
  // The paper's headline: 100% immunity without etched regions.
  for (const auto& spec : layout::standard_cell_family()) {
    for (const auto scheme : {CellScheme::kScheme1, CellScheme::kScheme2}) {
      const auto built = make(spec.name.c_str(), LayoutStyle::kCompactEuler,
                              scheme);
      const auto report =
          check_exact(built.layout, built.netlist, built.function);
      EXPECT_TRUE(report.immune)
          << spec.name << " " << layout::to_string(scheme) << ": "
          << report.to_string(built.netlist);
      EXPECT_EQ(report.short_pairs, 0) << spec.name;
    }
  }
}

TEST(ExactImmunity, EtchedFamilyIsImmuneToo) {
  for (const auto& spec : layout::standard_cell_family()) {
    const auto built =
        make(spec.name.c_str(), LayoutStyle::kEtchedIsolatedBranches);
    const auto report =
        check_exact(built.layout, built.netlist, built.function);
    EXPECT_TRUE(report.immune)
        << spec.name << ": " << report.to_string(built.netlist);
  }
}

TEST(ExactImmunity, NaiveVulnerabilityAcrossFamily) {
  // Every multi-branch cell is vulnerable without etch/reordering; the
  // inverter is the only safe one.
  for (const char* name : {"NAND2", "NAND3", "NOR2", "NOR3", "AOI21",
                           "AOI22", "OAI21", "OAI22"}) {
    const auto built = make(name, LayoutStyle::kNaiveVulnerable);
    const auto report =
        check_exact(built.layout, built.netlist, built.function);
    EXPECT_FALSE(report.immune) << name;
  }
}

TEST(ExactImmunity, StrayChainsAreLogicallyRedundant) {
  // In the NAND3 Euler PUN [Vdd A Out B Vdd C Out], every adjacent contact
  // pair is separated by exactly one gate: strays are single parasitic
  // devices duplicating intended ones.
  const auto built = make("NAND3", LayoutStyle::kCompactEuler);
  const auto report = check_exact(built.layout, built.netlist, built.function);
  ASSERT_TRUE(report.immune);
  int pun_single_gate = 0;
  for (const auto& e : report.effects) {
    EXPECT_FALSE(e.is_short() && e.a != e.b);
    if (e.chain.size() == 1 && e.chain[0].type == netlist::FetType::kP) {
      ++pun_single_gate;
    }
  }
  EXPECT_EQ(pun_single_gate, 3);  // A, B, C strays in the PUN
}

TEST(TraceTube, StraightTubeAcrossOneGateMakesOneChain) {
  const auto built = make("INV", LayoutStyle::kCompactEuler);
  const auto geo = built.layout.geometry();
  // Horizontal tube through the middle of the PUN band.
  const auto& band = geo.bands[0];
  const double y = (band.rect.lo().y + band.rect.hi().y) / 2.0;
  const double x0 = band.rect.lo().x - 1000.0;
  const double x1 = band.rect.hi().x + 1000.0;
  const auto effects = trace_tube(geo, {{x0, y}, {x1, y}});
  ASSERT_EQ(effects.size(), 1u);
  EXPECT_EQ(effects[0].chain.size(), 1u);
  EXPECT_EQ(effects[0].chain[0].gate_input, 0);
  EXPECT_EQ(effects[0].chain[0].type, netlist::FetType::kP);
  const auto nets = std::minmax(effects[0].a, effects[0].b);
  EXPECT_EQ(nets.first, CellNetlist::kVdd);
  EXPECT_EQ(nets.second, CellNetlist::kOut);
}

TEST(TraceTube, TubeOutsideBandsHasNoEffect) {
  const auto built = make("NAND2", LayoutStyle::kCompactEuler);
  const auto geo = built.layout.geometry();
  const auto effects =
      trace_tube(geo, {{-1e6, -1e6}, {-1e6 + 1000.0, -1e6}});
  EXPECT_TRUE(effects.empty());
}

TEST(TraceTube, EtchSlotCutsTheTube) {
  const auto built = make("NAND2", LayoutStyle::kEtchedIsolatedBranches);
  const auto geo = built.layout.geometry();
  const auto& band = geo.bands[0];  // PUN band (has the etch)
  const double y = (band.rect.lo().y + band.rect.hi().y) / 2.0;
  const auto effects = trace_tube(
      geo, {{band.rect.lo().x - 10.0, y}, {band.rect.hi().x + 10.0, y}});
  // The tube crosses [Vdd A Out // Vdd B Out]: two independent chains, no
  // effect joining nets across the etch.
  for (const auto& e : effects) {
    EXPECT_FALSE(e.is_short() && e.a != e.b)
        << "etch failed to cut the tube";
  }
  EXPECT_EQ(effects.size(), 2u);
}

TEST(TraceTube, NaiveNand2StraightTubeProducesShort) {
  const auto built = make("NAND2", LayoutStyle::kNaiveVulnerable);
  const auto geo = built.layout.geometry();
  const auto& band = geo.bands[0];
  const double y = (band.rect.lo().y + band.rect.hi().y) / 2.0;
  const auto effects = trace_tube(
      geo, {{band.rect.lo().x - 10.0, y}, {band.rect.hi().x + 10.0, y}});
  bool found_short = false;
  for (const auto& e : effects) {
    if (e.is_short() && e.a != e.b) found_short = true;
  }
  EXPECT_TRUE(found_short);
}

TEST(MonteCarlo, ImmuneLayoutsHaveUnitYield) {
  for (const char* name : {"NAND2", "NAND3", "AOI21", "AOI31"}) {
    const auto built = make(name, LayoutStyle::kCompactEuler);
    const auto result = monte_carlo(built.layout, built.netlist,
                                    built.function, TubeModel{}, 200, 42);
    EXPECT_EQ(result.failing_trials, 0) << name;
    EXPECT_DOUBLE_EQ(result.yield(), 1.0) << name;
    EXPECT_GT(result.stray_chains, 0) << name
        << ": sampler never hit the cell";
  }
}

TEST(MonteCarlo, VulnerableNand2LosesYield) {
  const auto built = make("NAND2", LayoutStyle::kNaiveVulnerable);
  const auto result = monte_carlo(built.layout, built.netlist, built.function,
                                  TubeModel{}, 400, 42);
  EXPECT_GT(result.failing_trials, 0);
  EXPECT_LT(result.yield(), 1.0);
  EXPECT_GT(result.stray_shorts, 0);
}

TEST(MonteCarlo, DeterministicUnderSeed) {
  const auto built = make("NAND2", LayoutStyle::kNaiveVulnerable);
  const auto a = monte_carlo(built.layout, built.netlist, built.function,
                             TubeModel{}, 100, 7);
  const auto b = monte_carlo(built.layout, built.netlist, built.function,
                             TubeModel{}, 100, 7);
  EXPECT_EQ(a.failing_trials, b.failing_trials);
  EXPECT_EQ(a.stray_shorts, b.stray_shorts);
  EXPECT_EQ(a.stray_chains, b.stray_chains);
}

TEST(MonteCarlo, WilderMisalignmentStillCannotBreakImmuneLayout) {
  TubeModel wild;
  wild.angle_sigma_deg = 30.0;
  wild.outlier_fraction = 0.25;
  wild.bend_sigma_deg = 25.0;
  wild.tubes_per_trial = 60;
  const auto built = make("AOI22", LayoutStyle::kCompactEuler);
  const auto result = monte_carlo(built.layout, built.netlist, built.function,
                                  wild, 150, 99);
  EXPECT_EQ(result.failing_trials, 0);
}

/// A histogram pinned by its leading buckets; the rest are zero.
std::vector<std::int64_t> histogram(std::vector<std::int64_t> leading) {
  leading.resize(MonteCarloResult::kHistogramBuckets, 0);
  return leading;
}

TEST(MonteCarlo, PinnedResultsAtFixedSeed) {
  // Recorded from the netlist-copy trial loop that predates the
  // bit-parallel edge-delta trial: every tally and histogram bucket must
  // stay bit-identical, at any thread count.
  TubeModel wild;
  wild.angle_sigma_deg = 30.0;
  wild.outlier_fraction = 0.25;
  wild.bend_sigma_deg = 25.0;
  wild.tubes_per_trial = 60;
  struct Pinned {
    const char* cell;
    LayoutStyle style;
    TubeModel model;
    int trials;
    std::uint64_t seed;
    int failing_trials;
    std::int64_t stray_shorts;
    std::int64_t stray_chains;
    std::vector<std::int64_t> shorts_histogram;
    std::vector<std::int64_t> chains_histogram;
  };
  const std::vector<Pinned> pinned = {
      {"NAND3", LayoutStyle::kCompactEuler, TubeModel{}, 3000, 2024, 0, 0,
       3798, histogram({3000}),
       histogram({1161, 834, 468, 282, 155, 59, 26, 10, 4, 1})},
      {"AOI22", LayoutStyle::kCompactEuler, TubeModel{}, 3000, 2024, 0, 0,
       8851, histogram({3000}),
       histogram({560, 498, 468, 403, 358, 238, 168, 123, 70, 47, 31, 21, 8,
                  4, 1, 1, 1})},
      {"NAND2", LayoutStyle::kNaiveVulnerable, TubeModel{}, 3000, 2024, 810,
       956, 3217, histogram({2190, 681, 113, 15, 1}),
       histogram({1163, 950, 539, 241, 74, 29, 3, 1})},
      {"NAND2", LayoutStyle::kNaiveVulnerable, wild, 2000, 99, 748, 973, 2547,
       histogram({1252, 567, 145, 29, 6, 1}),
       histogram({593, 691, 426, 199, 61, 20, 7, 3})},
  };
  for (const auto& p : pinned) {
    const auto built = make(p.cell, p.style);
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(p.cell) + " seed " + std::to_string(p.seed) +
                   " threads " + std::to_string(threads));
      const auto r = monte_carlo(built.layout, built.netlist, built.function,
                                 p.model, p.trials, p.seed, threads);
      EXPECT_EQ(r.trials, p.trials);
      EXPECT_EQ(r.failing_trials, p.failing_trials);
      EXPECT_EQ(r.tubes_sampled,
                std::int64_t{p.trials} * p.model.tubes_per_trial);
      EXPECT_EQ(r.stray_shorts, p.stray_shorts);
      EXPECT_EQ(r.stray_chains, p.stray_chains);
      EXPECT_EQ(r.shorts_histogram, p.shorts_histogram);
      EXPECT_EQ(r.chains_histogram, p.chains_histogram);
    }
  }
}

TEST(StrayEdges, ShortAndChainSemantics) {
  std::vector<netlist::ConductionEdge> edges;
  int num_nets = 3;
  append_stray_edges(CellNetlist::kVdd, CellNetlist::kOut, {}, edges,
                     num_nets);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].rows, ~0ull);  // a short conducts in every row
  const StrayLink chain[] = {{0, netlist::FetType::kP},
                             {1, netlist::FetType::kN}};
  append_stray_edges(CellNetlist::kVdd, CellNetlist::kGnd, chain, edges,
                     num_nets);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(num_nets, 4);  // one fresh net between the two links
  EXPECT_EQ(edges[1].a, CellNetlist::kVdd);
  EXPECT_EQ(edges[1].b, 3);
  EXPECT_EQ(edges[1].rows,
            netlist::conducting_rows(netlist::FetType::kP, 0, 0));
  EXPECT_EQ(edges[2].a, 3);
  EXPECT_EQ(edges[2].b, CellNetlist::kGnd);
  EXPECT_EQ(edges[2].rows,
            netlist::conducting_rows(netlist::FetType::kN, 1, 0));
}

}  // namespace
}  // namespace cnfet::cnt
