// Integration tests of the logic-to-GDSII flow: characterization, mapping,
// STA, placement, DRC and GDS export working together. The library is
// characterized once for the whole suite (it runs many transient sims).
#include <gtest/gtest.h>

#include <sstream>

#include "api/library_cache.hpp"
#include "cnt/analyzer.hpp"
#include "drc/drc.hpp"
#include "flow/gate_netlist.hpp"
#include "flow/gds_export.hpp"
#include "flow/mapper.hpp"
#include "flow/placer.hpp"
#include "layout/cells.hpp"
#include "liberty/library.hpp"
#include "sta/sta.hpp"

namespace cnfet {
namespace {

const liberty::Library& cnfet_library() {
  static const auto library =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  return *library;
}

TEST(Liberty, LibraryHasDriveLadder) {
  const auto& lib = cnfet_library();
  for (const char* name : {"INV_1X", "INV_4X", "INV_9X", "NAND2_2X",
                           "NAND3_1X", "AOI22_1X"}) {
    EXPECT_NO_THROW((void)lib.find(name)) << name;
  }
  EXPECT_THROW((void)lib.find("XOR9_3X"), util::Error);
}

TEST(Liberty, DelayGrowsWithLoadAndShrinksWithDrive) {
  const auto& lib = cnfet_library();
  const auto& inv1 = lib.find("INV_1X");
  const auto& inv4 = lib.find("INV_4X");
  const double slew = 20e-12;
  EXPECT_LT(inv1.worst_delay(slew, 1e-15), inv1.worst_delay(slew, 10e-15));
  EXPECT_LT(inv4.worst_delay(slew, 10e-15), inv1.worst_delay(slew, 10e-15));
}

TEST(Liberty, InputCapScalesWithDrive) {
  const auto& lib = cnfet_library();
  const double c1 = lib.find("INV_1X").input_cap[0];
  const double c9 = lib.find("INV_9X").input_cap[0];
  EXPECT_GT(c9, 5.0 * c1);
  EXPECT_LT(c9, 13.0 * c1);
}

TEST(Liberty, NldmInterpolatesBetweenCorners) {
  const auto& arc = cnfet_library().find("INV_1X").arc(0, true);
  const auto& slews = arc.delay.slews();
  const auto& loads = arc.delay.loads();
  const double mid = arc.delay.lookup((slews[0] + slews[1]) / 2,
                                      (loads[0] + loads[1]) / 2);
  const double lo = arc.delay.at(0, 0);
  const double hi = arc.delay.at(1, 1);
  EXPECT_GE(mid, std::min(lo, hi) * 0.999);
  EXPECT_LE(mid, std::max(lo, hi) * 1.001);
}

TEST(Liberty, TextExportMentionsEveryCell) {
  const auto& lib = cnfet_library();
  const auto text = liberty::to_liberty_text(lib, "cnfet65");
  for (const auto& cell : lib.cells()) {
    EXPECT_NE(text.find("cell (" + cell.name + ")"), std::string::npos);
  }
}

TEST(Mapper, CoversAndVerifiesExpressions) {
  const auto& lib = cnfet_library();
  const std::vector<std::string> inputs = {"A", "B", "C", "D"};
  for (const char* text :
       {"A*B", "A+B", "A*B+C*D", "(A+B)*(C+D)", "A*B*C+D",
        "A*B+A*C+B*C", "(A+B+C)*D"}) {
    std::vector<flow::OutputSpec> outs;
    outs.push_back({"f", logic::parse_expr(text), false});
    outs.push_back({"fn", logic::parse_expr(text), true});
    const auto mapped = flow::map_expressions(outs, inputs, lib);
    EXPECT_GT(mapped.total_gates(), 0) << text;
    EXPECT_TRUE(flow::verify_mapping(mapped, outs)) << text;
  }
}

TEST(Mapper, SharesLogicAcrossOutputs) {
  const auto& lib = cnfet_library();
  const std::vector<std::string> inputs = {"A", "B"};
  std::vector<flow::OutputSpec> two;
  two.push_back({"x", logic::parse_expr("A*B"), true});
  two.push_back({"y", logic::parse_expr("A*B"), true});
  const auto mapped = flow::map_expressions(two, inputs, lib);
  // NOT(A*B) twice is one NAND2, shared.
  EXPECT_EQ(mapped.total_gates(), 1);
}

TEST(FullAdder, SimulatesCorrectly) {
  const auto& lib = cnfet_library();
  const auto adder = flow::build_full_adder(lib, {});
  // Three inputs: one word carries every row (bit r is row r mod 8).
  const auto rows = flow::check_patterns(3);
  ASSERT_EQ(rows.words, 1U);
  const auto out = adder.simulate_words(rows.inputs, 1, adder.outputs());
  const std::uint64_t a = rows.inputs[0], b = rows.inputs[1],
                      cin = rows.inputs[2];
  EXPECT_EQ(out[0], a ^ b ^ cin) << "sum";
  EXPECT_EQ(out[1], (a & b) | (cin & (a ^ b))) << "carry";
}

TEST(Sta, ArrivalMonotoneAlongPaths) {
  const auto& lib = cnfet_library();
  const auto adder = flow::build_full_adder(lib, {});
  const auto result = sta::analyze(adder);
  EXPECT_GT(result.worst_arrival, 0.0);
  EXPECT_FALSE(result.critical_path.empty());
  // Arrival at any gate output >= arrival at each of its inputs.
  for (const auto& gate : adder.gates()) {
    for (const int in : gate.inputs) {
      EXPECT_GE(result.arrival[static_cast<std::size_t>(gate.output)],
                result.arrival[static_cast<std::size_t>(in)]);
    }
  }
}

TEST(Sta, MoreLoadMeansMoreDelay) {
  const auto& lib = cnfet_library();
  const auto adder = flow::build_full_adder(lib, {});
  sta::StaOptions light, heavy;
  light.output_load = 1e-15;
  heavy.output_load = 12e-15;
  EXPECT_LT(sta::analyze(adder, light).worst_arrival,
            sta::analyze(adder, heavy).worst_arrival);
}

TEST(Placer, SchemesCoverAllGatesWithoutOverlap) {
  const auto& lib = cnfet_library();
  flow::FullAdderOptions sizing;
  sizing.nand_drive = 2.0;
  sizing.sum_buffer_drive = 9.0;
  const auto adder = flow::build_full_adder(lib, sizing);
  for (const auto scheme :
       {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2}) {
    flow::PlaceOptions options;
    options.scheme = scheme;
    const auto placement = flow::place(adder, options);
    EXPECT_EQ(placement.instances.size(), adder.gates().size());
    for (std::size_t i = 0; i < placement.instances.size(); ++i) {
      for (std::size_t j = i + 1; j < placement.instances.size(); ++j) {
        const auto& a = placement.instances[i];
        const auto& b = placement.instances[j];
        const geom::Rect ra = geom::Rect::at(a.origin, a.width, a.height);
        const geom::Rect rb = geom::Rect::at(b.origin, b.width, b.height);
        EXPECT_FALSE(ra.overlaps(rb)) << i << " vs " << j;
      }
    }
    EXPECT_GT(placement.utilization(), 0.2);
    EXPECT_LE(placement.utilization(), 1.0);
  }
}

TEST(Placer, Scheme2NeverLargerThanScheme1) {
  const auto& lib = cnfet_library();
  flow::FullAdderOptions sizing;
  sizing.nand_drive = 2.0;
  sizing.sum_buffer_drive = 9.0;
  sizing.carry_buffer_drive = 4.0;
  const auto adder = flow::build_full_adder(lib, sizing);
  flow::PlaceOptions s1, s2;
  s1.scheme = layout::CellScheme::kScheme1;
  s2.scheme = layout::CellScheme::kScheme2;
  EXPECT_LE(flow::place(adder, s2).placed_area_lambda2,
            flow::place(adder, s1).placed_area_lambda2);
}

TEST(GdsExport, PlacedDesignRoundTrips) {
  const auto& lib = cnfet_library();
  const auto adder = flow::build_full_adder(lib, {});
  const auto placement = flow::place(adder, {});
  const auto gds_lib = flow::export_gds(placement, "FA_TOP");
  std::stringstream buf;
  gds::write(gds_lib, buf);
  const auto back = gds::read(buf);
  const auto* top = back.find("FA_TOP");
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->srefs.size(), adder.gates().size());
  // Every referenced structure exists.
  for (const auto& ref : top->srefs) {
    EXPECT_NE(back.find(ref.structure_name), nullptr) << ref.structure_name;
  }
}

TEST(Drc, LibraryCellsAreCleanAndFoldedCellsStayImmune) {
  const auto& lib = cnfet_library();
  for (const auto& cell : lib.cells()) {
    const auto report = drc::check(cell.built.layout);
    EXPECT_TRUE(report.clean()) << cell.name << ": " << report.to_string();
    const auto immunity = cnt::check_exact(cell.built.layout,
                                           cell.built.netlist,
                                           cell.built.function);
    EXPECT_TRUE(immunity.immune)
        << cell.name << ": " << immunity.to_string(cell.built.netlist);
  }
}

TEST(Drc, FlagsViolationsAgainstGoldenDeck) {
  // Draw under a relaxed deck (1-lambda etch), then audit against the
  // golden 65nm deck: the under-sized etched region must be reported.
  auto relaxed = layout::DesignRules::cnfet65();
  relaxed.etch_len = 1.0;
  const auto spec = layout::find_cell_spec("NAND2");
  const auto pdn_expr = logic::parse_expr(spec.pdn_expr);
  auto cell = netlist::build_static_cell(pdn_expr);
  const auto plan =
      layout::plan_planes(cell, layout::LayoutStyle::kEtchedIsolatedBranches);
  const layout::CellLayout bad("NAND2", cell, plan, relaxed,
                               layout::CellScheme::kScheme1);
  drc::DrcOptions opts;
  opts.allow_vertical_gating = true;
  opts.deck = layout::DesignRules::cnfet65();
  const auto report = drc::check(bad, opts);
  EXPECT_FALSE(report.clean());
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.rule == drc::RuleId::kEtchMinSize) found = true;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace cnfet
