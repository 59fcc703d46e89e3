// Unit tests for strip construction, plane planning, and cell assembly.
#include <gtest/gtest.h>

#include "cnt/analyzer.hpp"
#include "drc/drc.hpp"
#include "layout/cells.hpp"
#include "layout/generate.hpp"
#include "layout/strip.hpp"

namespace cnfet::layout {
namespace {

using netlist::CellNetlist;
using netlist::FetType;

PlaneSeq nand3_pun_euler() {
  // [Vdd A Out B Vdd C Out] — the paper's Figure 3(b) PUN.
  return {PlaneElement::contact(CellNetlist::kVdd), PlaneElement::gate(0),
          PlaneElement::contact(CellNetlist::kOut), PlaneElement::gate(1),
          PlaneElement::contact(CellNetlist::kVdd), PlaneElement::gate(2),
          PlaneElement::contact(CellNetlist::kOut)};
}

TEST(Strip, Nand3EulerPunLengthMatchesRules) {
  // 4 contacts (3l) + 3 gates (2l) + 6 gate-contact spaces (1l) = 24l.
  const auto strip = build_strip(nand3_pun_euler(), FetType::kP, 4.0,
                                 DesignRules::cnfet65());
  EXPECT_DOUBLE_EQ(geom::to_lambda(strip.length()), 24.0);
  EXPECT_DOUBLE_EQ(geom::to_lambda(strip.device_width()), 4.0);
  EXPECT_DOUBLE_EQ(strip.active_area_lambda2(), 96.0);
}

TEST(Strip, EtchAddsExactlyItsOwnLength) {
  // The paper: each minimum etched region widens the strip by 2 lambda.
  PlaneSeq with_etch = nand3_pun_euler();
  with_etch.insert(with_etch.begin() + 3, PlaneElement::etch());
  const auto rules = DesignRules::cnfet65();
  const auto a = build_strip(nand3_pun_euler(), FetType::kP, 4.0, rules);
  const auto b = build_strip(with_etch, FetType::kP, 4.0, rules);
  // Inserting the etch between contact and gate replaces a 1l space with
  // 0l + 2l etch + 0l: net +1l over the removed space... the etch abuts.
  EXPECT_EQ(geom::to_lambda(b.length() - a.length()),
            rules.etch_len - rules.gate_contact_space);
}

TEST(Strip, GateOverhangCoversBand) {
  const auto rules = DesignRules::cnfet65();
  const auto strip = build_strip(nand3_pun_euler(), FetType::kP, 4.0, rules);
  for (const auto& g : strip.gates) {
    EXPECT_LE(g.rect.lo().y, strip.band.lo().y);
    EXPECT_GE(g.rect.hi().y, strip.band.hi().y);
  }
}

TEST(Strip, GateAnchorsStretchDiffusion) {
  const auto rules = DesignRules::cnfet65();
  const PlaneSeq pdn = {
      PlaneElement::contact(CellNetlist::kOut),  PlaneElement::gate(0),
      PlaneElement::gate(1),                     PlaneElement::gate(2),
      PlaneElement::contact(CellNetlist::kGnd)};
  const auto anchors = align_gate_positions(nand3_pun_euler(), pdn, rules);
  const auto pun =
      build_strip(nand3_pun_euler(), FetType::kP, 4.0, rules, 0, &anchors);
  const auto pdn_strip = build_strip(pdn, FetType::kN, 12.0, rules, 0, &anchors);
  ASSERT_EQ(pun.gates.size(), pdn_strip.gates.size());
  for (std::size_t i = 0; i < pun.gates.size(); ++i) {
    EXPECT_EQ(pun.gates[i].rect.lo().x, pdn_strip.gates[i].rect.lo().x)
        << "gate " << i << " misaligned";
  }
}

TEST(PlanePlan, EulerNand3MatchesPaperFigure3b) {
  const auto built = build_cell(find_cell_spec("NAND3"));
  EXPECT_EQ(to_string(built.plan.pun, built.netlist),
            "[VDD A OUT B VDD C OUT]");
  EXPECT_EQ(to_string(built.plan.pdn, built.netlist), "[OUT A B C GND]");
  EXPECT_EQ(etch_count(built.plan.pun), 0);
  EXPECT_EQ(built.plan.redundant_contacts, 2);  // VDD and OUT duplicated
  EXPECT_TRUE(built.plan.gates_aligned);
}

TEST(PlanePlan, PatilNand3HasTwoEtchedRegions) {
  CellBuildOptions options;
  options.style = LayoutStyle::kEtchedIsolatedBranches;
  const auto built = build_cell(find_cell_spec("NAND3"), options);
  // Paper Figure 3(a): two etched regions in the PUN between A-B and B-C.
  EXPECT_EQ(etch_count(built.plan.pun), 2);
  EXPECT_EQ(etch_count(built.plan.pdn), 0);  // series chain needs none
  EXPECT_EQ(to_string(built.plan.pun, built.netlist),
            "[VDD A OUT // VDD B OUT // VDD C OUT]");
}

TEST(PlanePlan, NaiveNand2OmitsEtch) {
  CellBuildOptions options;
  options.style = LayoutStyle::kNaiveVulnerable;
  const auto built = build_cell(find_cell_spec("NAND2"), options);
  EXPECT_EQ(etch_count(built.plan.pun), 0);
  // Adjacent OUT/VDD contacts with nothing between: Figure 2(b).
  EXPECT_EQ(to_string(built.plan.pun, built.netlist),
            "[VDD A OUT VDD B OUT]");
}

TEST(PlanePlan, Aoi31MatchesPaperFigure4) {
  const auto built = build_cell(find_cell_spec("AOI31"));
  // PDN: product terms ABC and D both between OUT and GND; PUN: the POS
  // (A+B+C)*D with intermediate contact m1 — one strip each, no etch.
  EXPECT_EQ(etch_count(built.plan.pun), 0);
  EXPECT_EQ(etch_count(built.plan.pdn), 0);
  EXPECT_EQ(built.plan.trail_breaks, 0);
}

TEST(CellLayout, InverterCoreMatchesCaseStudy1Bookkeeping) {
  // CNFET inverter, W = 4l: core height = 4 + 6 + 4 = 14l.
  const auto cnfet = build_cell(find_cell_spec("INV"));
  EXPECT_DOUBLE_EQ(cnfet.layout.core_height_lambda(), 14.0);
  // CMOS inverter: 4 (n) + 10 + 5.6 (p = 1.4x) = 19.6l. The area gain this
  // gives is the ledger's claim fig7.inverter_area_gain.
  CellBuildOptions cmos_options;
  cmos_options.tech = Tech::kCmos65;
  const auto cmos = build_cell(find_cell_spec("INV"), cmos_options);
  EXPECT_DOUBLE_EQ(cmos.layout.core_height_lambda(), 19.6);
}

TEST(CellLayout, Scheme2ShrinksHeight) {
  CellBuildOptions s1, s2;
  s2.scheme = CellScheme::kScheme2;
  const auto a = build_cell(find_cell_spec("NAND2"), s1);
  const auto b = build_cell(find_cell_spec("NAND2"), s2);
  EXPECT_LT(b.layout.core_height_lambda(), a.layout.core_height_lambda());
  EXPECT_GT(b.layout.core_width_lambda(), a.layout.core_width_lambda());
}

TEST(CellLayout, EulerCompactBeatsEtchedOnArea) {
  for (const char* name : {"NAND2", "NAND3", "NOR3", "AOI21", "AOI22",
                           "OAI21", "OAI22", "AOI31"}) {
    CellBuildOptions euler_opt, patil_opt;
    patil_opt.style = LayoutStyle::kEtchedIsolatedBranches;
    const auto compact = build_cell(find_cell_spec(name), euler_opt);
    const auto etched = build_cell(find_cell_spec(name), patil_opt);
    // The cell footprint always shrinks; note the compact cell's *active*
    // area can exceed the etched one's because its PDN is stretched for
    // straight-poly gate alignment (a deliberate trade).
    EXPECT_LT(compact.layout.core_area_lambda2(),
              etched.layout.core_area_lambda2())
        << name;
  }
}

TEST(CellLayout, Nand3StructureAuditCompactVsEtched) {
  // Table 1's structure audit at 4l: the etched technique pays two etch
  // slots and vias on gates; both stay immune and DRC-clean (the etched
  // cell under the vertical-gating deck it needs by construction).
  CellBuildOptions patil_opt;
  patil_opt.style = LayoutStyle::kEtchedIsolatedBranches;
  const auto euler = build_cell(find_cell_spec("NAND3"));
  const auto etched = build_cell(find_cell_spec("NAND3"), patil_opt);
  EXPECT_EQ(euler.layout.etch_slot_count(), 0);
  EXPECT_EQ(etched.layout.etch_slot_count(), 2);
  EXPECT_EQ(euler.layout.via_on_gate_count(), 0);
  EXPECT_GT(etched.layout.via_on_gate_count(), 0);
  EXPECT_LT(euler.layout.core_area_lambda2(),
            etched.layout.core_area_lambda2());
  for (const auto* built : {&euler, &etched}) {
    EXPECT_TRUE(
        cnt::check_exact(built->layout, built->netlist, built->function)
            .immune);
  }
  EXPECT_TRUE(drc::check(euler.layout).clean());
  drc::DrcOptions vertical_gating;
  vertical_gating.allow_vertical_gating = true;
  EXPECT_TRUE(drc::check(etched.layout, vertical_gating).clean());
}

TEST(CellLayout, InverterLayoutsAreIdenticalAcrossTechniques) {
  // Table 1 row 1: the inverter admits no saving (single device per plane).
  CellBuildOptions euler_opt, patil_opt;
  patil_opt.style = LayoutStyle::kEtchedIsolatedBranches;
  const auto a = build_cell(find_cell_spec("INV"), euler_opt);
  const auto b = build_cell(find_cell_spec("INV"), patil_opt);
  EXPECT_DOUBLE_EQ(a.layout.active_area_lambda2(),
                   b.layout.active_area_lambda2());
  EXPECT_DOUBLE_EQ(a.layout.core_area_lambda2(),
                   b.layout.core_area_lambda2());
}

TEST(CellLayout, NoViaOnGateForEulerScheme1) {
  for (const auto& spec : standard_cell_family()) {
    const auto built = build_cell(spec);
    EXPECT_EQ(built.layout.via_on_gate_count(), 0) << spec.name;
  }
}

TEST(CellLayout, GeometryBandsAreDisjoint) {
  for (const auto& spec : standard_cell_family()) {
    for (const auto scheme : {CellScheme::kScheme1, CellScheme::kScheme2}) {
      CellBuildOptions options;
      options.scheme = scheme;
      const auto built = build_cell(spec, options);
      const auto geo = built.layout.geometry();
      ASSERT_EQ(geo.bands.size(), 2u);
      EXPECT_FALSE(geo.bands[0].rect.overlaps(geo.bands[1].rect))
          << spec.name << " " << to_string(scheme);
    }
  }
}

TEST(CellLayout, AsciiRenderContainsStripsAndPins) {
  const auto built = build_cell(find_cell_spec("NAND2"));
  const auto art = built.layout.ascii();
  EXPECT_NE(art.find('V'), std::string::npos);  // VDD contact
  EXPECT_NE(art.find('a'), std::string::npos);  // gate A
  EXPECT_NE(art.find('@'), std::string::npos);  // pin
}

/// Parameterized sweep over the whole family x widths used by Table 1.
class FamilyWidthSweep
    : public ::testing::TestWithParam<std::tuple<const char*, double>> {};

TEST_P(FamilyWidthSweep, LayoutsScaleMonotonically) {
  const auto [name, width] = GetParam();
  CellBuildOptions options;
  options.base_width_lambda = width;
  const auto built = build_cell(find_cell_spec(name), options);
  EXPECT_GT(built.layout.active_area_lambda2(), 0.0);
  // Height grows with base width; strip length does not depend on it.
  CellBuildOptions wider = options;
  wider.base_width_lambda = width + 2.0;
  const auto bigger = build_cell(find_cell_spec(name), wider);
  EXPECT_GT(bigger.layout.core_height_lambda(),
            built.layout.core_height_lambda());
  EXPECT_DOUBLE_EQ(bigger.layout.core_width_lambda(),
                   built.layout.core_width_lambda());
}

INSTANTIATE_TEST_SUITE_P(
    Table1Grid, FamilyWidthSweep,
    ::testing::Combine(::testing::Values("INV", "NAND2", "NAND3", "NOR2",
                                         "NOR3", "AOI21", "AOI22", "OAI21",
                                         "OAI22"),
                       ::testing::Values(3.0, 4.0, 6.0, 10.0)));

}  // namespace
}  // namespace cnfet::layout
