// Cross-module property sweeps: invariants that must hold for every cell of
// the family, under every layout style, scheme, and transistor width —
// the "no cell left behind" net under the per-feature unit tests.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "cnt/analyzer.hpp"
#include "drc/drc.hpp"
#include "euler/plane_graph.hpp"
#include "gds/gds.hpp"
#include "layout/cells.hpp"

namespace cnfet {
namespace {

using layout::CellBuildOptions;
using layout::CellScheme;
using layout::LayoutStyle;

using Param = std::tuple<const char*, LayoutStyle, CellScheme, double>;

class FamilyProperty : public ::testing::TestWithParam<Param> {
 protected:
  layout::BuiltCell build() const {
    const auto [name, style, scheme, width] = GetParam();
    CellBuildOptions options;
    options.style = style;
    options.scheme = scheme;
    options.base_width_lambda = width;
    return layout::build_cell(layout::find_cell_spec(name), options);
  }
};

TEST_P(FamilyProperty, NetlistRealizesItsFunction) {
  const auto built = build();
  EXPECT_TRUE(built.netlist.check_function(built.function).ok);
}

TEST_P(FamilyProperty, StripSequencesAreWellFormed) {
  const auto built = build();
  for (const auto* seq : {&built.plan.pun, &built.plan.pdn}) {
    ASSERT_FALSE(seq->empty());
    // Strips start and end on contacts; no two gates abut a strip end.
    EXPECT_EQ(seq->front().kind, layout::ElementKind::kContact);
    EXPECT_EQ(seq->back().kind, layout::ElementKind::kContact);
    // Etch slots never sit at the ends.
    EXPECT_NE(seq->front().kind, layout::ElementKind::kEtch);
    EXPECT_NE(seq->back().kind, layout::ElementKind::kEtch);
  }
}

TEST_P(FamilyProperty, EveryGateAppearsInBothPlanes) {
  const auto built = build();
  for (int input = 0; input < built.netlist.num_inputs(); ++input) {
    int in_pun = 0, in_pdn = 0;
    for (const auto& el : built.plan.pun) {
      if (el.kind == layout::ElementKind::kGate && el.id == input) ++in_pun;
    }
    for (const auto& el : built.plan.pdn) {
      if (el.kind == layout::ElementKind::kGate && el.id == input) ++in_pdn;
    }
    EXPECT_GE(in_pun, 1) << "input " << input;
    EXPECT_GE(in_pdn, 1) << "input " << input;
  }
}

TEST_P(FamilyProperty, GeometryIsSane) {
  const auto built = build();
  const auto geo = built.layout.geometry();
  ASSERT_EQ(geo.bands.size(), 2u);
  EXPECT_FALSE(geo.bands[0].rect.overlaps(geo.bands[1].rect));
  // All contacts/gates/etches belong to some band's vicinity.
  for (const auto& c : geo.contacts) {
    EXPECT_TRUE(c.rect.touches(geo.bands[0].rect) ||
                c.rect.touches(geo.bands[1].rect));
  }
  // Positive core dimensions, bbox contains the core shapes.
  EXPECT_GT(built.layout.core_width_lambda(), 0.0);
  EXPECT_GT(built.layout.core_height_lambda(), 0.0);
  EXPECT_TRUE(built.layout.bbox().contains(built.layout.pun().strip));
  EXPECT_TRUE(built.layout.bbox().contains(built.layout.pdn().strip));
}

TEST_P(FamilyProperty, ImmuneStylesProveImmune) {
  const auto [name, style, scheme, width] = GetParam();
  const auto built = build();
  const auto report =
      cnt::check_exact(built.layout, built.netlist, built.function);
  if (style == LayoutStyle::kNaiveVulnerable) {
    // Only the inverter survives the naive layout.
    EXPECT_EQ(report.immune, std::string(name) == "INV")
        << report.to_string(built.netlist);
  } else {
    EXPECT_TRUE(report.immune) << report.to_string(built.netlist);
  }
}

TEST_P(FamilyProperty, DrcCleanUnderAppropriateDeck) {
  const auto [name, style, scheme, width] = GetParam();
  const auto built = build();
  drc::DrcOptions options;
  options.allow_vertical_gating = style != LayoutStyle::kCompactEuler;
  const auto report = drc::check(built.layout, options);
  EXPECT_TRUE(report.clean()) << name << ": " << report.to_string();
}

TEST_P(FamilyProperty, GdsExportRoundTripsShapeCount) {
  const auto built = build();
  gds::Library lib;
  lib.structures.push_back(built.layout.to_gds());
  std::stringstream buf;
  gds::write(lib, buf);
  const auto back = gds::read(buf);
  ASSERT_EQ(back.structures.size(), 1u);
  EXPECT_EQ(back.structures[0].boundaries.size(),
            lib.structures[0].boundaries.size());
  EXPECT_EQ(back.structures[0].name, built.spec.name);
}

TEST_P(FamilyProperty, AreaScalesWithWidthNotStyleArtifacts) {
  const auto [name, style, scheme, width] = GetParam();
  CellBuildOptions narrow, wide;
  narrow.style = wide.style = style;
  narrow.scheme = wide.scheme = scheme;
  narrow.base_width_lambda = width;
  wide.base_width_lambda = width * 2;
  const auto a = layout::build_cell(layout::find_cell_spec(name), narrow);
  const auto b = layout::build_cell(layout::find_cell_spec(name), wide);
  EXPECT_GT(b.layout.core_area_lambda2(), a.layout.core_area_lambda2());
  // Strip length (core width) is width-independent.
  EXPECT_DOUBLE_EQ(b.layout.core_width_lambda(),
                   a.layout.core_width_lambda());
}

INSTANTIATE_TEST_SUITE_P(
    FamilyStyleSchemeWidth, FamilyProperty,
    ::testing::Combine(
        ::testing::Values("INV", "NAND2", "NAND3", "NOR2", "NOR3", "AOI21",
                          "AOI22", "OAI21", "OAI22", "AOI31"),
        ::testing::Values(LayoutStyle::kNaiveVulnerable,
                          LayoutStyle::kEtchedIsolatedBranches,
                          LayoutStyle::kCompactEuler),
        ::testing::Values(CellScheme::kScheme1, CellScheme::kScheme2),
        ::testing::Values(3.0, 4.0, 6.0, 10.0)));

/// Euler invariants on random-ish series-parallel expressions.
class EulerProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(EulerProperty, DecompositionIsMinimalAndCoversEdges) {
  const auto cell = netlist::build_static_cell(logic::parse_expr(GetParam()));
  for (const auto type : {netlist::FetType::kP, netlist::FetType::kN}) {
    const auto edges = euler::plane_edges(cell, type);
    const auto order = euler::euler_decompose(edges);
    EXPECT_EQ(static_cast<int>(order.trails.size()),
              euler::min_trail_count(edges));
    std::size_t covered = 0;
    for (const auto& t : order.trails) covered += t.steps.size();
    EXPECT_EQ(covered, edges.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, EulerProperty,
    ::testing::Values("A*B+C*D+A*C", "(A+B)*(C+D)*E", "A*B*C*D+E",
                      "(A+B)*C+D*E", "A+B*C+D*E*F", "(A+B+C+D)*E",
                      "A*(B+C*(D+E))", "(A*B+C)*(D+E)"));

}  // namespace
}  // namespace cnfet
