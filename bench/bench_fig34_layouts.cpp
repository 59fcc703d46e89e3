// E3 — Figures 3 and 4: construction walk-through of the NAND3 and AOI31
// layouts under both techniques, with strip sequences, ASCII art, and the
// structure/DRC audit (vertical gating) the paper's Section III discusses.
#include <cstdio>

#include "paper_claims.hpp"
#include "layout/strip.hpp"

int main() {
  using cnfet::layout::LayoutStyle;
  using namespace cnfet;
  bench::ClaimCheck claims("fig34");

  std::printf("== E3 / Figures 3-4: layout construction ==\n\n");

  util::TextTable audit(bench::kAuditColumns);
  bool no_vertical_gating = true;
  for (const char* name : {"NAND3", "AOI31"}) {
    const auto& spec = layout::find_cell_spec(name);
    for (const auto style : {LayoutStyle::kEtchedIsolatedBranches,
                             LayoutStyle::kCompactEuler}) {
      const auto built = layout::build_cell(spec, {.style = style});
      std::printf("%s  [%s]\n", name, layout::to_string(style));
      std::printf("  PUN: %s\n",
                  layout::to_string(built.plan.pun, built.netlist).c_str());
      std::printf("  PDN: %s\n",
                  layout::to_string(built.plan.pdn, built.netlist).c_str());
      const auto a = bench::audit_cell(built);
      audit.add_row(a.row);
      const auto& drc = a.conventional_drc;
      std::printf("  DRC (conventional litho, no vertical gating): %s\n",
                  drc.clean() ? "clean" : drc.to_string().c_str());
      // Compact layouts pass conventional DRC; etched [6] needs vias on
      // active gates.
      no_vertical_gating = no_vertical_gating &&
                           drc.clean() == (style == LayoutStyle::kCompactEuler);
    }
    const auto compact = layout::build_cell(spec);
    std::printf("\n%s\n", compact.layout.ascii().c_str());
  }
  std::printf("Structure audit at 4l (DRC: conventional lithography):\n%s\n",
              audit.to_string().c_str());
  claims.measure_holds("fig34.no_vertical_gating", no_vertical_gating);

  // Figure 3 headline: NAND3 PUN at 4 lambda, new vs old.
  const auto& nand3 = layout::find_cell_spec("NAND3");
  const auto old_cell = layout::build_cell(
      nand3, {.style = LayoutStyle::kEtchedIsolatedBranches});
  const auto new_cell = layout::build_cell(nand3);
  const double a_old = old_cell.layout.pun().active_area_lambda2();
  const double a_new = new_cell.layout.pun().active_area_lambda2();
  const double saving = 100.0 * (a_old - a_new) / a_old;
  std::printf("NAND3 PUN at 4l: old %.0f l^2 -> new %.0f l^2, %.2f%% smaller\n",
              a_old, a_new, saving);
  claims.measure("fig34.nand3_pun_saving", saving);
  return claims.report();
}
