// E1 — Table 1: area difference between the new compact (Euler) layout and
// the prior etched-region technique [6], per cell type and transistor size.
//
// Prints this kit's geometric measurements (whole-cell core area; the
// difference is concentrated in the parallel plane, as the paper notes),
// the supporting per-cell structure audit (etch slots, redundant contacts,
// vertical-gating vias, immunity, DRC), and the Table-1 rows of the claims
// ledger.
#include <cstdio>
#include <string>
#include <vector>

#include "paper_claims.hpp"

int main() {
  using namespace cnfet;
  using cnfet::layout::LayoutStyle;
  bench::ClaimCheck claims("table1");

  std::printf("== E1 / Table 1: compact-Euler vs etched-region [6] ==\n\n");

  const double widths[] = {3, 4, 6, 10};
  const char* width_ids[] = {"3l", "4l", "6l", "10l"};
  std::printf("Measured (this kit, cell core area = strips + routing gap):\n");
  util::TextTable measured({"Cell", "3l", "4l", "6l", "10l", "old etch slots",
                            "new redundant contacts"});
  util::TextTable audit(bench::kAuditColumns);
  bool inv_identical = true, compact_smaller = true, both_immune = true;
  bool falls_with_width = true;
  for (const std::string name : {"INV", "NAND2", "NOR2", "NAND3", "NOR3",
                                 "AOI22", "OAI22", "AOI21", "OAI21"}) {
    const auto& spec = layout::find_cell_spec(name);
    std::vector<std::string> row{name};
    std::vector<double> deltas;
    int etches = 0, redundant = 0;
    for (const double w : widths) {
      const auto old_cell = layout::build_cell(
          spec, {.style = LayoutStyle::kEtchedIsolatedBranches,
                 .base_width_lambda = w});
      const auto new_cell = layout::build_cell(
          spec, {.style = LayoutStyle::kCompactEuler, .base_width_lambda = w});
      const double a_old = old_cell.layout.core_area_lambda2();
      const double a_new = new_cell.layout.core_area_lambda2();
      deltas.push_back(100.0 * (a_old - a_new) / a_old);
      row.push_back(util::fmt_percent((a_old - a_new) / a_old, 2));
      etches = old_cell.layout.etch_slot_count();
      redundant = new_cell.plan.redundant_contacts;
      if (name == "INV") {
        inv_identical = inv_identical && a_old == a_new;
      } else {
        compact_smaller = compact_smaller && a_new < a_old;
      }
      if (w == 4.0) {
        for (const auto* cell : {&new_cell, &old_cell}) {
          const auto a = bench::audit_cell(*cell);
          both_immune = both_immune && a.immune;
          audit.add_row(a.row);
        }
      }
    }
    if (name != "INV") {
      falls_with_width = falls_with_width && deltas.back() < deltas.front();
    }
    // Table 1 names each dual pair by its first cell.
    if (name == "NAND2" || name == "NAND3" || name == "AOI22" ||
        name == "AOI21") {
      for (std::size_t w = 0; w < deltas.size(); ++w) {
        claims.measure("table1." + name + "_" + width_ids[w], deltas[w]);
      }
    }
    row.push_back(std::to_string(etches));
    row.push_back(std::to_string(redundant));
    measured.add_row(std::move(row));
  }
  std::printf("%s\n", measured.to_string().c_str());
  std::printf("Structure audit at 4l (DRC: conventional lithography):\n");
  std::printf("%s", audit.to_string().c_str());

  claims.measure_holds("table1.inv_identical", inv_identical);
  claims.measure_holds("table1.compact_smaller", compact_smaller);
  claims.measure_holds("table1.both_immune", both_immune);
  claims.measure_holds("table1.falls_with_width", falls_with_width);
  return claims.report();
}
