// E1 — Table 1: area difference between the new compact (Euler) layout and
// the prior etched-region technique [6], per cell type and transistor size.
//
// Prints three blocks: the paper's reported numbers, our geometric
// measurements (whole-cell core area; the difference is concentrated in the
// parallel plane, as the paper notes), and the supporting per-cell
// structure audit (etch slots, redundant contacts, vertical-gating vias,
// immunity, DRC).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cnt/analyzer.hpp"
#include "drc/drc.hpp"
#include "layout/cells.hpp"
#include "util/table.hpp"

namespace {

using namespace cnfet;
using cnfet::layout::LayoutStyle;
using cnfet::util::fmt_fixed;
using cnfet::util::fmt_percent;
using cnfet::util::TextTable;

const std::vector<double> kWidths = {3, 4, 6, 10};

// Paper Table 1 (percent area difference, new vs old).
const std::map<std::string, std::vector<double>> kPaper = {
    {"INV", {0, 0, 0, 0}},
    {"NAND2/NOR2", {17.18, 14.52, 11.67, 9.25}},
    {"NAND3/NOR3", {19.64, 16.67, 13.45, 10.71}},
    {"AOI22/OAI22", {32.2, 27.7, 22.5, 14.9}},
    {"AOI21/OAI21", {44.3, 40.6, 36.4, 32.5}},
};

/// One structure-audit row: area, etch/contact/via counts, the exact
/// immunity proof and DRC. The etched technique needs vertical gating by
/// construction, so it is checked under the relaxed deck to keep the area
/// comparison apples-to-apples.
std::vector<std::string> audit_row(const layout::BuiltCell& built) {
  const auto style = built.plan.style;
  const bool immune =
      cnt::check_exact(built.layout, built.netlist, built.function).immune;
  drc::DrcOptions drc_options;
  drc_options.allow_vertical_gating = style != LayoutStyle::kCompactEuler;
  const bool drc_clean = drc::check(built.layout, drc_options).clean();
  return {built.spec.name,
          layout::to_string(style),
          fmt_fixed(built.layout.active_area_lambda2(), 0),
          fmt_fixed(built.layout.core_area_lambda2(), 0),
          std::to_string(built.layout.etch_slot_count()),
          std::to_string(built.plan.redundant_contacts),
          std::to_string(built.layout.via_on_gate_count()),
          immune ? "yes" : "NO",
          drc_clean ? "clean" : "VIOLATIONS"};
}

}  // namespace

int main() {
  std::printf("== E1 / Table 1: compact-Euler vs etched-region [6] ==\n\n");

  std::printf("Paper-reported area difference:\n");
  {
    TextTable t({"Cell type", "3l", "4l", "6l", "10l"});
    for (const auto& [name, row] : kPaper) {
      t.add_row({name, fmt_fixed(row[0], 2) + "%", fmt_fixed(row[1], 2) + "%",
                 fmt_fixed(row[2], 2) + "%", fmt_fixed(row[3], 2) + "%"});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  std::printf("Measured (this kit, cell core area = strips + routing gap):\n");
  TextTable measured({"Cell", "3l", "4l", "6l", "10l", "old etch slots",
                      "new redundant contacts"});
  TextTable audit({"Cell", "style", "active area (l^2)", "core area (l^2)",
                   "etch", "red.contacts", "via-on-gate", "immune", "DRC"});
  for (const char* name : {"INV", "NAND2", "NOR2", "NAND3", "NOR3", "AOI22",
                           "OAI22", "AOI21", "OAI21"}) {
    const auto& spec = layout::find_cell_spec(name);
    std::vector<std::string> row{name};
    int etches = 0, redundant = 0;
    for (const double w : kWidths) {
      const auto old_cell = layout::build_cell(
          spec, {.style = LayoutStyle::kEtchedIsolatedBranches,
                 .base_width_lambda = w});
      const auto new_cell = layout::build_cell(
          spec, {.style = LayoutStyle::kCompactEuler, .base_width_lambda = w});
      const double a_old = old_cell.layout.core_area_lambda2();
      const double a_new = new_cell.layout.core_area_lambda2();
      row.push_back(fmt_percent((a_old - a_new) / a_old, 2));
      etches = old_cell.layout.etch_slot_count();
      redundant = new_cell.plan.redundant_contacts;
      if (w == 4.0) {
        audit.add_row(audit_row(new_cell));
        audit.add_row(audit_row(old_cell));
      }
    }
    row.push_back(std::to_string(etches));
    row.push_back(std::to_string(redundant));
    measured.add_row(std::move(row));
  }
  std::printf("%s\n", measured.to_string().c_str());

  std::printf("Structure audit at 4l (both techniques):\n");
  std::printf("%s\n", audit.to_string().c_str());

  std::printf(
      "Shape check: INV identical under both techniques; every multi-branch\n"
      "cell is strictly smaller with the compact technique; both remain\n"
      "100%% immune. Our strip-geometry deltas are width-independent by\n"
      "construction; the paper's fall with width (see \"Model calibration\n"
      "and the Table-1 deviation\" in docs/reproducing_the_paper.md).\n");
  return 0;
}
