// Quickstart: compile an immune CNFET NAND3 from its Boolean function to
// signed-off GDSII with one api::Flow, then peek at the cell-level detail
// (strip plan, immunity proof, ASCII art) of the same cell built directly
// with layout::build_cell.
//
//   $ ./example_quickstart
#include <cstdio>
#include <filesystem>

#include "api/flow.hpp"
#include "layout/cells.hpp"
#include "layout/strip.hpp"

int main(int, char** argv) {
  using namespace cnfet;
  // Generated layouts land next to the binary (the build tree), never in
  // the source checkout.
  const auto out_path = [&](const char* name) {
    return (std::filesystem::path(argv[0]).parent_path() / name).string();
  };

  // 1. The whole logic->GDSII pipeline is one typed object. from_cell
  //    compiles the library cell's function; run() advances through
  //    Mapped -> Timed -> Placed -> SignedOff -> Exported. Nothing throws:
  //    failures come back as structured diagnostics.
  auto flow_result = api::Flow::from_cell("NAND3");
  if (!flow_result.ok()) {
    std::printf("flow creation failed: %s\n",
                flow_result.error().to_string().c_str());
    return 1;
  }
  auto& flow = flow_result.value();
  const auto reached = flow.run();
  std::printf("pipeline log:\n%s", flow.diagnostics().to_string().c_str());
  if (!reached.ok()) return 1;

  const auto metrics = flow.metrics();
  std::printf("\nstage %s: %d gates, delay %.2fps, area %.0f lambda^2, "
              "%d DRC violations, immune: %s\n",
              api::to_string(metrics.stage), metrics.gates,
              metrics.worst_arrival_s * 1e12, metrics.placed_area_lambda2,
              metrics.drc_violations, metrics.all_immune ? "yes" : "NO");

  if (const auto path = flow.write_gds(out_path("nand3_immune.gds"));
      path.ok()) {
    std::printf("wrote %s\n\n", path.value().c_str());
  } else {
    std::printf("GDS write failed: %s\n", path.error().to_string().c_str());
    return 1;
  }

  // 2. Cell-level detail from layout::build_cell: the plane plan is the
  //    paper's Figure 3(b) — one diffusion strip per plane ordered by a
  //    common-gate-order Euler trail.
  const auto nand3 = layout::build_cell(layout::find_cell_spec("NAND3"));
  std::printf("NAND3 pull-up strip : %s\n",
              layout::to_string(nand3.plan.pun, nand3.netlist).c_str());
  std::printf("NAND3 pull-down strip: %s\n",
              layout::to_string(nand3.plan.pdn, nand3.netlist).c_str());
  std::printf("core area: %.0f lambda^2, etched regions: %d, redundant "
              "contacts: %d\n\n",
              nand3.layout.core_area_lambda2(),
              nand3.layout.etch_slot_count(), nand3.plan.redundant_contacts);
  std::printf("%s\n", nand3.layout.ascii().c_str());
  return 0;
}
