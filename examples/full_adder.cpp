// Case study 2 as an application: the 9-NAND full adder adopted into
// api::Flow at the Mapped stage, then timed, placed under both schemes,
// signed off and exported — no hand-wired stage plumbing.
#include <cstdio>
#include <filesystem>

#include "api/batch.hpp"
#include "api/flow.hpp"

int main(int, char** argv) {
  using namespace cnfet;
  // Generated layouts land next to the binary (the build tree), never in
  // the source checkout.
  const auto out_path = [&](const char* name) {
    return (std::filesystem::path(argv[0]).parent_path() / name).string();
  };

  std::printf("characterizing CNFET library...\n");
  auto library = api::LibraryCache::global().get(layout::Tech::kCnfet65);
  if (!library.ok()) {
    std::printf("%s\n", library.error().to_string().c_str());
    return 1;
  }

  flow::FullAdderOptions sizing;
  sizing.nand_drive = 2.0;
  sizing.sum_buffer_drive = 9.0;
  sizing.carry_buffer_drive = 7.0;
  const auto adder = flow::build_full_adder(*library.value(), sizing);

  // Functional check: SUM = A^B^CIN, CARRY = MAJ(A,B,CIN). With the
  // polarity-preserving buffers, the outputs carry the true functions.
  // Three inputs fit one simulate_words lane per row, so one word holds
  // the whole truth table (bit r is row r mod 8).
  const auto rows = flow::check_patterns(3);
  const auto out = adder.simulate_words(rows.inputs, rows.words,
                                        adder.outputs());
  const std::uint64_t a = rows.inputs[0], b = rows.inputs[1],
                      cin = rows.inputs[2];
  const bool ok =
      out[0] == (a ^ b ^ cin) && out[1] == ((a & b) | (cin & (a ^ b)));
  std::printf("full adder truth table: %s\n", ok ? "PASS" : "FAIL");

  // One flow per placement scheme, both adopting the same netlist.
  for (const auto scheme :
       {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2}) {
    api::FlowOptions options;
    options.library = library.value();
    options.place.scheme = scheme;
    options.top_name = "FULL_ADDER";
    auto flow_result = api::Flow::from_netlist(adder, options);
    if (!flow_result.ok()) {
      std::printf("%s\n", flow_result.error().to_string().c_str());
      return 1;
    }
    auto& flow = flow_result.value();
    if (!flow.run().ok()) {
      std::printf("%s", flow.diagnostics().to_string().c_str());
      return 1;
    }
    const auto m = flow.metrics();
    if (scheme == layout::CellScheme::kScheme1) {
      std::printf("delay %.2fps, energy/cycle %.2ffJ, critical path:",
                  m.worst_arrival_s * 1e12, m.energy_per_cycle_j * 1e15);
      for (const auto& g : flow.timed()->timing.critical_path) {
        std::printf(" %s", g.c_str());
      }
      std::printf("\n");
    }
    std::printf("%s: area %.0f lambda^2, utilization %.1f%%, "
                "%d DRC violations, immune: %s\n",
                layout::to_string(scheme), m.placed_area_lambda2,
                100.0 * m.utilization, m.drc_violations,
                m.all_immune ? "yes" : "NO");
    if (scheme == layout::CellScheme::kScheme2) {
      const auto path = flow.write_gds(out_path("full_adder_scheme2.gds"));
      if (!path.ok()) {
        std::printf("GDS write failed: %s\n",
                    path.error().to_string().c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.value().c_str());
    }
  }

  // Timing-driven optimization: hand the opt:: passes an unbuffered all-1X
  // adder and let Stage::kOptimized size/buffer it inside an area budget.
  flow::FullAdderOptions weak;
  weak.nand_drive = 1.0;
  api::FlowOptions oopt;
  oopt.library = library.value();
  oopt.optimize = true;
  oopt.max_area_growth = 0.5;
  auto optimized = api::Flow::from_netlist(
      flow::build_full_adder(*library.value(), weak), oopt);
  if (!optimized.ok() ||
      !optimized.value().run(api::Stage::kOptimized).ok()) {
    std::printf("optimization flow failed\n");
    return 1;
  }
  const auto om = optimized.value().metrics();
  std::printf("optimized all-1X adder: delay %.2fps -> %.2fps, "
              "%d resized, %d buffer gates, area growth %.1f%%\n",
              om.pre_opt_worst_arrival_s * 1e12, om.worst_arrival_s * 1e12,
              om.gates_resized, om.buffers_inserted,
              100.0 * om.opt_area_growth);
  return ok ? 0 : 1;
}
