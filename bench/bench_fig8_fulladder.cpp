// E5 — Figure 8 / case study 2: the 9-NAND full adder.
//
// Characterizes the CNFET and CMOS libraries (shared through
// api::LibraryCache), sizes the adder at its EDP-optimal point by running
// one api::Flow per candidate sizing to the Timed stage, and places it
// three ways: CMOS rows, CNFET scheme 1 (standardized heights) and CNFET
// scheme 2 (natural heights, shelf-packed) — reporting the paper's delay,
// energy and area-gain numbers.
#include <cstdio>

#include "paper_claims.hpp"

namespace {

using namespace cnfet;

struct SizedAdder {
  flow::FullAdderOptions sizing;
  sta::StaResult timing;
  double edp = 0.0;
};

SizedAdder size_for_edp(const api::LibraryHandle& library) {
  SizedAdder best;
  bool first = true;
  for (const double nand_drive : {1.0, 2.0, 4.0}) {
    for (const double buf : {0.0, 4.0, 7.0, 9.0}) {
      flow::FullAdderOptions options;
      options.nand_drive = nand_drive;
      options.sum_buffer_drive = buf;
      options.carry_buffer_drive = buf;
      const auto timing =
          bench::run_flow(library, flow::build_full_adder(*library, options),
                          api::Stage::kTimed)
              .timed()
              ->timing;
      const double edp = timing.worst_arrival * timing.energy_per_cycle;
      if (first || edp < best.edp) {
        best = SizedAdder{options, timing, edp};
        first = false;
      }
    }
  }
  return best;
}

}  // namespace

int main() {
  bench::ClaimCheck claims("fig8");
  std::printf("== E5 / Figure 8 + case study 2: full adder ==\n\n");

  std::printf("Characterizing CNFET library (transient sims)...\n");
  const auto cnfet_lib =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  std::printf("Characterizing CMOS 65nm library...\n\n");
  const auto cmos_lib =
      api::LibraryCache::global().get(layout::Tech::kCmos65).value();

  const auto cnfet_best = size_for_edp(cnfet_lib);
  const auto cmos_best = size_for_edp(cmos_lib);

  util::TextTable t({"metric", "CMOS 65nm", "CNFET", "gain"});
  const double dgain =
      cmos_best.timing.worst_arrival / cnfet_best.timing.worst_arrival;
  const double egain =
      cmos_best.timing.energy_per_cycle / cnfet_best.timing.energy_per_cycle;
  t.add_row({"critical-path delay",
             util::fmt_si(cmos_best.timing.worst_arrival, "s"),
             util::fmt_si(cnfet_best.timing.worst_arrival, "s"),
             util::fmt_ratio(dgain, 2)});
  t.add_row({"energy/cycle",
             util::fmt_si(cmos_best.timing.energy_per_cycle, "J"),
             util::fmt_si(cnfet_best.timing.energy_per_cycle, "J"),
             util::fmt_ratio(egain, 2)});
  std::printf("%s\n", t.to_string().c_str());
  claims.measure("fig8.delay_gain", dgain);
  claims.measure("fig8.energy_gain", egain);

  std::printf("EDP-optimal sizing: CNFET NAND %.0fX / buffers %.0fX; "
              "CMOS NAND %.0fX / buffers %.0fX\n",
              cnfet_best.sizing.nand_drive,
              cnfet_best.sizing.sum_buffer_drive, cmos_best.sizing.nand_drive,
              cmos_best.sizing.sum_buffer_drive);
  std::printf("CNFET critical path:");
  for (const auto& g : cnfet_best.timing.critical_path) {
    std::printf(" %s", g.c_str());
  }
  std::printf("\n\n");

  // Placement comparison (Figure 8b/8c) uses the paper's drawn sizing —
  // NAND2 2X with mixed-drive output buffers — which is what creates the
  // cell-height spread scheme 2 recovers.
  const flow::FullAdderOptions drawn{
      .nand_drive = 2.0, .sum_buffer_drive = 9.0, .carry_buffer_drive = 7.0};
  const auto place = [&](const api::LibraryHandle& lib,
                         layout::CellScheme scheme) {
    return bench::place(lib, flow::build_full_adder(*lib, drawn), scheme);
  };
  const auto f_cmos = place(cmos_lib, layout::CellScheme::kScheme1);
  const auto f_s1 = place(cnfet_lib, layout::CellScheme::kScheme1);
  const auto f_s2 = place(cnfet_lib, layout::CellScheme::kScheme2);
  const auto& p_cmos = f_cmos.placed()->placement;
  const auto& p_s1 = f_s1.placed()->placement;
  const auto& p_s2 = f_s2.placed()->placement;

  util::TextTable pt({"placement", "area (l^2)", "utilization", "HPWL (l)",
                      "area gain vs CMOS"});
  auto row = [&](const char* name, const flow::PlacementResult& p) {
    pt.add_row({name, util::fmt_fixed(p.placed_area_lambda2, 0),
                util::fmt_percent(p.utilization(), 1),
                util::fmt_fixed(p.hpwl_lambda, 0),
                util::fmt_ratio(p_cmos.placed_area_lambda2 /
                                    p.placed_area_lambda2,
                                2)});
  };
  row("CMOS rows", p_cmos);
  row("CNFET scheme 1", p_s1);
  row("CNFET scheme 2", p_s2);
  std::printf("%s\n", pt.to_string().c_str());

  const double save1 = 1.0 - p_s1.placed_area_lambda2 /
                                 p_cmos.placed_area_lambda2;
  const double save2 = 1.0 - p_s2.placed_area_lambda2 /
                                 p_cmos.placed_area_lambda2;
  std::printf("Area savings vs CMOS: scheme 1 %s, scheme 2 %s\n\n",
              util::fmt_percent(save1, 1).c_str(),
              util::fmt_percent(save2, 1).c_str());
  claims.measure("fig8.scheme1_area_gain",
                 p_cmos.placed_area_lambda2 / p_s1.placed_area_lambda2);
  claims.measure("fig8.scheme2_area_gain",
                 p_cmos.placed_area_lambda2 / p_s2.placed_area_lambda2);
  claims.measure("fig8.scheme1_area_saving", 100.0 * save1);
  claims.measure("fig8.scheme2_area_saving", 100.0 * save2);
  claims.measure_holds("fig8.scheme2_below_scheme1",
                       p_s2.placed_area_lambda2 < p_s1.placed_area_lambda2);

  // Timing-driven optimization: the same adder drawn weak (all 1X, no
  // buffers), handed to the opt:: passes through Stage::kOptimized. The
  // sweep's hand-picked sizing above is the human baseline; this is what
  // the greedy sizing/buffering pass finds on its own inside a bounded
  // area budget.
  api::FlowOptions oopt;
  oopt.optimize = true;
  oopt.max_area_growth = 0.5;
  const auto weak = flow::build_full_adder(*cnfet_lib, {.nand_drive = 1.0});
  const auto om =
      bench::run_flow(cnfet_lib, weak, api::Stage::kOptimized, oopt).metrics();
  std::printf("opt:: pass on the all-1X adder: delay %s -> %s "
              "(%s faster), %d resized / %d buffer gates / %d removed, "
              "area %s growth (budget %.0f%%)\n",
              util::fmt_si(om.pre_opt_worst_arrival_s, "s").c_str(),
              util::fmt_si(om.worst_arrival_s, "s").c_str(),
              util::fmt_ratio(om.pre_opt_worst_arrival_s /
                                  om.worst_arrival_s,
                              2)
                  .c_str(),
              om.gates_resized, om.buffers_inserted, om.gates_removed,
              util::fmt_percent(om.opt_area_growth, 1).c_str(),
              100.0 * oopt.max_area_growth);
  std::printf("hand sweep EDP-optimal delay for reference: %s\n",
              util::fmt_si(cnfet_best.timing.worst_arrival, "s").c_str());
  return claims.report();
}
