// E4 — Figure 7 / case study 1 and the abstract's headline gains: FO4 delay
// gain of the CNFET inverter over the 65nm CMOS inverter versus the number
// of CNTs per device (fixed gate width), the optimal CNT pitch and its +-1%
// flat range, the energy/cycle gains, the inverter area gain versus
// transistor width, and the EDP / EDAP of the optimum at W = 4 lambda.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "paper_claims.hpp"
#include "device/models.hpp"
#include "sim/fo4.hpp"

namespace {

using namespace cnfet;

double pitch_nm(int tubes) { return device::cnt_pitch_nm(tubes, 65.0); }

/// The one FO4 sweep: the CMOS baseline and the CNFET inverter at 1..24
/// tubes, its delay-optimal tube count and the pitches within 1% of it.
struct Fo4Study {
  sim::Fo4Result cmos;
  std::vector<sim::Fo4Result> cnfet;  ///< [n - 1]: n tubes per device
  int best_n = 1;
  double lo_pitch = 0.0, hi_pitch = 0.0;

  [[nodiscard]] double delay_gain(int n) const {
    return cmos.delay_s / cnfet[static_cast<std::size_t>(n - 1)].delay_s;
  }
  [[nodiscard]] double energy_gain(int n) const {
    return cmos.energy_per_cycle_j /
           cnfet[static_cast<std::size_t>(n - 1)].energy_per_cycle_j;
  }
};

Fo4Study fo4_study(int max_tubes) {
  Fo4Study s;
  s.cmos = sim::measure_fo4(device::cmos_inverter());
  for (int n = 1; n <= max_tubes; ++n) {
    s.cnfet.push_back(sim::measure_fo4(device::cnfet_inverter(n)));
    if (s.delay_gain(n) > s.delay_gain(s.best_n)) s.best_n = n;
  }
  s.lo_pitch = s.hi_pitch = pitch_nm(s.best_n);
  for (int n = 1; n <= max_tubes; ++n) {
    if (s.delay_gain(n) >= 0.99 * s.delay_gain(s.best_n)) {
      s.lo_pitch = std::min(s.lo_pitch, pitch_nm(n));
      s.hi_pitch = std::max(s.hi_pitch, pitch_nm(n));
    }
  }
  return s;
}

}  // namespace

int main() {
  bench::ClaimCheck claims("fig7");
  std::printf("== E4 / Figure 7 + case study 1: FO4 inverter study ==\n\n");

  const auto s = fo4_study(24);
  std::printf("CMOS 65nm baseline: FO4 delay %s, energy/cycle %s\n\n",
              util::fmt_si(s.cmos.delay_s, "s").c_str(),
              util::fmt_si(s.cmos.energy_per_cycle_j, "J").c_str());

  util::TextTable t({"CNTs", "pitch (nm)", "FO4 delay", "delay gain",
                     "energy/cycle", "energy gain"});
  for (int n = 1; n <= static_cast<int>(s.cnfet.size()); ++n) {
    const auto& r = s.cnfet[static_cast<std::size_t>(n - 1)];
    t.add_row({std::to_string(n), util::fmt_fixed(pitch_nm(n), 2),
               util::fmt_si(r.delay_s, "s"),
               util::fmt_ratio(s.delay_gain(n), 2),
               util::fmt_si(r.energy_per_cycle_j, "J"),
               util::fmt_ratio(s.energy_gain(n), 2)});
  }
  std::printf("%s\n", t.to_string().c_str());

  const double dgain = s.delay_gain(s.best_n);
  const double egain = s.energy_gain(s.best_n);
  std::printf("Optimum: %d tubes, pitch %.2fnm, delay gain %.2fx, energy "
              "gain %.2fx\n",
              s.best_n, pitch_nm(s.best_n), dgain, egain);
  std::printf("Optimal pitch range at 1%% FO4 tolerance: %.2f - %.2f nm\n\n",
              s.lo_pitch, s.hi_pitch);
  claims.measure("fig7.one_tube_delay", s.delay_gain(1));
  claims.measure("fig7.one_tube_energy", s.energy_gain(1));
  claims.measure("fig7.optimal_pitch", pitch_nm(s.best_n));
  claims.measure("fig7.flat_range_low", s.lo_pitch);
  claims.measure("fig7.flat_range_high", s.hi_pitch);
  claims.measure("fig7.optimal_delay_gain", dgain);
  claims.measure("fig7.optimal_energy_gain", egain);
  claims.measure("fig7.fo4_gain", dgain);

  // Case-study-1 area gain: CNFET (W + 6 + W) vs CMOS (W + 10 + 1.4W).
  std::printf("Inverter area gain vs transistor width (core height ratio):\n");
  util::TextTable at({"W (lambda)", "CNFET core", "CMOS core", "area gain"});
  double cn_4l = 0.0, cm_4l = 0.0;
  std::vector<double> area_gains;
  for (const double w : {3.0, 4.0, 6.0, 10.0, 16.0}) {
    layout::CellBuildOptions copt;
    copt.base_width_lambda = w;
    const auto cn = layout::build_cell(layout::find_cell_spec("INV"), copt);
    copt.tech = layout::Tech::kCmos65;
    const auto cm = layout::build_cell(layout::find_cell_spec("INV"), copt);
    const double a_cn = cn.layout.core_area_lambda2();
    const double a_cm = cm.layout.core_area_lambda2();
    if (w == 4.0) cn_4l = a_cn, cm_4l = a_cm;
    area_gains.push_back(a_cm / a_cn);
    at.add_row({util::fmt_fixed(w, 0), util::fmt_fixed(a_cn, 1),
                util::fmt_fixed(a_cm, 1), util::fmt_ratio(a_cm / a_cn, 2)});
  }
  std::printf("%s\n", at.to_string().c_str());
  const double again = cm_4l / cn_4l;
  claims.measure("fig7.inverter_area_gain", again);
  claims.measure("fig7.inverter_area_saving", 100.0 * (1.0 - cn_4l / cm_4l));
  claims.measure_holds("fig7.area_gain_declines",
                       std::adjacent_find(area_gains.begin(), area_gains.end(),
                                          std::less_equal<>()) ==
                           area_gains.end());

  // The abstract's headline: the optimum at W = 4 lambda against CMOS.
  const auto& opt = s.cnfet[static_cast<std::size_t>(s.best_n - 1)];
  std::printf("Headline (abstract): the optimum at W = 4 lambda:\n");
  util::TextTable ht({"metric", "CMOS", "CNFET(opt)", "gain"});
  ht.add_row({"FO4 delay", util::fmt_si(s.cmos.delay_s, "s"),
              util::fmt_si(opt.delay_s, "s"), util::fmt_ratio(dgain, 2)});
  ht.add_row({"energy/cycle", util::fmt_si(s.cmos.energy_per_cycle_j, "J"),
              util::fmt_si(opt.energy_per_cycle_j, "J"),
              util::fmt_ratio(egain, 2)});
  ht.add_row({"area (core l^2)", util::fmt_fixed(cm_4l, 1),
              util::fmt_fixed(cn_4l, 1), util::fmt_ratio(again, 2)});
  ht.add_row({"EDP", "-", "-", util::fmt_ratio(dgain * egain, 1)});
  ht.add_row({"EDAP", "-", "-", util::fmt_ratio(dgain * egain * again, 1)});
  std::printf("%s", ht.to_string().c_str());
  claims.measure("fig7.edp_gain", dgain * egain);
  claims.measure("fig7.edap_gain", dgain * egain * again);
  return claims.report();
}
