// E7 — ablations behind the paper's Section IV discussion:
//  (a) scheme-1 cell-height standardization loss vs scheme-2 natural
//      heights across synthetic cell mixes of increasing drive spread;
//  (b) the etched-fet-isolation upper bound vs etched-branch isolation vs
//      compact Euler (how much each idea buys);
//  (c) gate-overhang necessity: shrinking the overhang below the CNT-band
//      margin breaks immunity even for Euler layouts.
#include <cstdio>

#include "paper_claims.hpp"
#include "api/flow.hpp"

namespace {

using namespace cnfet;

flow::GateNetlist inverter_mix(const liberty::Library& lib,
                               const std::vector<double>& drives, int copies) {
  flow::GateNetlist nl;
  const int in = nl.add_net("in");
  nl.mark_input(in);
  int serial = 0;
  for (int c = 0; c < copies; ++c) {
    for (const double d : drives) {
      const auto& cell =
          lib.find("INV_" + std::to_string(static_cast<int>(d)) + "X");
      const int out = nl.add_net("n" + std::to_string(serial));
      nl.add_gate(flow::Gate{&cell, {in}, out, "inv" + std::to_string(serial)});
      ++serial;
    }
  }
  return nl;
}

}  // namespace

int main() {
  bench::ClaimCheck claims("ablation");
  std::printf("== E7 / ablations: schemes, isolation styles, overhang ==\n\n");

  // (a) Height standardization loss.
  std::printf("(a) scheme-1 standardization loss vs scheme-2 packing\n");
  const auto lib_handle =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  const auto& lib = *lib_handle;
  util::TextTable t({"cell mix", "scheme1 area", "scheme2 area",
                     "scheme2 gain", "scheme1 util", "scheme2 util"});
  const std::vector<std::pair<const char*, std::vector<double>>> mixes = {
      {"uniform 1X", {1.0}},
      {"1X..2X", {1.0, 2.0}},
      {"1X..4X", {1.0, 2.0, 4.0}},
      {"1X..9X", {1.0, 2.0, 4.0, 9.0}},
  };
  bool scheme2_recovers = true;
  for (const auto& [name, drives] : mixes) {
    const auto nl = inverter_mix(lib, drives, 6);
    const auto f1 = bench::place(lib_handle, nl, layout::CellScheme::kScheme1);
    const auto f2 = bench::place(lib_handle, nl, layout::CellScheme::kScheme2);
    const auto& p1 = f1.placed()->placement;
    const auto& p2 = f2.placed()->placement;
    scheme2_recovers = scheme2_recovers &&
                       p2.placed_area_lambda2 <= p1.placed_area_lambda2;
    t.add_row({name, util::fmt_fixed(p1.placed_area_lambda2, 0),
               util::fmt_fixed(p2.placed_area_lambda2, 0),
               util::fmt_ratio(p1.placed_area_lambda2 /
                                   p2.placed_area_lambda2,
                               2),
               util::fmt_percent(p1.utilization(), 1),
               util::fmt_percent(p2.utilization(), 1)});
  }
  std::printf("%s\n", t.to_string().c_str());
  claims.measure_holds("ablation.scheme2_recovers", scheme2_recovers);

  // (b) Isolation style ladder.
  std::printf("(b) PUN active area by isolation style (4 lambda)\n");
  util::TextTable lt({"cell", "etched-fets", "etched-branches[6]",
                      "compact-euler", "euler vs fets"});
  bool euler_smallest = true;
  for (const char* name : {"NAND3", "AOI21", "AOI22", "AOI31"}) {
    const auto pun_area = [&](layout::LayoutStyle style) {
      return layout::build_cell(layout::find_cell_spec(name), {.style = style})
          .layout.pun()
          .active_area_lambda2();
    };
    const auto a = pun_area(layout::LayoutStyle::kEtchedIsolatedFets);
    const auto b = pun_area(layout::LayoutStyle::kEtchedIsolatedBranches);
    const auto c = pun_area(layout::LayoutStyle::kCompactEuler);
    euler_smallest = euler_smallest && c < a && c < b;
    lt.add_row({name, util::fmt_fixed(a, 0), util::fmt_fixed(b, 0),
                util::fmt_fixed(c, 0),
                util::fmt_percent((a - c) / a, 1)});
  }
  std::printf("%s\n", lt.to_string().c_str());
  claims.measure_holds("ablation.euler_smallest", euler_smallest);

  // (c) Overhang necessity: the gate stripe must cover the whole CNT band
  // (strip + etch registration margin). Gate vertical extension beyond the
  // drawn strip is margin + overhang; once it shrinks below the margin the
  // band peeks out past the gate ends and tubes can slip around them.
  std::printf("(c) gate extension below the CNT-band margin breaks immunity\n");
  bool overhang_needed = true;
  {
    const auto spec = layout::find_cell_spec("NAND3");
    const auto pdn_expr = logic::parse_expr(spec.pdn_expr);
    auto cell = netlist::build_static_cell(pdn_expr);
    const auto function = ~pdn_expr.truth(pdn_expr.num_vars());
    const auto plan =
        layout::plan_planes(cell, layout::LayoutStyle::kCompactEuler);
    for (const double overhang : {2.0, 0.0, -0.5, -1.0}) {
      auto rules = layout::DesignRules::cnfet65();
      rules.gate_overhang = overhang;
      const layout::CellLayout lay("NAND3", cell, plan, rules,
                                   layout::CellScheme::kScheme1);
      const auto report = cnt::check_exact(lay, cell, function);
      // Immune exactly when the gate reaches past the band margin.
      overhang_needed = overhang_needed &&
                        report.immune == (overhang >= 0.0);
      std::printf("  gate extension %.1fl vs margin %.1fl: %s\n",
                  rules.cnt_margin + overhang, rules.cnt_margin,
                  report.immune ? "immune" : "VULNERABLE");
    }
  }
  claims.measure_holds("ablation.overhang_needed", overhang_needed);
  return claims.report();
}
