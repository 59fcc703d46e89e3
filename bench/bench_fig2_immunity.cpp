// E2 — Figure 2: mispositioned-CNT vulnerability demonstration.
//
// Reproduces the paper's motivating figure functionally: the inverter is
// immune even in the naive layout; the naive NAND2 shorts VDD to OUT; the
// etched technique [6] and the compact Euler technique restore 100%
// immunity. Both the exact (straight-tube proof) engine and Monte Carlo
// with misaligned, bent tubes report.
//
// Monte Carlo runs 100k trials per case (up from 2k before the indexed
// tracer): the naive-layout yield estimates carry ~10x tighter
// confidence intervals, at a few seconds for the whole table.
#include <cstdio>
#include <string_view>

#include "paper_claims.hpp"

int main() {
  using cnfet::layout::LayoutStyle;
  using namespace cnfet;
  bench::ClaimCheck claims("fig2");
  std::printf("== E2 / Figure 2: misaligned-CNT immunity ==\n\n");

  util::TextTable t({"Cell", "layout", "exact proof", "hard shorts",
                     "MC yield (100k trials)", "stray shorts",
                     "stray chains"});

  const struct {
    const char* cell;
    LayoutStyle style;
  } cases[] = {
      {"INV", LayoutStyle::kNaiveVulnerable},
      {"NAND2", LayoutStyle::kNaiveVulnerable},
      {"NAND2", LayoutStyle::kEtchedIsolatedBranches},
      {"NAND2", LayoutStyle::kCompactEuler},
      {"NAND3", LayoutStyle::kNaiveVulnerable},
      {"NAND3", LayoutStyle::kEtchedIsolatedBranches},
      {"NAND3", LayoutStyle::kCompactEuler},
      {"AOI22", LayoutStyle::kNaiveVulnerable},
      {"AOI22", LayoutStyle::kCompactEuler},
  };

  bool immune_layouts = true;
  for (const auto& c : cases) {
    const auto built =
        layout::build_cell(layout::find_cell_spec(c.cell), {.style = c.style});
    const auto exact =
        cnt::check_exact(built.layout, built.netlist, built.function);
    const auto mc =
        cnt::monte_carlo(built.layout, built.netlist, built.function,
                         cnt::TubeModel{}, 100'000, 2024, /*num_threads=*/0);
    const bool immune = exact.immune && mc.yield() == 1.0;
    if (c.style == LayoutStyle::kNaiveVulnerable) {
      if (std::string_view(c.cell) == "INV") {
        claims.measure_holds("fig2.inv_immune_naive", immune);
      }
    } else {
      immune_layouts = immune_layouts && immune;
    }
    t.add_row({c.cell, layout::to_string(c.style),
               exact.immune ? "IMMUNE" : "VULNERABLE",
               std::to_string(exact.short_pairs),
               util::fmt_percent(mc.yield(), 2),
               std::to_string(mc.stray_shorts),
               std::to_string(mc.stray_chains)});
  }
  std::printf("%s\n", t.to_string().c_str());
  claims.measure_holds("fig2.immune_layouts", immune_layouts);

  // The explicit Figure-2(b) tube: a fully doped straight tube crossing the
  // naive NAND2 PUN, shorting VDD to OUT.
  const auto naive =
      layout::build_cell(layout::find_cell_spec("NAND2"),
                         {.style = LayoutStyle::kNaiveVulnerable});
  const auto geo = naive.layout.geometry();
  const auto& band = geo.bands[0];
  const double y = (band.rect.lo().y + band.rect.hi().y) / 2.0;
  const auto effects = cnt::trace_tube(
      geo, {{band.rect.lo().x - 10.0, y}, {band.rect.hi().x + 10.0, y}});
  std::printf("Figure 2(b) tube across the naive NAND2 PUN produces:\n");
  bool hard_short = false;
  for (const auto& e : effects) {
    const bool shorts = e.is_short() && e.a != e.b;
    hard_short = hard_short || shorts;
    std::printf("  %s-%s via %zu gate(s)%s\n",
                naive.netlist.net_name(e.a).c_str(),
                naive.netlist.net_name(e.b).c_str(), e.chain.size(),
                shorts ? "  <-- HARD SHORT" : "");
  }
  const bool vulnerable =
      !cnt::check_exact(naive.layout, naive.netlist, naive.function).immune;
  claims.measure_holds("fig2.naive_nand2_shorts", vulnerable && hard_short);
  return claims.report();
}
