// The paper-claims ledger: every number and direction of the paper that a
// paper bench measures, one row each, with the comparison that decides it
// and whether this kit reproduces it. Paper values live here and nowhere
// else in bench/ or tests/.
//
// A paper bench hands its measurements to a ClaimCheck, which prints the
// rows of the bench's id prefix and gives the bench its exit code:
//   - a `reproduces` row must meet its comparison;
//   - a `deviates` row must miss it. It carries a one-line reason and the
//     section of docs/reproducing_the_paper.md that explains the gap. A
//     deviates row that starts to pass fails its bench, so the ledger
//     cannot go stale;
//   - a row of the bench's prefix that the bench never measured fails it.
// CMake registers the paper benches as ctest entries (label `paper`).
//
// The structure audit that the Figure-3/4 and Table-1 benches both print,
// and the flow runner of the Figure-8 and ablation benches, live here too.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/flow.hpp"
#include "cnt/analyzer.hpp"
#include "drc/drc.hpp"
#include "layout/cells.hpp"
#include "util/table.hpp"

namespace cnfet::bench {

enum class Unit { kRatio, kPercent, kNm };

/// One rule per kind of wording, stated once:
///   ">x"  at_least(x)  measured >= x;
///   "~x"  about(x)     within kAboutTolerance of x, relative;
///   a direction ("compact < etched at every width") holds(): measured true.
/// Claims that device tests gated before the ledger existed keep those
/// tolerances: near(x, tol) is |measured - x| <= tol, and between(lo, hi)
/// is lo < measured < hi.
struct Comparison {
  enum class Kind { kAtLeast, kAbout, kNear, kBetween, kHolds } kind;
  double value = 0.0;  ///< the paper's number; between: the lower end
  double bound = 0.0;  ///< about/near: absolute tolerance; between: upper end
  Unit unit = Unit::kRatio;
};

inline constexpr double kAboutTolerance = 0.10;

using Kind = Comparison::Kind;
constexpr Comparison at_least(double x, Unit u = Unit::kRatio) {
  return {Kind::kAtLeast, x, 0.0, u};
}
constexpr Comparison about(double x, Unit u = Unit::kRatio) {
  return {Kind::kAbout, x, kAboutTolerance * x, u};
}
constexpr Comparison near(double x, double tol) {
  return {Kind::kNear, x, tol};
}
constexpr Comparison between(double lo, double hi, Unit u) {
  return {Kind::kBetween, lo, hi, u};
}
constexpr Comparison holds() { return {Kind::kHolds}; }

inline bool meets(const Comparison& c, double m) {
  switch (c.kind) {
    case Kind::kAtLeast: return m >= c.value;
    case Kind::kAbout:
    case Kind::kNear: return std::abs(m - c.value) <= c.bound;
    case Kind::kBetween: return m > c.value && m < c.bound;
    case Kind::kHolds: return m != 0.0;
  }
  return false;
}

inline std::string format_value(const Comparison& c, double v) {
  if (c.kind == Kind::kHolds) return v != 0.0 ? "holds" : "fails";
  switch (c.unit) {
    case Unit::kRatio: return util::fmt_ratio(v, 2);
    case Unit::kPercent: return util::fmt_fixed(v, 2) + "%";
    case Unit::kNm: return util::fmt_fixed(v, 2) + " nm";
  }
  return {};
}

inline std::string format_comparison(const Comparison& c) {
  const auto value = format_value(c, c.value);
  switch (c.kind) {
    case Kind::kAtLeast: return ">= " + value;
    case Kind::kAbout: return "~" + value;
    case Kind::kNear: return value + " +-" + util::fmt_fixed(c.bound, 2);
    case Kind::kBetween: return value + " < x < " + format_value(c, c.bound);
    case Kind::kHolds: return "holds";
  }
  return {};
}

/// Why a claim does not reproduce, in one line, and the section of
/// docs/reproducing_the_paper.md that explains it.
struct Deviation {
  const char* reason;
  const char* anchor;
};

/// One claim: `deviates` when it carries a Deviation, else `reproduces`.
struct Claim {
  const char* id;        ///< "<prefix>.<name>"; the prefix names the bench
  const char* artifact;  ///< where the paper states it
  const char* wording;   ///< what the paper states
  Comparison cmp;
  const Deviation* deviates = nullptr;
};

inline constexpr Deviation kAreaSavingGap{
    "a 1.40x area gain is a 28.6% saving; the stated saving needs 1.43x",
    "inverter-area-saving"};
inline constexpr Deviation kEdpGap{
    "the paper's own delay and energy anchors at the optimum give 8.4x",
    "edp-at-the-optimal-pitch"};
inline constexpr Deviation kAdderDelayGap{
    "NLDM STA of library cells whose arcs gain ~2x at a fixed load",
    "full-adder-delay"};
inline constexpr Deviation kPlacementGap{
    "the adder's cells gain 1.34x in summed area; equal packing keeps that",
    "placement-area"};
inline constexpr Deviation kTable1Gap{
    "strip-geometry deltas are width-independent; the paper's fall with W",
    "the-table-1-deviation"};

/// Table 1 of the paper: area difference (%) of the compact layouts against
/// the etched-region technique [6] at 3, 4, 6 and 10 lambda. INV is 0% at
/// every width (claim table1.inv_identical).
inline constexpr double kTable1[4][4] = {
    {17.18, 14.52, 11.67, 9.25},   // NAND2/NOR2
    {19.64, 16.67, 13.45, 10.71},  // NAND3/NOR3
    {32.2, 27.7, 22.5, 14.9},      // AOI22/OAI22
    {44.3, 40.6, 36.4, 32.5},      // AOI21/OAI21
};
constexpr Claim table1(const char* id, const char* wording, int cell, int w,
                       const Deviation* deviates = &kTable1Gap) {
  return {id, "Table 1", wording, about(kTable1[cell][w], Unit::kPercent),
          deviates};
}

inline constexpr Claim kClaims[] = {
    // Figure 2: mispositioned-CNT vulnerability.
    {"fig2.inv_immune_naive", "Fig. 2",
     "the inverter is immune even in the naive layout", holds()},
    {"fig2.naive_nand2_shorts", "Fig. 2",
     "a mispositioned tube shorts VDD to OUT in the naive NAND2", holds()},
    {"fig2.immune_layouts", "Fig. 2",
     "etched [6] and compact layouts are 100% immune", holds()},
    // Figures 3-4: layout construction.
    {"fig34.nand3_pun_saving", "Fig. 3", "NAND3 pull-up area saving at 4l",
     about(kTable1[1][1], Unit::kPercent), &kTable1Gap},
    {"fig34.no_vertical_gating", "Sec. III",
     "compact layouts need no vertical gating; etched [6] do", holds()},
    // Figure 7 / case study 1, and the abstract's headline gains.
    {"fig7.one_tube_delay", "Fig. 7", "FO4 delay gain with one CNT",
     near(2.75, 0.30)},
    {"fig7.one_tube_energy", "Fig. 7", "energy gain with one CNT",
     near(6.3, 0.70)},
    {"fig7.optimal_pitch", "Fig. 7", "optimal CNT pitch ~5 nm",
     between(4.0, 6.5, Unit::kNm)},
    {"fig7.flat_range_low", "Fig. 7", "1%-flat pitch range, lower end",
     about(4.5, Unit::kNm)},
    {"fig7.flat_range_high", "Fig. 7", "1%-flat pitch range, upper end",
     about(5.5, Unit::kNm)},
    {"fig7.optimal_delay_gain", "Fig. 7", "FO4 delay gain at the optimum",
     near(4.2, 0.45)},
    {"fig7.optimal_energy_gain", "Fig. 7", "energy gain at the optimum",
     near(2.0, 0.45)},
    {"fig7.fo4_gain", "abstract", "FO4 delay gain over 65 nm CMOS",
     at_least(4.0)},
    {"fig7.inverter_area_gain", "abstract", "inverter area gain at W = 4l",
     at_least(1.4)},
    {"fig7.inverter_area_saving", "abstract", "inverter area saving at 4l",
     at_least(30.0, Unit::kPercent), &kAreaSavingGap},
    {"fig7.area_gain_declines", "case study 1",
     "inverter area gain declines for larger widths", holds()},
    {"fig7.edp_gain", "abstract", "energy-delay product gain at the optimum",
     at_least(10.0), &kEdpGap},
    {"fig7.edap_gain", "abstract", "energy-delay-area product gain",
     about(12.0)},
    // Figure 8 / case study 2: the 9-NAND full adder.
    {"fig8.delay_gain", "Fig. 8", "full-adder critical-path delay gain",
     about(3.5), &kAdderDelayGap},
    {"fig8.energy_gain", "Fig. 8", "full-adder energy/cycle gain",
     about(1.5)},
    {"fig8.scheme1_area_gain", "Fig. 8", "placed area gain, scheme 1",
     about(1.4), &kPlacementGap},
    {"fig8.scheme2_area_gain", "Fig. 8", "placed area gain, scheme 2",
     about(1.6), &kPlacementGap},
    {"fig8.scheme1_area_saving", "Sec. V", "placed area saving, scheme 1",
     at_least(30.0, Unit::kPercent), &kPlacementGap},
    {"fig8.scheme2_area_saving", "Sec. V",
     "placed area saving, scheme 2 (\">50%/37.5%\")",
     at_least(37.5, Unit::kPercent), &kPlacementGap},
    {"fig8.scheme2_below_scheme1", "Fig. 8",
     "natural heights (scheme 2) place smaller than scheme 1", holds()},
    // Table 1: compact vs etched-region area difference.
    table1("table1.NAND2_3l", "NAND2/NOR2 at 3l", 0, 0),
    table1("table1.NAND2_4l", "NAND2/NOR2 at 4l", 0, 1),
    table1("table1.NAND2_6l", "NAND2/NOR2 at 6l", 0, 2),
    table1("table1.NAND2_10l", "NAND2/NOR2 at 10l", 0, 3),
    table1("table1.NAND3_3l", "NAND3/NOR3 at 3l", 1, 0),
    table1("table1.NAND3_4l", "NAND3/NOR3 at 4l", 1, 1),
    table1("table1.NAND3_6l", "NAND3/NOR3 at 6l", 1, 2),
    table1("table1.NAND3_10l", "NAND3/NOR3 at 10l", 1, 3),
    table1("table1.AOI22_3l", "AOI22/OAI22 at 3l", 2, 0),
    table1("table1.AOI22_4l", "AOI22/OAI22 at 4l", 2, 1),
    // The flat 24.39% crosses the paper's falling series here.
    table1("table1.AOI22_6l", "AOI22/OAI22 at 6l", 2, 2, nullptr),
    table1("table1.AOI22_10l", "AOI22/OAI22 at 10l", 2, 3),
    table1("table1.AOI21_3l", "AOI21/OAI21 at 3l", 3, 0),
    table1("table1.AOI21_4l", "AOI21/OAI21 at 4l", 3, 1),
    table1("table1.AOI21_6l", "AOI21/OAI21 at 6l", 3, 2),
    table1("table1.AOI21_10l", "AOI21/OAI21 at 10l", 3, 3),
    {"table1.inv_identical", "Table 1",
     "INV is identical under both techniques", holds()},
    {"table1.compact_smaller", "Table 1",
     "every multi-branch cell is smaller with the compact technique",
     holds()},
    {"table1.both_immune", "Table 1", "both techniques are 100% immune",
     holds()},
    {"table1.falls_with_width", "Table 1",
     "the area difference falls as the width grows", holds(), &kTable1Gap},
    // Sections III-IV: schemes, isolation styles, gate overhang.
    {"ablation.scheme2_recovers", "Sec. IV",
     "scheme 2 recovers area scheme 1 loses to standard heights", holds()},
    {"ablation.euler_smallest", "Sec. IV",
     "the compact Euler PUN is the smallest isolation style", holds()},
    {"ablation.overhang_needed", "Sec. III",
     "the gate must cover the whole CNT band", holds()},
};

/// One paper bench's measurements, checked against its rows of the ledger.
class ClaimCheck {
 public:
  /// Checks the rows whose id starts with "<prefix>.".
  explicit ClaimCheck(std::string prefix) : prefix_(std::move(prefix) + ".") {}

  void measure(const std::string& id, double value) { measured_[id] = value; }
  void measure_holds(const std::string& id, bool holds) {
    measure(id, holds ? 1.0 : 0.0);
  }

  /// Prints the bench's rows and returns its exit code: 0 when every row
  /// was measured and agrees with its status, 1 otherwise.
  [[nodiscard]] int report() const {
    util::TextTable t({"claim", "source", "the paper states", "paper",
                       "measured", "status", "check"});
    std::vector<const Deviation*> notes;
    int failures = 0;
    std::size_t matched = 0;
    for (const auto& c : kClaims) {
      if (!std::string_view(c.id).starts_with(prefix_)) continue;
      const auto it = measured_.find(c.id);
      std::string check = "NOT MEASURED", measured = "-";
      if (it != measured_.end()) {
        ++matched;
        measured = format_value(c.cmp, it->second);
        check = meets(c.cmp, it->second) == !c.deviates ? "ok"
                : c.deviates ? "NOW REPRODUCES" : "MISSES";
      }
      if (check != "ok") ++failures;
      std::string status = "reproduces";
      if (c.deviates) {
        auto at = std::find(notes.begin(), notes.end(), c.deviates);
        if (at == notes.end()) at = notes.insert(at, c.deviates);
        status = "deviates [" + std::to_string(at - notes.begin() + 1) + "]";
      }
      t.add_row({c.id, c.artifact, c.wording, format_comparison(c.cmp),
                 measured, status, check});
    }
    std::printf("\nPaper claims (bench/paper_claims.hpp; ~ is +-%.0f%%):\n%s",
                100.0 * kAboutTolerance, t.to_string().c_str());
    for (std::size_t i = 0; i < notes.size(); ++i) {
      std::printf("[%zu] %s (docs/reproducing_the_paper.md#%s)\n", i + 1,
                  notes[i]->reason, notes[i]->anchor);
    }
    if (matched != measured_.size()) {
      std::printf("a measured id names no row of this bench\n");
      ++failures;
    }
    if (failures > 0) std::printf("%d claim check(s) failed\n", failures);
    return failures > 0 ? 1 : 0;
  }

 private:
  std::string prefix_;
  std::map<std::string, double> measured_;
};

// --- the structure audit of the Figure-3/4 and Table-1 benches ----------

inline const std::vector<std::string> kAuditColumns = {
    "Cell", "style", "PUN active (l^2)", "active (l^2)", "core (l^2)",
    "etch", "red.contacts", "via-on-gate", "immune", "DRC"};

/// One cell's audit: areas, etch/contact/via counts, the exact immunity
/// proof and DRC under conventional lithography. A layout that passes only
/// with vias on active gates allowed needs vertical gating, as the etched
/// technique [6] does by construction.
struct CellAudit {
  bool immune = false;
  drc::DrcReport conventional_drc;
  std::vector<std::string> row;  ///< formatted under kAuditColumns
};

inline CellAudit audit_cell(const layout::BuiltCell& built) {
  const auto& lay = built.layout;
  CellAudit audit;
  audit.immune = cnt::check_exact(lay, built.netlist, built.function).immune;
  audit.conventional_drc = drc::check(lay);
  const char* drc_text = "clean";
  if (!audit.conventional_drc.clean()) {
    drc_text = drc::check(lay, {.allow_vertical_gating = true}).clean()
              ? "needs vertical gating"
              : "VIOLATIONS";
  }
  audit.row = {built.spec.name,
               layout::to_string(built.plan.style),
               util::fmt_fixed(lay.pun().active_area_lambda2(), 0),
               util::fmt_fixed(lay.active_area_lambda2(), 0),
               util::fmt_fixed(lay.core_area_lambda2(), 0),
               std::to_string(lay.etch_slot_count()),
               std::to_string(built.plan.redundant_contacts),
               std::to_string(lay.via_on_gate_count()),
               audit.immune ? "yes" : "NO",
               drc_text};
  return audit;
}

/// Runs `netlist` on `library` to `stage`. The whole Flow is returned
/// because a placement's instances point into the flow-owned netlist.
inline api::Flow run_flow(const api::LibraryHandle& library,
                          flow::GateNetlist netlist, api::Stage stage,
                          api::FlowOptions options = {}) {
  options.library = library;
  auto made = api::Flow::from_netlist(std::move(netlist), options);
  (void)made.value().run(stage).value();
  return std::move(made).value();
}

/// run_flow to Placed under one cell scheme.
inline api::Flow place(const api::LibraryHandle& library,
                       flow::GateNetlist netlist, layout::CellScheme scheme) {
  api::FlowOptions options;
  options.place.scheme = scheme;
  return run_flow(library, std::move(netlist), api::Stage::kPlaced, options);
}

}  // namespace cnfet::bench
