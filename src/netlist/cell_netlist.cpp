#include "netlist/cell_netlist.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace cnfet::netlist {

const char* to_string(Level level) {
  switch (level) {
    case Level::kLow:
      return "0";
    case Level::kHigh:
      return "1";
    case Level::kFloat:
      return "Z";
    case Level::kFight:
      return "X";
  }
  return "?";
}

std::string FunctionalReport::to_string() const {
  if (ok) return "functional: OK";
  std::ostringstream out;
  out << "functional: FAIL at input row " << failing_row << " (expected "
      << (expected_high ? "1" : "0") << ", observed "
      << netlist::to_string(observed) << ")";
  if (supply_short) out << " with VDD-GND short";
  return out.str();
}

CellNetlist::CellNetlist(int num_inputs) : num_inputs_(num_inputs) {
  CNFET_REQUIRE(num_inputs >= 0 && num_inputs <= 12);
  net_names_ = {"GND", "VDD", "OUT"};
}

const std::string& CellNetlist::net_name(NetId id) const {
  CNFET_REQUIRE(id >= 0 && id < num_nets());
  return net_names_[static_cast<std::size_t>(id)];
}

NetId CellNetlist::add_net(const std::string& name) {
  net_names_.push_back(name);
  return num_nets() - 1;
}

void CellNetlist::add_fet(Fet fet) {
  CNFET_REQUIRE(fet.gate_input >= 0 && fet.gate_input < num_inputs_);
  CNFET_REQUIRE(fet.a >= 0 && fet.a < num_nets());
  CNFET_REQUIRE(fet.b >= 0 && fet.b < num_nets());
  CNFET_REQUIRE(fet.width_lambda > 0);
  fets_.push_back(fet);
}

void CellNetlist::add_short(RailShort s) {
  CNFET_REQUIRE(s.a >= 0 && s.a < num_nets());
  CNFET_REQUIRE(s.b >= 0 && s.b < num_nets());
  shorts_.push_back(s);
}

std::vector<Fet> CellNetlist::plane_fets(FetType type) const {
  std::vector<Fet> out;
  for (const auto& f : fets_) {
    if (f.type == type) out.push_back(f);
  }
  return out;
}

std::vector<ConductionEdge> CellNetlist::conduction_edges(
    std::uint64_t block) const {
  std::vector<ConductionEdge> edges;
  for (const auto& f : fets_) {
    edges.push_back({f.a, f.b, conducting_rows(f.type, f.gate_input, block)});
  }
  for (const auto& s : shorts_) edges.push_back({s.a, s.b, ~0ull});
  return edges;
}

void flood_rows(std::span<const ConductionEdge> edges, int num_nets,
                std::vector<RowReach>& reach) {
  CNFET_REQUIRE(num_nets > CellNetlist::kOut);
  reach.assign(static_cast<std::size_t>(num_nets), RowReach{});
  reach[CellNetlist::kVdd].from_vdd = ~0ull;
  reach[CellNetlist::kGnd].from_gnd = ~0ull;
  // An edge conducting in row r joins its nets' reach in row r; both ends
  // gain the union, which is the relaxation in both directions at once.
  // Reach only grows, so the sweep terminates at the least fixed point:
  // per row, exactly the nets a BFS over that row's ON edges would mark.
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& e : edges) {
      RowReach& a = reach[static_cast<std::size_t>(e.a)];
      RowReach& b = reach[static_cast<std::size_t>(e.b)];
      const std::uint64_t vdd = (a.from_vdd | b.from_vdd) & e.rows;
      const std::uint64_t gnd = (a.from_gnd | b.from_gnd) & e.rows;
      if (((vdd & ~(a.from_vdd & b.from_vdd)) |
           (gnd & ~(a.from_gnd & b.from_gnd))) != 0) {
        a.from_vdd |= vdd;
        b.from_vdd |= vdd;
        a.from_gnd |= gnd;
        b.from_gnd |= gnd;
        changed = true;
      }
    }
  }
}

namespace {

Level level_at(const RowReach& reach, unsigned bit) {
  const bool high = ((reach.from_vdd >> bit) & 1) != 0;
  const bool low = ((reach.from_gnd >> bit) & 1) != 0;
  if (high && low) return Level::kFight;
  if (high) return Level::kHigh;
  if (low) return Level::kLow;
  return Level::kFloat;
}

/// Reach masks of every net over input block `block`.
std::vector<RowReach> flood_block(const CellNetlist& cell,
                                  std::uint64_t block) {
  std::vector<RowReach> reach;
  flood_rows(cell.conduction_edges(block), cell.num_nets(), reach);
  return reach;
}

}  // namespace

FunctionalReport judge_rows(std::span<const RowReach> reach,
                            const logic::TruthTable& expected) {
  const std::uint64_t rows = expected.num_rows() == 64
                                 ? ~0ull
                                 : (1ull << expected.num_rows()) - 1;
  const RowReach& out = reach[CellNetlist::kOut];
  const std::uint64_t high = out.from_vdd & ~out.from_gnd;
  const std::uint64_t low = out.from_gnd & ~out.from_vdd;
  const std::uint64_t shorted = reach[CellNetlist::kVdd].from_gnd;
  const std::uint64_t want = expected.bits();
  const std::uint64_t bad =
      rows & (shorted | ~((want & high) | (~want & low)));
  FunctionalReport report;
  if (bad == 0) return report;
  const auto row = static_cast<unsigned>(std::countr_zero(bad));
  report.ok = false;
  report.failing_row = row;
  report.observed = level_at(out, row);
  report.expected_high = ((want >> row) & 1) != 0;
  report.supply_short = ((shorted >> row) & 1) != 0;
  return report;
}

Level CellNetlist::evaluate(std::uint64_t input_row, NetId net) const {
  CNFET_REQUIRE(net >= 0 && net < num_nets());
  CNFET_REQUIRE(num_inputs_ == 0 || input_row < (1ull << num_inputs_));
  const auto reach = flood_block(*this, input_row >> 6);
  return level_at(reach[static_cast<std::size_t>(net)], input_row & 63);
}

bool CellNetlist::has_supply_short(std::uint64_t input_row) const {
  const auto reach = flood_block(*this, input_row >> 6);
  return ((reach[kVdd].from_gnd >> (input_row & 63)) & 1) != 0;
}

FunctionalReport CellNetlist::check_function(
    const logic::TruthTable& expected) const {
  CNFET_REQUIRE(expected.num_inputs() == num_inputs_);
  return judge_rows(flood_block(*this, 0), expected);
}

namespace {

/// Recursive series/parallel construction of `expr` between nets `top` and
/// `bottom` on one plane. `series_extra` is the series length contributed by
/// the rest of the path through this sub-network, used for stack upsizing.
void build_plane(CellNetlist& cell, const logic::Expr& expr, FetType type,
                 NetId top, NetId bottom, const SizingRule& sizing,
                 double base_width, int series_extra, int* next_internal) {
  using logic::Expr;
  switch (expr.kind()) {
    case Expr::Kind::kVar: {
      const int stack = series_extra + 1;
      const double total_width =
          sizing.upsize_series ? base_width * stack : base_width;
      // Fold wide devices into parallel fingers.
      const int fingers = std::max(
          1, static_cast<int>(std::ceil(
                 total_width / sizing.max_finger_width_lambda)));
      for (int k = 0; k < fingers; ++k) {
        Fet fet;
        fet.type = type;
        fet.gate_input = expr.var_index();
        fet.a = top;
        fet.b = bottom;
        fet.width_lambda = total_width / fingers;
        cell.add_fet(fet);
      }
      return;
    }
    case Expr::Kind::kAnd: {
      const auto& kids = expr.children();
      // Series chain with fresh internal nets between consecutive children.
      int depth_total = 0;
      for (const auto& k : kids) depth_total += k.stack_depth();
      NetId from = top;
      for (std::size_t i = 0; i < kids.size(); ++i) {
        const NetId to =
            (i + 1 == kids.size())
                ? bottom
                : cell.add_net((type == FetType::kN ? "n" : "p") +
                               std::to_string((*next_internal)++));
        const int extra = series_extra + depth_total - kids[i].stack_depth();
        build_plane(cell, kids[i], type, from, to, sizing, base_width, extra,
                    next_internal);
        from = to;
      }
      return;
    }
    case Expr::Kind::kOr: {
      for (const auto& k : expr.children()) {
        build_plane(cell, k, type, top, bottom, sizing, base_width,
                    series_extra, next_internal);
      }
      return;
    }
    case Expr::Kind::kNot:
      throw util::Error(
          "build_plane: NOT is not realizable in a series/parallel plane; "
          "pull-down expressions must be AND/OR over positive literals");
  }
}

}  // namespace

CellNetlist build_static_cell(const logic::Expr& pdn_expr,
                              const SizingRule& sizing) {
  const int n = pdn_expr.num_vars();
  CellNetlist cell(n);
  int next_internal = 0;
  // N plane: pdn_expr between OUT and GND.
  build_plane(cell, pdn_expr, FetType::kN, CellNetlist::kOut,
              CellNetlist::kGnd, sizing, sizing.wn_base, 0, &next_internal);
  // P plane: the dual between VDD and OUT. The fold cap scales with the
  // p:n width ratio so both planes fold into equal finger counts (wider
  // p-fingers), keeping the gate stripes alignable.
  SizingRule p_sizing = sizing;
  p_sizing.max_finger_width_lambda *= sizing.wp_base / sizing.wn_base;
  build_plane(cell, pdn_expr.dual(), FetType::kP, CellNetlist::kVdd,
              CellNetlist::kOut, p_sizing, sizing.wp_base, 0, &next_internal);
  return cell;
}

}  // namespace cnfet::netlist
