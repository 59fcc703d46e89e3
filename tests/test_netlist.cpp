// Unit tests for transistor netlists and the switch-level evaluator.
#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "logic/expr.hpp"
#include "netlist/cell_netlist.hpp"
#include "util/rng.hpp"

namespace cnfet::netlist {
namespace {

using logic::parse_expr;
using logic::TruthTable;

TruthTable inverted(const logic::Expr& pdn, int n) { return ~pdn.truth(n); }

TEST(SwitchLevel, InverterEvaluates) {
  const auto cell = build_static_cell(parse_expr("A"));
  EXPECT_EQ(cell.evaluate(0), Level::kHigh);
  EXPECT_EQ(cell.evaluate(1), Level::kLow);
  EXPECT_FALSE(cell.has_supply_short(0));
  EXPECT_FALSE(cell.has_supply_short(1));
}

TEST(SwitchLevel, CellFamilyMatchesComplementOfPdn) {
  for (const char* pdn : {"A", "A*B", "A+B", "A*B*C", "A+B+C", "ABC+D",
                          "(A+B)*C", "A*B+C", "(A+B)*(C+D)", "A*B+C*D",
                          "ABCD", "(A+B+C)*D"}) {
    const auto expr = parse_expr(pdn);
    const auto cell = build_static_cell(expr);
    const auto report = cell.check_function(inverted(expr, expr.num_vars()));
    EXPECT_TRUE(report.ok) << pdn << ": " << report.to_string();
  }
}

TEST(SwitchLevel, SeriesUpsizingFollowsStackDepth) {
  // NAND3 pull-down: three series n-FETs, each 3x the base width; pull-up
  // p-FETs stay at base width.
  SizingRule sizing;
  sizing.wn_base = 4.0;
  sizing.wp_base = 4.0;
  const auto cell = build_static_cell(parse_expr("A*B*C"), sizing);
  for (const auto& f : cell.plane_fets(FetType::kN)) {
    EXPECT_DOUBLE_EQ(f.width_lambda, 12.0);
  }
  for (const auto& f : cell.plane_fets(FetType::kP)) {
    EXPECT_DOUBLE_EQ(f.width_lambda, 4.0);
  }
}

TEST(SwitchLevel, Aoi31MixedStackSizing) {
  // PDN of AOI31 = ABC + D: the ABC chain is 3 deep, D is 1 deep.
  const auto cell = build_static_cell(parse_expr("ABC+D"));
  int deep = 0, shallow = 0;
  for (const auto& f : cell.plane_fets(FetType::kN)) {
    if (f.width_lambda == 12.0) ++deep;
    if (f.width_lambda == 4.0) ++shallow;
  }
  EXPECT_EQ(deep, 3);
  EXPECT_EQ(shallow, 1);
  // PUN of AOI31 = (A+B+C)*D: everything is in a 2-deep series path.
  for (const auto& f : cell.plane_fets(FetType::kP)) {
    EXPECT_DOUBLE_EQ(f.width_lambda, 8.0);
  }
}

TEST(SwitchLevel, StrayShortCreatesSupplyFight) {
  // Shorting VDD to OUT in a NAND2 makes input row 3 (both high) a fight.
  auto cell = build_static_cell(parse_expr("A*B"));
  cell.add_short({CellNetlist::kVdd, CellNetlist::kOut});
  EXPECT_EQ(cell.evaluate(3), Level::kFight);
  EXPECT_TRUE(cell.has_supply_short(3));
  // Rows where the PDN is off are still (weakly) correct.
  EXPECT_EQ(cell.evaluate(0), Level::kHigh);
  const auto report = cell.check_function(~parse_expr("A*B").truth(2));
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.failing_row, 3u);
  EXPECT_TRUE(report.supply_short);
}

TEST(SwitchLevel, StraySeriesChainThatIsRedundantIsHarmless) {
  // A stray chain VDD -pA- x -pB- OUT duplicates the intended NAND2 pull-up
  // path through redundant devices; function must be unchanged.
  auto cell = build_static_cell(parse_expr("A*B"));
  const auto x = cell.add_net("stray0");
  cell.add_fet({FetType::kP, 0, CellNetlist::kVdd, x, 4.0});
  cell.add_fet({FetType::kP, 1, x, CellNetlist::kOut, 4.0});
  EXPECT_TRUE(cell.check_function(~parse_expr("A*B").truth(2)).ok);
}

TEST(SwitchLevel, MixedDopingStrayChainNeverConducts) {
  // A tube crossing from the p+ region into the n+ region picks up a
  // p-channel and an n-channel in series under the same gate: pA AND nA is
  // never on, so even a VDD..GND stray chain is harmless.
  auto cell = build_static_cell(parse_expr("A"));
  const auto x = cell.add_net("stray0");
  cell.add_fet({FetType::kP, 0, CellNetlist::kVdd, x, 4.0});
  cell.add_fet({FetType::kN, 0, x, CellNetlist::kGnd, 4.0});
  EXPECT_TRUE(cell.check_function(~parse_expr("A").truth(1)).ok);
  EXPECT_FALSE(cell.has_supply_short(0));
  EXPECT_FALSE(cell.has_supply_short(1));
}

TEST(SwitchLevel, FloatDetection) {
  // A pull-down-only "cell" floats when its network is off.
  CellNetlist cell(1);
  cell.add_fet({FetType::kN, 0, CellNetlist::kOut, CellNetlist::kGnd, 4.0});
  EXPECT_EQ(cell.evaluate(0), Level::kFloat);
  EXPECT_EQ(cell.evaluate(1), Level::kLow);
}

TEST(SwitchLevel, InternalNetNamesAreStable) {
  const auto cell = build_static_cell(parse_expr("A*B*C"));
  // GND, VDD, OUT plus two internal nets in the series pull-down chain
  // (the parallel pull-up needs none).
  EXPECT_EQ(cell.num_nets(), 3 + 2);
  EXPECT_EQ(cell.net_name(0), "GND");
  EXPECT_EQ(cell.net_name(1), "VDD");
  EXPECT_EQ(cell.net_name(2), "OUT");
}

// --- Oracle: the per-row BFS evaluator -----------------------------------
//
// The straightforward switch-level semantics the bit-parallel kernel must
// reproduce: for one input row, BFS from VDD and from GND over the ON
// FETs (N where the gate is 1, P where it is 0) and every short.

struct OracleReach {
  bool from_vdd = false;
  bool from_gnd = false;
};

std::vector<OracleReach> oracle_reach(const CellNetlist& cell,
                                      std::uint64_t row) {
  const auto nets = static_cast<std::size_t>(cell.num_nets());
  std::vector<std::vector<NetId>> adjacency(nets);
  const auto connect = [&](NetId a, NetId b) {
    adjacency[static_cast<std::size_t>(a)].push_back(b);
    adjacency[static_cast<std::size_t>(b)].push_back(a);
  };
  for (const auto& f : cell.fets()) {
    const bool gate_high = ((row >> f.gate_input) & 1) != 0;
    if (f.type == FetType::kN ? gate_high : !gate_high) connect(f.a, f.b);
  }
  for (const auto& s : cell.shorts()) connect(s.a, s.b);
  std::vector<OracleReach> reach(nets);
  const auto flood = [&](NetId seed, bool OracleReach::* field) {
    std::vector<bool> seen(nets, false);
    std::queue<NetId> queue;
    queue.push(seed);
    seen[static_cast<std::size_t>(seed)] = true;
    while (!queue.empty()) {
      const NetId n = queue.front();
      queue.pop();
      reach[static_cast<std::size_t>(n)].*field = true;
      for (const NetId next : adjacency[static_cast<std::size_t>(n)]) {
        if (!seen[static_cast<std::size_t>(next)]) {
          seen[static_cast<std::size_t>(next)] = true;
          queue.push(next);
        }
      }
    }
  };
  flood(CellNetlist::kVdd, &OracleReach::from_vdd);
  flood(CellNetlist::kGnd, &OracleReach::from_gnd);
  return reach;
}

Level oracle_level(const OracleReach& r) {
  if (r.from_vdd && r.from_gnd) return Level::kFight;
  if (r.from_vdd) return Level::kHigh;
  if (r.from_gnd) return Level::kLow;
  return Level::kFloat;
}

FunctionalReport oracle_check(const CellNetlist& cell,
                              const TruthTable& expected) {
  FunctionalReport report;
  for (std::uint64_t row = 0; row < expected.num_rows(); ++row) {
    const auto reach = oracle_reach(cell, row);
    const Level level = oracle_level(reach[CellNetlist::kOut]);
    const bool want_high = expected.eval(row);
    const bool supply_short = reach[CellNetlist::kVdd].from_gnd;
    if (supply_short || level != (want_high ? Level::kHigh : Level::kLow)) {
      report.ok = false;
      report.failing_row = row;
      report.observed = level;
      report.expected_high = want_high;
      report.supply_short = supply_short;
      return report;
    }
  }
  return report;
}

/// Random PDN expression over `n` inputs: AND/OR trees of positive
/// literals, every input used at least once.
logic::Expr random_pdn(util::Xoshiro256& rng, int n) {
  std::vector<logic::Expr> terms;
  for (int i = 0; i < n; ++i) terms.push_back(logic::Expr::var(i));
  while (terms.size() > 1) {
    const auto i = rng.below(terms.size());
    auto a = terms[i];
    terms.erase(terms.begin() + static_cast<std::ptrdiff_t>(i));
    const auto j = rng.below(terms.size());
    auto b = terms[j];
    terms[j] = rng.below(2) == 0 ? logic::Expr::make_and({a, b})
                                 : logic::Expr::make_or({a, b});
  }
  return terms.front();
}

/// A random netlist over `n` inputs: either a static cell with stray
/// devices superimposed (mostly functional, failing at scattered rows)
/// or a random device soup. Strays are FETs, shorts and series chains
/// through fresh nets, as a mispositioned tube would add them.
CellNetlist random_netlist(util::Xoshiro256& rng, int n) {
  const bool static_cell = rng.below(2) == 0;
  CellNetlist cell =
      static_cell ? build_static_cell(random_pdn(rng, n)) : CellNetlist(n);
  // Static cells get few strays, so some stay functional.
  const std::uint64_t strays = static_cell ? 3 : 8;
  for (auto k = rng.below(4); k > 0; --k) cell.add_net("x");
  const auto any_net = [&] {
    return static_cast<NetId>(rng.below(static_cast<std::uint64_t>(
        cell.num_nets())));
  };
  const auto any_fet = [&](NetId a, NetId b) {
    return Fet{rng.below(2) == 0 ? FetType::kN : FetType::kP,
               static_cast<int>(rng.below(static_cast<std::uint64_t>(n))), a,
               b, 4.0};
  };
  for (auto k = rng.below(strays); k > 0; --k) {
    cell.add_fet(any_fet(any_net(), any_net()));
  }
  if (rng.below(strays) == 0) cell.add_short({any_net(), any_net()});
  for (auto chains = rng.below(strays / 2 + 1); chains > 0; --chains) {
    const NetId to = any_net();
    NetId at = any_net();
    for (auto links = rng.below(3) + 1; links > 0; --links) {
      const NetId next = links == 1 ? to : cell.add_net("stray");
      cell.add_fet(any_fet(at, next));
      at = next;
    }
  }
  return cell;
}

TEST(SwitchLevelOracle, CheckFunctionMatchesPerRowBfs) {
  util::Xoshiro256 rng(20240817);
  int failing = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const int n = 1 + static_cast<int>(rng.below(TruthTable::kMaxInputs));
    const CellNetlist cell = random_netlist(rng, n);
    // Half the specs are the netlist's own OUT levels (High -> 1) so
    // both passing and failing reports occur; half are random tables.
    TruthTable expected(n, rng());
    if (rng.below(2) == 0) {
      for (std::uint64_t row = 0; row < expected.num_rows(); ++row) {
        const auto out = oracle_reach(cell, row)[CellNetlist::kOut];
        expected.set(row, oracle_level(out) == Level::kHigh);
      }
    }
    const FunctionalReport want = oracle_check(cell, expected);
    const FunctionalReport got = cell.check_function(expected);
    SCOPED_TRACE("iteration " + std::to_string(iter));
    ASSERT_EQ(got.ok, want.ok);
    ASSERT_EQ(got.failing_row, want.failing_row);
    ASSERT_EQ(got.observed, want.observed);
    ASSERT_EQ(got.expected_high, want.expected_high);
    ASSERT_EQ(got.supply_short, want.supply_short);
    if (!got.ok) ++failing;
  }
  // The fuzz exercised both outcomes.
  EXPECT_GT(failing, 300);
  EXPECT_LT(failing, 2700) << "passing: " << 3000 - failing;
}

TEST(SwitchLevelOracle, EvaluateMatchesPerRowBfsUpToTwelveInputs) {
  util::Xoshiro256 rng(77);
  for (int iter = 0; iter < 300; ++iter) {
    const int n = 1 + static_cast<int>(rng.below(12));
    const CellNetlist cell = random_netlist(rng, n);
    // Every row for small cells; a sample across all blocks for wide ones.
    const std::uint64_t rows = 1ull << n;
    const std::uint64_t samples = rows <= 256 ? rows : 64;
    for (std::uint64_t k = 0; k < samples; ++k) {
      const std::uint64_t row = rows <= 256 ? k : rng.below(rows);
      const auto reach = oracle_reach(cell, row);
      SCOPED_TRACE("iteration " + std::to_string(iter) + " row " +
                   std::to_string(row));
      ASSERT_EQ(cell.has_supply_short(row),
                reach[CellNetlist::kVdd].from_gnd);
      for (NetId net = 0; net < cell.num_nets(); ++net) {
        ASSERT_EQ(cell.evaluate(row, net),
                  oracle_level(reach[static_cast<std::size_t>(net)]))
            << "net " << net;
      }
    }
  }
}

TEST(SwitchLevel, RejectsMalformedFets) {
  CellNetlist cell(1);
  EXPECT_THROW(cell.add_fet({FetType::kN, 5, 0, 1, 4.0}),
               util::ContractViolation);
  EXPECT_THROW(cell.add_fet({FetType::kN, 0, 0, 99, 4.0}),
               util::ContractViolation);
  EXPECT_THROW(cell.add_fet({FetType::kN, 0, 0, 1, -1.0}),
               util::ContractViolation);
}

}  // namespace
}  // namespace cnfet::netlist
