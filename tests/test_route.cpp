// Wire-aware signoff tests: the grid router's determinism and the
// open/short oracle, the wire DRC deck against its brute-force oracle on
// injected faults and fuzzed placements, Elmore extraction against
// hand-computed goldens, wire-loaded incremental timing vs full rebuild,
// and routed-GDS DRC cleanliness per family cell. The Route10k suite is
// the 10k-gate stress tier, registered as its own ctest entry under the
// `scale` label so sanitizer runs can exclude it (-LE scale).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/flow.hpp"
#include "api/serialize.hpp"
#include "drc/drc.hpp"
#include "gds/gds.hpp"
#include "gen/gen.hpp"
#include "layout/cells.hpp"
#include "route/extract.hpp"
#include "route/router.hpp"
#include "sta/timing_graph.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace cnfet {
namespace {

const liberty::Library& cnfet_library() {
  static const auto library =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  return *library;
}

const layout::DesignRules& cnfet_rules() {
  return cnfet_library().cells().front().built.layout.rules();
}

gen::Generated random_dag(int gates, int num_inputs, std::uint64_t seed) {
  gen::GenOptions options;
  options.family = gen::Family::kRandomDag;
  options.target_gates = gates;
  options.num_inputs = num_inputs;
  options.seed = seed;
  return gen::generate(cnfet_library(), options);
}

std::string routing_bytes(const route::RoutingResult& routing) {
  return util::json::dump(api::to_json(routing));
}

// --- The wire deck's brute-force oracle ---------------------------------
//
// drc::check_routes' former quadratic sweep, kept outside the library as
// the reference the two-axis scanline must reproduce exactly: shapes are
// sorted on the cross-track axis only and every later shape within
// spacing on that axis is tested. Pair naming and the final order follow
// the deck's documented contract (lower net id first, at that net's shape;
// sorted by rule, location, text), so the two compare as equal vectors.

struct OracleShape {
  int net = 0;
  geom::Rect rect;
  bool is_via = false;
};

void oracle_sweep(std::vector<OracleShape> shapes, geom::Coord spacing,
                  bool cross_is_y, const std::string& layer,
                  std::vector<drc::Violation>& out) {
  const auto key_lo = [&](const geom::Rect& r) {
    return cross_is_y ? r.lo().y : r.lo().x;
  };
  const auto key_hi = [&](const geom::Rect& r) {
    return cross_is_y ? r.hi().y : r.hi().x;
  };
  std::sort(shapes.begin(), shapes.end(),
            [&](const OracleShape& a, const OracleShape& b) {
              return key_lo(a.rect) < key_lo(b.rect);
            });
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t j = i + 1; j < shapes.size(); ++j) {
      if (key_lo(shapes[j].rect) > key_hi(shapes[i].rect) + spacing) break;
      const auto& a = shapes[i];
      const auto& b = shapes[j];
      if (a.net == b.net) continue;
      const auto& low = a.net < b.net ? a : b;
      const auto& high = a.net < b.net ? b : a;
      const std::string nets = "nets " + std::to_string(low.net) + " and " +
                               std::to_string(high.net);
      if (a.rect.touches(b.rect)) {
        out.push_back({drc::RuleId::kWireShort, nets + " touch on " + layer,
                       low.rect});
      } else if (!a.is_via && !b.is_via &&
                 a.rect.expanded(spacing).overlaps(b.rect)) {
        out.push_back({drc::RuleId::kWireSpacing,
                       nets + " below wire spacing on " + layer, low.rect});
      }
    }
  }
}

drc::DrcReport oracle_check_routes(const route::RoutingResult& routing,
                                   const layout::DesignRules& rules) {
  drc::DrcReport report;
  const geom::Coord min_width = rules.db(rules.wire_width);
  const geom::Coord spacing = rules.db(rules.wire_spacing);
  std::vector<OracleShape> layer0, layer1;
  for (const auto& rn : routing.nets) {
    for (const auto& w : rn.wires) {
      if (w.width < min_width) {
        report.violations.push_back(
            {drc::RuleId::kWireMinWidth,
             "net " + std::to_string(rn.net) + " wire below minimum width",
             w.rect()});
      }
      (w.layer == 0 ? layer0 : layer1).push_back({rn.net, w.rect(), false});
    }
    for (const auto& v : rn.vias) {
      layer0.push_back({rn.net, v.rect(), true});
      layer1.push_back({rn.net, v.rect(), true});
    }
  }
  oracle_sweep(std::move(layer0), spacing, true, "metal2", report.violations);
  oracle_sweep(std::move(layer1), spacing, false, "metal3",
               report.violations);
  std::sort(report.violations.begin(), report.violations.end(),
            [](const drc::Violation& a, const drc::Violation& b) {
              return std::tie(a.rule, a.where, a.detail) <
                     std::tie(b.rule, b.where, b.detail);
            });
  return report;
}

/// Runs the wire deck, expects it to equal the oracle, and returns it.
drc::DrcReport deck_matching_oracle(const route::RoutingResult& routing,
                                    const std::string& what) {
  const auto deck = drc::check_routes(routing, cnfet_rules());
  const auto oracle = oracle_check_routes(routing, cnfet_rules());
  EXPECT_TRUE(deck.violations == oracle.violations)
      << what << "\n  deck: " << deck.to_string()
      << "\n  oracle: " << oracle.to_string();
  return deck;
}

bool has_violation(const drc::DrcReport& report, drc::RuleId rule,
                   const std::string& detail) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const drc::Violation& v) {
                       return v.rule == rule && v.detail == detail;
                     });
}

std::string pair_detail(int a, int b, const std::string& what) {
  return "nets " + std::to_string(std::min(a, b)) + " and " +
         std::to_string(std::max(a, b)) + " " + what;
}

/// (net index, wire index) of the first wire on `layer`.
std::pair<std::size_t, std::size_t> first_wire(
    const route::RoutingResult& routing, int layer) {
  for (std::size_t n = 0; n < routing.nets.size(); ++n) {
    const auto& wires = routing.nets[n].wires;
    for (std::size_t w = 0; w < wires.size(); ++w) {
      if (wires[w].layer == layer) return {n, w};
    }
  }
  ADD_FAILURE() << "no wire on layer " << layer;
  return {0, 0};
}

/// Grafts `count` seeded random shapes between nets: shifted copies of
/// other nets' wires (on and off grid), foreign vias, and long off-grid
/// rectangles against either layer's preferred direction, some of them
/// below minimum width.
route::RoutingResult graft_random_shapes(route::RoutingResult routing,
                                         int count, std::uint64_t seed) {
  const auto& rules = cnfet_rules();
  util::Xoshiro256 rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
  };
  const auto coord_in = [&](geom::Coord lo, geom::Coord hi) {
    return lo + static_cast<geom::Coord>(rng.uniform() *
                                         static_cast<double>(hi - lo + 1));
  };
  const geom::Coord p = routing.pitch;
  const auto& box = routing.grid_bbox;
  for (int k = 0; k < count; ++k) {
    auto& target = routing.nets[pick(routing.nets.size())];
    const auto& donor = routing.nets[pick(routing.nets.size())];
    const double kind = rng.uniform();
    if (kind < 0.4 && !donor.wires.empty()) {
      auto w = donor.wires[pick(donor.wires.size())];
      const geom::Vec2 d =
          rng.uniform() < 0.5
              ? geom::Vec2{coord_in(-2, 2) * p, coord_in(-2, 2) * p}
              : geom::Vec2{coord_in(-p, p), coord_in(-p, p)};
      w.a = w.a + d;
      w.b = w.b + d;
      target.wires.push_back(w);
    } else if (kind < 0.7) {
      const geom::Vec2 at{coord_in(box.lo().x, box.hi().x),
                          coord_in(box.lo().y, box.hi().y)};
      target.vias.push_back(route::Via{at, rules.db(rules.via_size)});
    } else {
      // Against the grain: layer 0 drawn vertically or layer 1
      // horizontally, at an arbitrary off-grid position.
      route::Wire w;
      w.layer = rng.uniform() < 0.5 ? 0 : 1;
      w.a = {coord_in(box.lo().x, box.hi().x),
             coord_in(box.lo().y, box.hi().y)};
      const geom::Coord len = coord_in(1, 8 * p);
      w.b = w.layer == 0 ? geom::Vec2{w.a.x, w.a.y + len}
                         : geom::Vec2{w.a.x + len, w.a.y};
      w.width = rules.db(rules.wire_width) + coord_in(-40, 40);
      target.wires.push_back(w);
    }
  }
  return routing;
}

/// Runs a flow with routing enabled up to sign-off and returns it.
api::Flow routed_flow_from_netlist(flow::GateNetlist netlist,
                                   layout::CellScheme scheme =
                                       layout::CellScheme::kScheme1) {
  api::FlowOptions options;
  options.route = true;
  options.place.scheme = scheme;
  auto made = api::Flow::from_netlist(std::move(netlist), options);
  EXPECT_TRUE(made.ok()) << made.error().message;
  auto reached = made.value().run(api::Stage::kSignedOff);
  EXPECT_TRUE(reached.ok()) << reached.error().message;
  return std::move(made.value());
}

// --- RouteTier: fast routing, extraction and DRC cases -------------------

TEST(RouteTier, RoutingIsByteDeterministic) {
  auto design = random_dag(120, 10, 11);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();
  const auto first = route::route(design.netlist, placement, rules);
  const auto second = route::route(design.netlist, placement, rules);
  EXPECT_TRUE(first == second);
  EXPECT_EQ(routing_bytes(first), routing_bytes(second));
  EXPECT_TRUE(first.complete());
  EXPECT_GT(first.total_wirelength_lambda, 0.0);
}

TEST(RouteTier, OracleAcceptsFuzzedPlacementsOnBothSchemes) {
  const auto& rules = cnfet_rules();
  for (const auto scheme :
       {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2}) {
    for (const std::uint64_t seed : {1, 2, 3, 4}) {
      auto design = random_dag(60 + 30 * static_cast<int>(seed), 8, seed);
      flow::PlaceOptions popt;
      popt.scheme = scheme;
      // Vary the aspect ratio too: tall-and-narrow vs wide-and-flat
      // placements exercise different congestion patterns.
      popt.aspect_rows = seed % 2 == 0 ? 0.5 : 2.0;
      const auto placement = flow::place(design.netlist, popt);
      const auto routing = route::route(design.netlist, placement, rules);
      EXPECT_TRUE(routing.complete())
          << "scheme " << static_cast<int>(scheme) << " seed " << seed
          << ": " << routing.failed_nets << " failed nets";
      const auto report =
          route::verify(design.netlist, placement, routing, rules);
      EXPECT_TRUE(report.ok())
          << "scheme " << static_cast<int>(scheme) << " seed " << seed
          << ": open=" << report.open_nets
          << " shorts=" << report.shorted_net_pairs
          << " stray=" << report.stray_terminals;
      EXPECT_EQ(report.nets_checked,
                static_cast<int>(routing.nets.size()));

      // The wire deck agrees with its oracle on the clean routing and on
      // the same routing with random shapes grafted between nets.
      const std::string what = "scheme " +
                               std::to_string(static_cast<int>(scheme)) +
                               " seed " + std::to_string(seed);
      EXPECT_TRUE(deck_matching_oracle(routing, what).clean()) << what;
      const auto grafted = graft_random_shapes(routing, 40, seed);
      EXPECT_FALSE(deck_matching_oracle(grafted, what + " grafted").clean())
          << what;
    }
  }
}

// The oracle is only trustworthy if it actually rejects broken routings.
TEST(RouteTier, OracleFlagsInjectedOpensAndShorts) {
  auto design = random_dag(80, 8, 7);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();
  const auto routing = route::route(design.netlist, placement, rules);
  ASSERT_TRUE(route::verify(design.netlist, placement, routing, rules).ok());

  // Open: delete all metal from the largest multi-terminal net.
  auto opened = routing;
  for (auto& rn : opened.nets) {
    if (!rn.wires.empty()) {
      rn.wires.clear();
      rn.vias.clear();
      break;
    }
  }
  EXPECT_GT(route::verify(design.netlist, placement, opened, rules).open_nets,
            0);

  // Short: graft one net's first wire onto a different net.
  auto shorted = routing;
  const route::Wire* stolen = nullptr;
  for (const auto& rn : shorted.nets) {
    if (!rn.wires.empty()) {
      stolen = &rn.wires.front();
      break;
    }
  }
  ASSERT_NE(stolen, nullptr);
  for (auto& rn : shorted.nets) {
    if (rn.wires.empty() || &rn.wires.front() == stolen) continue;
    rn.wires.push_back(*stolen);
    break;
  }
  EXPECT_GT(route::verify(design.netlist, placement, shorted, rules)
                .shorted_net_pairs,
            0);
}

// The wire deck is only trustworthy if it flags broken metal: each
// injected fault must be reported, and the whole report must equal the
// brute-force oracle's, order included.
TEST(RouteTier, WireDeckFlagsInjectedFaultsLikeItsOracle) {
  auto design = random_dag(80, 8, 7);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();
  const auto routing = route::route(design.netlist, placement, rules);
  ASSERT_TRUE(deck_matching_oracle(routing, "clean").clean());

  const geom::Coord p = routing.pitch;
  const geom::Coord width = rules.db(rules.wire_width);
  const geom::Coord spacing = rules.db(rules.wire_spacing);
  using drc::RuleId;
  for (const int layer : {0, 1}) {
    const auto [owner, index] = first_wire(routing, layer);
    const auto wire = routing.nets[owner].wires[index];
    const std::size_t foreign = owner == 0 ? 1 : 0;
    const int a = routing.nets[owner].net;
    const int b = routing.nets[foreign].net;
    const std::string on = layer == 0 ? "on metal2" : "on metal3";
    // Unit steps along the layer's tracks and across them.
    const geom::Vec2 forward =
        layer == 0 ? geom::Vec2{1, 0} : geom::Vec2{0, 1};
    const geom::Vec2 across =
        layer == 0 ? geom::Vec2{0, 1} : geom::Vec2{1, 0};
    const geom::Vec2 mid{(wire.a.x + wire.b.x) / 2,
                         (wire.a.y + wire.b.y) / 2};

    // A foreign wire continuing this one on its own track.
    auto shorted = routing;
    shorted.nets[foreign].wires.push_back(
        route::Wire{layer, wire.b, wire.b + forward * p, width});
    EXPECT_TRUE(has_violation(deck_matching_oracle(shorted, "short " + on),
                              RuleId::kWireShort,
                              pair_detail(a, b, "touch " + on)));

    // A foreign copy offset across the track by a wire width plus half
    // the spacing: clear of the wire, but too close to it.
    auto close = routing;
    auto copy = wire;
    copy.a = copy.a + across * (width + spacing / 2);
    copy.b = copy.b + across * (width + spacing / 2);
    close.nets[foreign].wires.push_back(copy);
    EXPECT_TRUE(has_violation(
        deck_matching_oracle(close, "sub-spacing " + on),
        RuleId::kWireSpacing, pair_detail(a, b, "below wire spacing " + on)));

    // The same at the rule's edge, a gap of spacing - 1: across the
    // track on either side (starting one unit later, so the sweep meets
    // each copy after the wire), and along it past the wire's end.
    const geom::Coord edge_step = width + spacing - 1;
    auto beside = routing;
    for (const geom::Coord side : {-1, 1}) {
      const geom::Vec2 shift = across * (side * edge_step) + forward;
      beside.nets[foreign].wires.push_back(
          route::Wire{layer, wire.a + shift, wire.b + shift, width});
    }
    EXPECT_TRUE(has_violation(
        deck_matching_oracle(beside, "spacing edge across " + on),
        RuleId::kWireSpacing, pair_detail(a, b, "below wire spacing " + on)));
    auto ahead = routing;
    const geom::Vec2 start = wire.b + forward * edge_step;
    ahead.nets[foreign].wires.push_back(
        route::Wire{layer, start, start + forward * p, width});
    EXPECT_TRUE(has_violation(
        deck_matching_oracle(ahead, "spacing edge along " + on),
        RuleId::kWireSpacing, pair_detail(a, b, "below wire spacing " + on)));

    // A foreign via landing on the wire.
    auto via = routing;
    via.nets[foreign].vias.push_back(
        route::Via{mid, rules.db(rules.via_size)});
    EXPECT_TRUE(has_violation(deck_matching_oracle(via, "via " + on),
                              RuleId::kWireShort,
                              pair_detail(a, b, "touch " + on)));

    // The wire itself drawn below minimum width.
    auto narrow = routing;
    narrow.nets[owner].wires[index].width = width - 2;
    EXPECT_TRUE(has_violation(deck_matching_oracle(narrow, "narrow " + on),
                              RuleId::kWireMinWidth,
                              "net " + std::to_string(a) +
                                  " wire below minimum width"));

    // An off-grid foreign rectangle drawn against the layer's preferred
    // direction, crossing the wire and the tracks beside it.
    auto off_grid = routing;
    const geom::Vec2 skewed = mid + geom::Vec2{137, 251};
    const geom::Vec2 span = across * (3 * p);
    off_grid.nets[foreign].wires.push_back(
        route::Wire{layer, skewed - span, skewed + span, width + 333});
    EXPECT_TRUE(has_violation(
        deck_matching_oracle(off_grid, "off-grid " + on), RuleId::kWireShort,
        pair_detail(a, b, "touch " + on)));
  }
}

// route::verify buckets metal3 shapes by column: two vertical wires of
// distinct nets on one column short even when their centers fall in
// different rows.
TEST(RouteTier, OracleFlagsMetal3ShortAcrossRows) {
  auto design = random_dag(80, 8, 7);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();
  auto routing = route::route(design.netlist, placement, rules);
  ASSERT_EQ(route::verify(design.netlist, placement, routing, rules)
                .shorted_net_pairs,
            0);

  // A metal3 segment of net 0 on an empty column right of the grid, and
  // a net-1 wire grafted onto its top end, centered three rows higher.
  const geom::Coord p = routing.pitch;
  const geom::Coord width = rules.db(rules.wire_width);
  const geom::Coord x = routing.grid_bbox.hi().x + 4 * p;
  const geom::Coord y = routing.grid_bbox.lo().y;
  routing.nets[0].wires.push_back(
      route::Wire{1, {x, y}, {x, y + 2 * p}, width});
  routing.nets[1].wires.push_back(
      route::Wire{1, {x, y + 2 * p}, {x, y + 6 * p}, width});
  EXPECT_EQ(route::verify(design.netlist, placement, routing, rules)
                .shorted_net_pairs,
            1);
  EXPECT_TRUE(has_violation(
      deck_matching_oracle(routing, "metal3 across rows"),
      drc::RuleId::kWireShort,
      pair_detail(routing.nets[0].net, routing.nets[1].net,
                  "touch on metal3")));
}

TEST(RouteTier, ElmoreMatchesHandComputedStraightWire) {
  const auto& lib = cnfet_library();
  const auto* inv = &lib.find("INV_1X");
  flow::GateNetlist netlist;
  const int a = netlist.add_net("A");
  netlist.mark_input(a);
  const int n1 = netlist.add_net("n1");
  const int n2 = netlist.add_net("n2");
  netlist.add_gate(flow::Gate{inv, {a}, n1, "u1"});
  netlist.add_gate(flow::Gate{inv, {n1}, n2, "u2"});
  netlist.mark_output(n2);

  const layout::DesignRules rules;
  const geom::Coord p = rules.db(rules.route_pitch);
  const geom::Coord w = rules.db(rules.wire_width);

  // One horizontal wire of two pitch steps; root at one end, sink at the
  // other. The RC ladder is root --R-- mid --R-- sink with step cap split
  // half per endpoint: C(root) = c/2, C(mid) = c, C(sink) = c/2.
  // Elmore(sink) = R*(3c/2) + R*(c/2) = 2*R*c.
  route::RoutingResult routing;
  routing.pitch = p;
  route::RoutedNet rn;
  rn.net = n1;
  rn.terminals = {{0, 0}, {2 * p, 0}};
  rn.wires = {route::Wire{0, {0, 0}, {2 * p, 0}, w}};
  rn.length_lambda = 2 * rules.route_pitch;
  routing.nets.push_back(rn);
  routing.total_wirelength_lambda = rn.length_lambda;

  const auto extraction = route::extract(netlist, routing, rules);
  ASSERT_EQ(extraction.nets.size(), 1U);
  const auto& ext = extraction.nets.front();
  const double step_res = rules.wire_sheet_res * rules.route_pitch /
                          rules.wire_width;
  const double step_cap = rules.wire_cap_per_lambda * rules.route_pitch;
  EXPECT_DOUBLE_EQ(ext.wire_cap_f,
                   2 * rules.route_pitch * rules.wire_cap_per_lambda);
  ASSERT_EQ(ext.sink_elmore_s.size(), 1U);
  EXPECT_DOUBLE_EQ(ext.sink_elmore_s.front(), 2.0 * step_res * step_cap);

  // And the WireLoads repackaging lands on (gate 1, pin 0) and net n1.
  const auto loads = extraction.to_wire_loads(netlist);
  EXPECT_TRUE(loads.enabled);
  EXPECT_DOUBLE_EQ(loads.net_cap_of(n1), ext.wire_cap_f);
  EXPECT_DOUBLE_EQ(loads.pin_delay_of(1, 0), ext.sink_elmore_s.front());
  EXPECT_DOUBLE_EQ(loads.net_cap_of(a), 0.0);
  EXPECT_DOUBLE_EQ(loads.pin_delay_of(99, 0), 0.0);  // out of range: zero
}

TEST(RouteTier, ElmoreMatchesHandComputedViaCorner) {
  const auto& lib = cnfet_library();
  const auto* inv = &lib.find("INV_1X");
  flow::GateNetlist netlist;
  const int a = netlist.add_net("A");
  netlist.mark_input(a);
  const int n1 = netlist.add_net("n1");
  const int n2 = netlist.add_net("n2");
  netlist.add_gate(flow::Gate{inv, {a}, n1, "u1"});
  netlist.add_gate(flow::Gate{inv, {n1}, n2, "u2"});
  netlist.mark_output(n2);

  const layout::DesignRules rules;
  const geom::Coord p = rules.db(rules.route_pitch);
  const geom::Coord w = rules.db(rules.wire_width);
  const geom::Coord vs = rules.db(rules.via_size);

  // An L: one metal2 step east, via up, one metal3 step north, via back
  // down to the layer-0 sink node — exactly the shape the router emits for
  // a diagonal two-terminal net. Caps: root c/2, corner c/2 (layer 0) and
  // c/2 (layer 1), sink c/2 on layer 1, 0 on layer 0.
  // Elmore(sink) = R*(3c/2) + Rvia*c + R*(c/2) + Rvia*0 = 2*R*c + Rvia*c.
  route::RoutingResult routing;
  routing.pitch = p;
  route::RoutedNet rn;
  rn.net = n1;
  rn.terminals = {{0, 0}, {p, p}};
  rn.wires = {route::Wire{0, {0, 0}, {p, 0}, w},
              route::Wire{1, {p, 0}, {p, p}, w}};
  rn.vias = {route::Via{{p, 0}, vs}, route::Via{{p, p}, vs}};
  rn.length_lambda = 2 * rules.route_pitch;
  routing.nets.push_back(rn);

  const auto extraction = route::extract(netlist, routing, rules);
  ASSERT_EQ(extraction.nets.size(), 1U);
  const double step_res = rules.wire_sheet_res * rules.route_pitch /
                          rules.wire_width;
  const double step_cap = rules.wire_cap_per_lambda * rules.route_pitch;
  ASSERT_EQ(extraction.nets.front().sink_elmore_s.size(), 1U);
  EXPECT_DOUBLE_EQ(extraction.nets.front().sink_elmore_s.front(),
                   2.0 * step_res * step_cap + rules.via_res * step_cap);
}

TEST(RouteTier, FamilyCellsRouteDrcCleanAndNeverBeatIdeal) {
  for (const auto& spec : layout::standard_cell_family()) {
    api::FlowOptions options;
    options.route = true;
    auto made = api::Flow::from_cell(spec.name, options);
    ASSERT_TRUE(made.ok()) << spec.name << ": " << made.error().message;
    auto& flow = made.value();
    const auto reached = flow.run();
    ASSERT_TRUE(reached.ok()) << spec.name << ": " << reached.error().message;

    ASSERT_NE(flow.routed(), nullptr) << spec.name;
    const auto& routed = *flow.routed();
    EXPECT_TRUE(routed.routing.complete()) << spec.name;
    EXPECT_EQ(routed.wire_drc_violations, 0) << spec.name;

    // Re-run the wire DRC deck directly: the routed metal is clean.
    const auto report = drc::check_routes(routed.routing, cnfet_rules());
    EXPECT_TRUE(report.clean()) << spec.name;

    // The wire model only adds: routed timing never beats the ideal-net
    // reference.
    EXPECT_GE(routed.routed_timing.worst_arrival,
              routed.ideal_worst_arrival_s)
        << spec.name;
    const auto metrics = flow.metrics();
    EXPECT_TRUE(metrics.routed) << spec.name;
    EXPECT_GE(metrics.routed_worst_arrival_s, metrics.worst_arrival_s)
        << spec.name;
    EXPECT_GE(metrics.wire_delay_ps, 0.0) << spec.name;

    // The routed GDS carries the new layers. One-gate designs (INV and the
    // cells that map to a single gate) own every net at a single placed
    // terminal — primary I/O has no placed sink — so they legitimately
    // route zero wire; every multi-gate design must draw metal.
    ASSERT_NE(flow.exported(), nullptr) << spec.name;
    const layout::LayerMap layers;
    int metal2 = 0, metal3 = 0, via23 = 0;
    for (const auto& s : flow.exported()->gds.structures) {
      for (const auto& b : s.boundaries) {
        metal2 += b.layer == layers.metal2;
        metal3 += b.layer == layers.metal3;
        via23 += b.layer == layers.via23;
      }
    }
    if (metrics.gates > 1) {
      EXPECT_GT(metrics.total_wirelength, 0.0) << spec.name;
      EXPECT_GT(metal2, 0) << spec.name;
    } else {
      EXPECT_EQ(metal2 + metal3 + via23, 0) << spec.name;
    }
    // A design can route on metal2 alone; metal3 and vias appear together
    // when they appear at all.
    EXPECT_EQ(metal3 > 0, via23 > 0) << spec.name;
  }
}

TEST(RouteTier, WireLoadedIncrementalRetimeMatchesFullRebuild) {
  const auto& lib = cnfet_library();
  auto design = random_dag(300, 12, 9);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();
  const auto routing = route::route(design.netlist, placement, rules);
  ASSERT_TRUE(routing.complete());
  const auto extraction = route::extract(design.netlist, routing, rules);

  sta::TimingGraph ideal(design.netlist);
  sta::TimingGraph wired(design.netlist, {}, 0.0,
                         extraction.to_wire_loads(design.netlist));
  EXPECT_GE(wired.worst_arrival(), ideal.worst_arrival());

  int edits = 0;
  for (int gate = 10; gate < 300 && edits < 16; gate += 17) {
    const auto& current = *design.netlist.gates()[gate].cell;
    for (const auto& option :
         lib.drives_of(liberty::Library::base_name(current.name))) {
      if (option.cell == &current) continue;
      design.netlist.resize_gate(gate, option.cell);
      wired.on_gate_replaced(gate);
      ++edits;
      break;
    }
    (void)wired.worst_arrival();
  }
  ASSERT_GT(edits, 0);
  EXPECT_TRUE(wired.matches_full_rebuild());
  EXPECT_GT(wired.stats().incremental_retimes, 0U);
}

TEST(RouteTier, RoutingResultSerializesRoundTrip) {
  auto design = random_dag(90, 8, 13);
  const auto placement = flow::place(design.netlist);
  const auto routing = route::route(design.netlist, placement, cnfet_rules());
  const auto round =
      api::routing_result_from_json(api::to_json(routing));
  EXPECT_TRUE(round == routing);
  EXPECT_EQ(routing_bytes(round), routing_bytes(routing));
}

TEST(RouteTier, RoutedSessionResumesByteIdentically) {
  auto design = random_dag(70, 8, 17);
  auto flow = routed_flow_from_netlist(std::move(design.netlist));
  ASSERT_TRUE(flow.export_design().ok());

  const auto saved = flow.session_json();
  ASSERT_TRUE(saved.ok()) << saved.error().message;
  const auto first = util::json::dump(saved.value());

  auto resumed = api::Flow::resume_json(saved.value(), "<test>");
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  const auto again = resumed.value().session_json();
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(first, util::json::dump(again.value()));

  // The regenerated export carries the identical routed GDS.
  ASSERT_NE(resumed.value().exported(), nullptr);
  std::ostringstream local, back;
  gds::write(flow.exported()->gds, local);
  gds::write(resumed.value().exported()->gds, back);
  EXPECT_EQ(local.str(), back.str());

  const auto m1 = flow.metrics(), m2 = resumed.value().metrics();
  EXPECT_TRUE(m2.routed);
  EXPECT_EQ(m1.total_wirelength, m2.total_wirelength);
  EXPECT_EQ(m1.wire_cap_ff, m2.wire_cap_ff);
  EXPECT_EQ(m1.wire_delay_ps, m2.wire_delay_ps);
  EXPECT_EQ(m1.routed_worst_arrival_s, m2.routed_worst_arrival_s);
}

// --- Route10k: the 10k-gate stress tier (ctest label `scale`) ------------

// Uniform-random DAGs have no locality: their bisection width grows with
// the gate count, so no fixed-layer fabric routes them at scale (the fuzz
// tier above covers them at the sizes where they are routable). The 10k
// tier therefore routes a structured netlist, like real designs are.
TEST(Route10k, TenThousandGatesRouteCompleteCleanAndDeterministic) {
  gen::GenOptions gopt;
  gopt.family = gen::Family::kRippleCarryAdder;
  gopt.width = 1112;  // 9 gates per full-adder bit: just over 10k gates
  auto design = gen::generate(cnfet_library(), gopt);
  ASSERT_GE(design.netlist.gates().size(), 10000U);
  const auto placement = flow::place(design.netlist);
  const auto& rules = cnfet_rules();

  const auto routing = route::route(design.netlist, placement, rules);
  EXPECT_TRUE(routing.complete())
      << routing.failed_nets << " of " << routing.nets.size()
      << " nets failed";
  EXPECT_GT(routing.total_wirelength_lambda, 0.0);

  const auto report = route::verify(design.netlist, placement, routing, rules);
  EXPECT_TRUE(report.ok())
      << "open=" << report.open_nets
      << " shorts=" << report.shorted_net_pairs
      << " stray=" << report.stray_terminals;

  EXPECT_TRUE(drc::check_routes(routing, rules).clean());

  const auto second = route::route(design.netlist, placement, rules);
  EXPECT_TRUE(second == routing);
}

}  // namespace
}  // namespace cnfet
