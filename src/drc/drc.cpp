#include "drc/drc.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <tuple>

namespace cnfet::drc {

using geom::Coord;
using geom::Rect;

const char* to_string(RuleId rule) {
  switch (rule) {
    case RuleId::kGateMinLength:
      return "gate.min_length";
    case RuleId::kContactMinLength:
      return "contact.min_length";
    case RuleId::kGateContactSpacing:
      return "gate_contact.spacing";
    case RuleId::kGateGateSpacing:
      return "gate_gate.spacing";
    case RuleId::kContactContactSpacing:
      return "contact_contact.spacing";
    case RuleId::kEtchMinSize:
      return "etch.min_size";
    case RuleId::kGateOverhang:
      return "gate.band_overhang";
    case RuleId::kBandSeparation:
      return "cnt_band.separation";
    case RuleId::kViaOnGate:
      return "via.on_gate";
    case RuleId::kPinMinSize:
      return "pin.min_size";
    case RuleId::kWireMinWidth:
      return "wire.min_width";
    case RuleId::kWireSpacing:
      return "wire.spacing";
    case RuleId::kWireShort:
      return "wire.short";
  }
  return "?";
}

std::string DrcReport::to_string() const {
  if (clean()) return "DRC clean";
  std::ostringstream out;
  out << violations.size() << " DRC violation(s):";
  for (const auto& v : violations) {
    out << "\n  [" << drc::to_string(v.rule) << "] " << v.detail << " at "
        << v.where.to_string();
  }
  return out.str();
}

namespace {

void check_strip(const layout::StripGeometry& strip,
                 const layout::DesignRules& rules, DrcReport& report) {
  auto add = [&](RuleId rule, const std::string& detail, const Rect& where) {
    report.violations.push_back(Violation{rule, detail, where});
  };

  const Coord gate_len = rules.db(rules.gate_len);
  const Coord contact_len = rules.db(rules.contact_len);
  const Coord etch_len = rules.db(rules.etch_len);

  for (const auto& g : strip.gates) {
    if (g.rect.width() < gate_len) {
      add(RuleId::kGateMinLength, "gate narrower than Lg", g.rect);
    }
    if (g.rect.lo().y > strip.band.lo().y ||
        g.rect.hi().y < strip.band.hi().y) {
      add(RuleId::kGateOverhang,
          "gate does not cover the CNT band (tube bypass possible)", g.rect);
    }
  }
  for (const auto& c : strip.contacts) {
    if (c.rect.width() < contact_len) {
      add(RuleId::kContactMinLength, "contact narrower than Ls/Ld", c.rect);
    }
  }
  for (const auto& e : strip.etches) {
    if (e.width() < etch_len) {
      add(RuleId::kEtchMinSize, "etched region below lithography minimum", e);
    }
  }

  // Pairwise spacing along the strip.
  const Coord s_gc = rules.db(rules.gate_contact_space);
  const Coord s_gg = rules.db(rules.gate_gate_space);
  const Coord s_cc = rules.db(rules.contact_contact_space);
  auto gap = [](const Rect& a, const Rect& b) -> Coord {
    if (a.lo().x > b.lo().x) return a.lo().x - b.hi().x;
    return b.lo().x - a.hi().x;
  };
  for (std::size_t i = 0; i < strip.gates.size(); ++i) {
    for (std::size_t j = i + 1; j < strip.gates.size(); ++j) {
      const Coord g = gap(strip.gates[i].rect, strip.gates[j].rect);
      if (g >= 0 && g < s_gg) {
        add(RuleId::kGateGateSpacing, "gate-gate spacing",
            strip.gates[i].rect);
      }
    }
    for (const auto& c : strip.contacts) {
      const Coord g = gap(strip.gates[i].rect, c.rect);
      if (g >= 0 && g < s_gc) {
        add(RuleId::kGateContactSpacing, "gate-contact spacing", c.rect);
      }
    }
  }
  for (std::size_t i = 0; i < strip.contacts.size(); ++i) {
    for (std::size_t j = i + 1; j < strip.contacts.size(); ++j) {
      const Coord g = gap(strip.contacts[i].rect, strip.contacts[j].rect);
      // Abutting an etch slot legitimately separates contacts by 2 lambda
      // of etched region; only bare gaps below the rule are violations.
      bool etch_between = false;
      for (const auto& e : strip.etches) {
        if (e.lo().x >= std::min(strip.contacts[i].rect.hi().x,
                                 strip.contacts[j].rect.hi().x) &&
            e.hi().x <= std::max(strip.contacts[i].rect.lo().x,
                                 strip.contacts[j].rect.lo().x)) {
          etch_between = true;
        }
      }
      if (!etch_between && g >= 0 && g < s_cc) {
        add(RuleId::kContactContactSpacing, "contact-contact spacing",
            strip.contacts[i].rect);
      }
    }
  }
}

}  // namespace

DrcReport check(const layout::CellLayout& cell, const DrcOptions& options) {
  DrcReport report;
  const auto& rules = options.deck.has_value() ? *options.deck : cell.rules();

  check_strip(cell.pun(), rules, report);
  check_strip(cell.pdn(), rules, report);

  if (cell.pun().band.overlaps(cell.pdn().band)) {
    report.violations.push_back(Violation{
        RuleId::kBandSeparation, "PUN/PDN CNT bands overlap",
        cell.pun().band});
  }

  if (!options.allow_vertical_gating && cell.via_on_gate_count() > 0) {
    report.violations.push_back(Violation{
        RuleId::kViaOnGate,
        std::to_string(cell.via_on_gate_count()) +
            " gate(s) connect PUN-PDN only through a via on the active gate",
        cell.bbox()});
  }

  const geom::Coord pin_min = rules.db(rules.pin_width);
  for (const auto& pin : cell.pins()) {
    if (pin.rect.width() < pin_min || pin.rect.height() < pin_min) {
      report.violations.push_back(
          Violation{RuleId::kPinMinSize, "pin " + pin.name, pin.rect});
    }
  }
  return report;
}

namespace {

/// One drawn shape of the routed design, flattened for the wire deck.
struct RouteShape {
  int net = 0;
  Rect rect;
  bool is_via = false;  ///< exempt from the spacing rule, not from shorts
};

constexpr Coord axis_of(geom::Vec2 v, int axis) {
  return axis == 0 ? v.x : v.y;
}

/// The active set of the sweep: a max-segment tree over the layer's shapes
/// in cross-track-lo order. A leaf holds its shape's cross-track hi while
/// the shape is active and kInactive otherwise, so a query prunes every
/// subtree with no active shape reaching far enough. One flat array,
/// allocated once per layer.
class ActiveSet {
 public:
  static constexpr Coord kInactive = std::numeric_limits<Coord>::min();

  explicit ActiveSet(std::size_t n)
      : leaves_(std::bit_ceil(std::max<std::size_t>(n, 1))),
        max_hi_(2 * leaves_, kInactive) {}

  void set(std::size_t rank, Coord cross_hi) {
    std::size_t node = rank + leaves_;
    max_hi_[node] = cross_hi;
    for (node /= 2; node > 0; node /= 2) {
      max_hi_[node] = std::max(max_hi_[2 * node], max_hi_[2 * node + 1]);
    }
  }

  /// Calls visit(rank) for every active rank below `end` whose cross-track
  /// hi is at least `min_hi`, in ascending rank order. `visit` may
  /// deactivate the rank it is given.
  template <typename Visit>
  void report(std::size_t end, Coord min_hi, Visit&& visit) {
    report(1, 0, leaves_, end, min_hi, visit);
  }

 private:
  template <typename Visit>
  void report(std::size_t node, std::size_t lo, std::size_t hi,
              std::size_t end, Coord min_hi, Visit& visit) {
    if (lo >= end || max_hi_[node] < min_hi) return;
    if (node >= leaves_) {
      visit(node - leaves_);
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    report(2 * node, lo, mid, end, min_hi, visit);
    report(2 * node + 1, mid, hi, end, min_hi, visit);
  }

  std::size_t leaves_;
  std::vector<Coord> max_hi_;
};

/// Spacing/short rules for one pair of same-layer shapes. The violation is
/// named and placed by the lower net id, so it does not depend on the order
/// the sweep met the pair in.
void check_pair(const RouteShape& a, const RouteShape& b, Coord spacing,
                const char* layer_name, std::vector<Violation>& out) {
  if (a.net == b.net) return;
  const RouteShape& first = a.net < b.net ? a : b;
  const RouteShape& second = a.net < b.net ? b : a;
  const std::string nets = "nets " + std::to_string(first.net) + " and " +
                           std::to_string(second.net);
  if (a.rect.touches(b.rect)) {
    out.push_back(Violation{RuleId::kWireShort,
                            nets + " touch on " + layer_name, first.rect});
  } else if (!a.is_via && !b.is_via &&
             a.rect.expanded(spacing).overlaps(b.rect)) {
    out.push_back(Violation{RuleId::kWireSpacing,
                            nets + " below wire spacing on " + layer_name,
                            first.rect});
  }
}

/// Two-axis scanline over one layer. Shapes arrive in along-track lo
/// order, and each arrival is tested against the active shapes whose
/// cross-track interval, widened by `reach`, meets its own. `reach` is the
/// largest gap (on both axes) at which a pair can still violate a rule: a
/// short needs gap <= 0 and a spacing violation gap < spacing. A shape
/// found to end more than `reach` before the arrival starts can meet no
/// later arrival either, so it leaves the active set then, once. Correct
/// for arbitrary rectangles; O((n + k) log n) in shapes n and pairs k that
/// come within reach of each other.
void sweep_layer(std::vector<RouteShape>& shapes, int along_axis,
                 Coord spacing, const char* layer_name,
                 std::vector<Violation>& out) {
  const int cross_axis = 1 - along_axis;
  const Coord reach = std::max<Coord>(spacing - 1, 0);
  // A shape's rank in the active set is its index in cross-lo order.
  std::sort(shapes.begin(), shapes.end(),
            [&](const RouteShape& a, const RouteShape& b) {
              return axis_of(a.rect.lo(), cross_axis) <
                     axis_of(b.rect.lo(), cross_axis);
            });
  // (along-track lo, rank) in arrival order.
  std::vector<std::pair<Coord, std::size_t>> arrivals(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    arrivals[i] = {axis_of(shapes[i].rect.lo(), along_axis), i};
  }
  std::sort(arrivals.begin(), arrivals.end());

  ActiveSet active(shapes.size());
  for (const auto& [along_lo, i] : arrivals) {
    const Rect& rect = shapes[i].rect;
    const Coord cross_limit = axis_of(rect.hi(), cross_axis) + reach;
    const auto end = std::upper_bound(
        shapes.begin(), shapes.end(), cross_limit,
        [&](Coord limit, const RouteShape& s) {
          return limit < axis_of(s.rect.lo(), cross_axis);
        });
    active.report(static_cast<std::size_t>(end - shapes.begin()),
                  axis_of(rect.lo(), cross_axis) - reach,
                  [&](std::size_t j) {
                    if (axis_of(shapes[j].rect.hi(), along_axis) + reach <
                        along_lo) {
                      active.set(j, ActiveSet::kInactive);
                    } else {
                      check_pair(shapes[i], shapes[j], spacing, layer_name,
                                 out);
                    }
                  });
    active.set(i, axis_of(rect.hi(), cross_axis));
  }
}

}  // namespace

DrcReport check_routes(const route::RoutingResult& routing,
                       const layout::DesignRules& rules) {
  DrcReport report;
  const Coord min_width = rules.db(rules.wire_width);
  const Coord spacing = rules.db(rules.wire_spacing);

  // Flatten per layer. metal2 (layer 0) runs horizontally, so it sweeps
  // along x; metal3 sweeps along y. Vias land on both layers.
  std::vector<RouteShape> layer0;
  std::vector<RouteShape> layer1;
  for (const auto& rn : routing.nets) {
    for (const auto& w : rn.wires) {
      if (w.width < min_width) {
        report.violations.push_back(Violation{
            RuleId::kWireMinWidth,
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
  sweep_layer(layer0, 0, spacing, "metal2", report.violations);
  sweep_layer(layer1, 1, spacing, "metal3", report.violations);
  // Canonical order: by rule, then location, then text.
  std::sort(report.violations.begin(), report.violations.end(),
            [](const Violation& a, const Violation& b) {
              return std::tie(a.rule, a.where, a.detail) <
                     std::tie(b.rule, b.where, b.detail);
            });
  return report;
}

}  // namespace cnfet::drc
