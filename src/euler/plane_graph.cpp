#include "euler/plane_graph.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace cnfet::euler {

using netlist::NetId;

std::vector<NetId> Trail::vertices(const std::vector<PlaneEdge>& edges) const {
  std::vector<NetId> verts{start};
  NetId at = start;
  for (const auto& step : steps) {
    const auto& e = edges[static_cast<std::size_t>(step.edge)];
    CNFET_REQUIRE((step.forward ? e.u : e.v) == at);
    at = step.forward ? e.v : e.u;
    verts.push_back(at);
  }
  return verts;
}

std::vector<int> PlaneOrder::gate_sequence(
    const std::vector<PlaneEdge>& edges) const {
  std::vector<int> seq;
  for (const auto& t : trails) {
    for (const auto& s : t.steps) {
      seq.push_back(edges[static_cast<std::size_t>(s.edge)].gate_input);
    }
  }
  return seq;
}

int PlaneOrder::num_contacts() const {
  int contacts = 0;
  for (const auto& t : trails) {
    contacts += static_cast<int>(t.steps.size()) + 1;
  }
  return contacts;
}

std::vector<PlaneEdge> plane_edges(const netlist::CellNetlist& cell,
                                   netlist::FetType type) {
  std::vector<PlaneEdge> edges;
  for (const auto& f : cell.fets()) {
    if (f.type == type) {
      edges.push_back(PlaneEdge{f.gate_input, f.a, f.b, f.width_lambda});
    }
  }
  return edges;
}

std::vector<int> degrees(const std::vector<PlaneEdge>& edges) {
  NetId top = -1;
  for (const auto& e : edges) top = std::max({top, e.u, e.v});
  std::vector<int> deg(static_cast<std::size_t>(top + 1), 0);
  for (const auto& e : edges) {
    ++deg[static_cast<std::size_t>(e.u)];
    ++deg[static_cast<std::size_t>(e.v)];
  }
  return deg;
}

bool contact_worthy(NetId v, int degree) {
  // Rails and the output always take metal; otherwise anything that is not
  // a pure series point (degree exactly 2) needs a contact: terminals
  // (degree 1) end a strip, junctions (degree >= 3) join several runs.
  return v == netlist::CellNetlist::kGnd || v == netlist::CellNetlist::kVdd ||
         v == netlist::CellNetlist::kOut || degree != 2;
}

int count_odd_vertices(const std::vector<PlaneEdge>& edges) {
  const auto deg = degrees(edges);
  return static_cast<int>(
      std::count_if(deg.begin(), deg.end(), [](int d) { return d % 2 != 0; }));
}

int min_trail_count(const std::vector<PlaneEdge>& edges) {
  if (edges.empty()) return 0;
  return std::max(1, count_odd_vertices(edges) / 2);
}

namespace {

/// Depth-first search realizing a trail decomposition with at most
/// `max_breaks` breaks; first solution (deterministic edge order) wins.
struct SinglePlaneSearch {
  const std::vector<PlaneEdge>& edges;
  std::vector<int> deg;
  std::vector<bool> used;
  std::vector<Trail> trails;
  int breaks_left = 0;

  explicit SinglePlaneSearch(const std::vector<PlaneEdge>& e)
      : edges(e), deg(degrees(e)), used(e.size(), false) {}

  bool extend(NetId at, std::size_t remaining) {
    if (remaining == 0) return true;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (used[i]) continue;
      const auto& e = edges[i];
      for (const bool forward : {true, false}) {
        const NetId from = forward ? e.u : e.v;
        const NetId to = forward ? e.v : e.u;
        if (from != at) continue;
        used[i] = true;
        trails.back().steps.push_back({static_cast<int>(i), forward});
        if (extend(to, remaining - 1)) return true;
        trails.back().steps.pop_back();
        used[i] = false;
      }
    }
    // Dead end: open a new trail if the budget allows. Both the stuck end
    // and the new start must be able to carry a metal contact.
    if (breaks_left > 0 && contact_worthy(at, deg.at(at))) {
      --breaks_left;
      for (std::size_t i = 0; i < edges.size(); ++i) {
        if (used[i]) continue;
        const auto& e = edges[i];
        for (const bool forward : {true, false}) {
          const NetId from = forward ? e.u : e.v;
          const NetId to = forward ? e.v : e.u;
          if (!contact_worthy(from, deg.at(from))) continue;
          used[i] = true;
          trails.push_back(Trail{from, {{static_cast<int>(i), forward}}});
          if (extend(to, remaining - 1)) return true;
          trails.pop_back();
          used[i] = false;
        }
      }
      ++breaks_left;
    }
    return false;
  }
};

}  // namespace

PlaneOrder euler_decompose(const std::vector<PlaneEdge>& edges) {
  PlaneOrder order;
  if (edges.empty()) return order;
  const int min_trails = min_trail_count(edges);
  // Iterative deepening on trail count (breaks = trails - 1). An Euler
  // decomposition with min trails always exists for connected graphs; the
  // loop also covers (pathological) disconnected planes.
  for (int trails = min_trails; trails <= static_cast<int>(edges.size());
       ++trails) {
    // Try every start vertex deterministically, preferring rails so strips
    // begin at VDD/GND like the paper's figures.
    std::vector<NetId> starts;
    const auto deg = degrees(edges);
    for (std::size_t v = 0; v < deg.size(); ++v) {
      // Odd vertices must be ends.
      if (deg[v] % 2 != 0) starts.push_back(static_cast<NetId>(v));
    }
    if (starts.empty()) {
      // Eulerian circuit: prefer rotations starting on a contact-worthy
      // vertex so the strip can terminate there.
      for (std::size_t v = 0; v < deg.size(); ++v) {
        const auto net = static_cast<NetId>(v);
        if (deg[v] > 0 && contact_worthy(net, deg[v])) starts.push_back(net);
      }
      if (starts.empty()) {
        for (std::size_t v = 0; v < deg.size(); ++v) {
          if (deg[v] > 0) starts.push_back(static_cast<NetId>(v));
        }
      }
    }
    std::sort(starts.begin(), starts.end(),
              [](NetId a, NetId b) { return a > b; });  // VDD=1 over GND=0...
    std::stable_sort(starts.begin(), starts.end(), [](NetId a, NetId b) {
      const bool ra = a == netlist::CellNetlist::kVdd;
      const bool rb = b == netlist::CellNetlist::kVdd;
      return ra > rb;
    });
    for (const NetId start : starts) {
      SinglePlaneSearch search(edges);
      search.breaks_left = trails - 1;
      search.trails.push_back(Trail{start, {}});
      if (search.extend(start, edges.size())) {
        order.trails = std::move(search.trails);
        return order;
      }
    }
  }
  throw util::Error("euler_decompose: no decomposition found");
}

namespace {

/// One plane's side of the joint search, with its degrees in flat tables
/// indexed by NetId.
struct SearchPlane {
  const std::vector<PlaneEdge>& edges;
  std::vector<int> deg;
  std::vector<char> worthy;  ///< contact_worthy per NetId
  std::vector<char> used;
  std::vector<Trail> trails;

  explicit SearchPlane(const std::vector<PlaneEdge>& e)
      : edges(e), deg(degrees(e)), used(e.size(), 0) {
    worthy.resize(deg.size());
    for (std::size_t v = 0; v < deg.size(); ++v) {
      worthy[v] = contact_worthy(static_cast<NetId>(v), deg[v]);
    }
  }

  /// Strips start on contacts: the contact-worthy nets, only the odd ones
  /// when there are any, `preferred` first and otherwise in NetId order.
  [[nodiscard]] std::vector<NetId> starts(NetId preferred) const {
    std::vector<NetId> odd, all;
    for (std::size_t v = 0; v < deg.size(); ++v) {
      if (deg[v] == 0 || !worthy[v]) continue;
      all.push_back(static_cast<NetId>(v));
      if (deg[v] % 2 != 0) odd.push_back(static_cast<NetId>(v));
    }
    std::vector<NetId>& pool = odd.empty() ? all : odd;
    std::stable_partition(pool.begin(), pool.end(),
                          [&](NetId v) { return v == preferred; });
    return pool;
  }

  void reset(NetId start) {
    std::fill(used.begin(), used.end(), 0);
    trails.resize(1);
    trails[0] = Trail{start, {}};
  }

  [[nodiscard]] NetId current() const {
    const Trail& t = trails.back();
    if (t.steps.empty()) return t.start;
    const auto& s = t.steps.back();
    const auto& e = edges[static_cast<std::size_t>(s.edge)];
    return s.forward ? e.v : e.u;
  }
};

/// Joint two-plane search state: both planes consume edges with identical
/// gate labels in lock step.
struct JointSearch {
  SearchPlane pun, pdn;
  int breaks_left = 0;

  /// Candidate next uses of an unused edge in one plane: continuing the open
  /// trail costs nothing; opening a new trail costs one break.
  struct Move {
    int edge = 0;
    bool forward = true;
    bool breaks = false;
  };
  /// One move buffer per search depth and plane.
  std::vector<std::vector<Move>> moves_pun, moves_pdn;

  JointSearch(const std::vector<PlaneEdge>& up, const std::vector<PlaneEdge>& dn)
      : pun(up), pdn(dn), moves_pun(up.size()), moves_pdn(up.size()) {}

  /// Runs the search from one pair of strip starts within `budget` breaks.
  bool run(NetId start_pun, NetId start_pdn, int budget) {
    pun.reset(start_pun);
    pdn.reset(start_pdn);
    breaks_left = budget;
    return step(0);
  }

  /// Non-breaking moves first so cheap solutions are found early; each
  /// group keeps edge order.
  static void candidate_moves(const SearchPlane& plane, NetId at,
                              bool allow_break, int want_gate,
                              std::vector<Move>& out) {
    out.clear();
    const auto& edges = plane.edges;
    const auto wanted = [&](std::size_t i) {
      return !plane.used[i] &&
             (want_gate < 0 || edges[i].gate_input == want_gate);
    };
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!wanted(i)) continue;
      for (const bool forward : {true, false}) {
        if ((forward ? edges[i].u : edges[i].v) == at) {
          out.push_back({static_cast<int>(i), forward, false});
        }
      }
    }
    // A break leaves a contact at the stuck end and opens a new strip
    // segment at `from`: both must be contact-worthy nets.
    if (!allow_break || !plane.worthy[static_cast<std::size_t>(at)]) return;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (!wanted(i)) continue;
      for (const bool forward : {true, false}) {
        const NetId from = forward ? edges[i].u : edges[i].v;
        if (from != at && plane.worthy[static_cast<std::size_t>(from)]) {
          out.push_back({static_cast<int>(i), forward, true});
        }
      }
    }
  }

  bool step(std::size_t placed) {
    if (placed == pun.edges.size()) return true;
    const NetId at_pun = pun.current();
    const NetId at_pdn = pdn.current();
    std::vector<Move>& up_moves = moves_pun[placed];
    std::vector<Move>& dn_moves = moves_pdn[placed];
    candidate_moves(pun, at_pun, breaks_left > 0, -1, up_moves);
    for (const Move& mu : up_moves) {
      const int gate =
          pun.edges[static_cast<std::size_t>(mu.edge)].gate_input;
      const int budget_after_pun = breaks_left - (mu.breaks ? 1 : 0);
      if (budget_after_pun < 0) continue;
      candidate_moves(pdn, at_pdn, budget_after_pun > 0, gate, dn_moves);
      for (const Move& md : dn_moves) {
        const int cost = (mu.breaks ? 1 : 0) + (md.breaks ? 1 : 0);
        if (cost > breaks_left) continue;
        apply(pun, mu);
        apply(pdn, md);
        breaks_left -= cost;
        if (step(placed + 1)) return true;
        breaks_left += cost;
        undo(pun, mu);
        undo(pdn, md);
      }
    }
    return false;
  }

  static void apply(SearchPlane& plane, const Move& m) {
    const auto& e = plane.edges[static_cast<std::size_t>(m.edge)];
    const NetId from = m.forward ? e.u : e.v;
    if (m.breaks) plane.trails.push_back(Trail{from, {}});
    if (plane.trails.back().steps.empty()) plane.trails.back().start = from;
    plane.trails.back().steps.push_back({m.edge, m.forward});
    plane.used[static_cast<std::size_t>(m.edge)] = 1;
  }

  static void undo(SearchPlane& plane, const Move& m) {
    plane.used[static_cast<std::size_t>(m.edge)] = 0;
    plane.trails.back().steps.pop_back();
    if (m.breaks) plane.trails.pop_back();
  }
};

}  // namespace

std::optional<CommonOrdering> find_common_ordering(
    const std::vector<PlaneEdge>& pun, const std::vector<PlaneEdge>& pdn) {
  CNFET_REQUIRE(!pun.empty() && !pdn.empty());
  // Same gate-label multiset is required for a common ordering.
  {
    const auto labels = [](const std::vector<PlaneEdge>& edges) {
      std::vector<int> gates;
      for (const auto& e : edges) gates.push_back(e.gate_input);
      std::sort(gates.begin(), gates.end());
      return gates;
    };
    if (labels(pun) != labels(pdn)) return std::nullopt;
  }

  JointSearch search(pun, pdn);
  const int floor_breaks =
      (min_trail_count(pun) - 1) + (min_trail_count(pdn) - 1);
  const int max_breaks = static_cast<int>(pun.size() + pdn.size());
  const auto starts_pun = search.pun.starts(netlist::CellNetlist::kVdd);
  const auto starts_pdn = search.pdn.starts(netlist::CellNetlist::kOut);
  for (int budget = floor_breaks; budget <= max_breaks; ++budget) {
    for (const NetId start_pun : starts_pun) {
      for (const NetId start_pdn : starts_pdn) {
        if (search.run(start_pun, start_pdn, budget)) {
          CommonOrdering result;
          result.pun.trails = std::move(search.pun.trails);
          result.pdn.trails = std::move(search.pdn.trails);
          result.gate_sequence = result.pun.gate_sequence(pun);
          CNFET_REQUIRE(result.gate_sequence ==
                        result.pdn.gate_sequence(pdn));
          return result;
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace cnfet::euler
