#include "route/router.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "util/error.hpp"

namespace cnfet::route {

namespace {

using flow::Gate;

/// The two-layer node grid. Node (x, y, layer) sits at a track crossing;
/// layer 0 (metal2) carries horizontal moves, layer 1 (metal3) vertical.
struct Grid {
  geom::Coord pitch = 0;
  geom::Vec2 lo;  ///< center of node (0, 0)
  int nx = 0;
  int ny = 0;

  [[nodiscard]] int nodes() const { return nx * ny * 2; }
  [[nodiscard]] int idx(int x, int y, int layer) const {
    return (layer * ny + y) * nx + x;
  }
  [[nodiscard]] int x_of(int node) const { return node % nx; }
  [[nodiscard]] int y_of(int node) const { return (node / nx) % ny; }
  [[nodiscard]] int layer_of(int node) const { return node / (nx * ny); }
  [[nodiscard]] geom::Vec2 center(int x, int y) const {
    return {lo.x + pitch * x, lo.y + pitch * y};
  }
  [[nodiscard]] int snap(geom::Coord c, geom::Coord lo_c, int n) const {
    const auto g =
        static_cast<int>((c - lo_c + pitch / 2) / pitch);
    return std::clamp(g, 0, n - 1);
  }
  [[nodiscard]] std::pair<int, int> snap(geom::Vec2 p) const {
    return {snap(p.x, lo.x, nx), snap(p.y, lo.y, ny)};
  }
};

/// Search window in grid coordinates (inclusive).
struct Window {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  [[nodiscard]] bool contains(int x, int y) const {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }
};

/// Pin-name lookup cache: cell -> input-pin centers (cell-local coords),
/// indexed by the gate's input pin number. Cells name their pins 'A' + the
/// cell input index, one pin per distinct input; a series gate reuses its
/// input's single pin.
class PinCache {
 public:
  [[nodiscard]] geom::Vec2 pin_center(const liberty::LibCell* cell, int pin) {
    auto [it, inserted] = cache_.try_emplace(cell);
    if (inserted) {
      const auto& layout = cell->built.layout;
      for (const auto& p : layout.pins()) {
        const int index = p.name.empty() ? 0 : p.name[0] - 'A';
        if (index >= static_cast<int>(it->second.size())) {
          it->second.resize(static_cast<std::size_t>(index) + 1,
                            layout.bbox().center());
        }
        it->second[static_cast<std::size_t>(index)] = p.rect.center();
      }
      if (it->second.empty()) {
        it->second.push_back(layout.bbox().center());
      }
    }
    const auto& centers = it->second;
    const auto i = static_cast<std::size_t>(pin);
    return i < centers.size() ? centers[i] : centers.back();
  }

 private:
  std::map<const liberty::LibCell*, std::vector<geom::Vec2>> cache_;
};

/// Terminal points of one net, driver first (when the net has one), then
/// one entry per netlist.fanout(net) pair in canonical order.
std::vector<geom::Vec2> terminal_points(const flow::GateNetlist& netlist,
                                        int net,
                                        const std::vector<int>& instance_of,
                                        const flow::PlacementResult& placement,
                                        PinCache& pins) {
  std::vector<geom::Vec2> points;
  const int driver = netlist.driver_index(net);
  if (driver >= 0) {
    const auto& inst = placement.instances[static_cast<std::size_t>(
        instance_of[static_cast<std::size_t>(driver)])];
    // The output terminal: the middle of the instance footprint (the
    // abstraction stands in for the cell's output rail).
    points.push_back(
        {inst.origin.x + inst.width / 2, inst.origin.y + inst.height / 2});
  }
  for (const auto& [gate, pin] : netlist.fanout(net)) {
    const auto& inst = placement.instances[static_cast<std::size_t>(
        instance_of[static_cast<std::size_t>(gate)])];
    const Gate& g = netlist.gates()[static_cast<std::size_t>(gate)];
    points.push_back(inst.origin + pins.pin_center(g.cell, pin));
  }
  return points;
}

// came_from move codes (how the BFS reached a node).
enum : std::uint8_t { kFromNegX, kFromPosX, kFromNegY, kFromPosY, kFromVia };

}  // namespace

RoutingResult route(const flow::GateNetlist& netlist,
                    const flow::PlacementResult& placement,
                    const layout::DesignRules& rules,
                    const RouteOptions& options) {
  CNFET_REQUIRE(!placement.instances.empty());

  // Instance lookup by gate index.
  const Gate* base = netlist.gates().data();
  std::vector<int> instance_of(netlist.gates().size(), -1);
  for (std::size_t i = 0; i < placement.instances.size(); ++i) {
    const auto gi = placement.instances[i].gate - base;
    CNFET_REQUIRE_MSG(
        gi >= 0 && gi < static_cast<std::ptrdiff_t>(netlist.gates().size()),
        "placement references a foreign netlist");
    instance_of[static_cast<std::size_t>(gi)] = static_cast<int>(i);
  }
  for (const int inst : instance_of) {
    CNFET_REQUIRE_MSG(inst >= 0, "placement does not cover every gate");
  }

  Grid grid;
  grid.pitch = rules.db(rules.route_pitch);
  PinCache pins;

  // Terminal points first: the grid is sized from routing demand, not just
  // the placement extent. A vertical cut of the fabric is crossed by every
  // net whose terminal bbox spans it, and each crossing consumes one
  // horizontal track (one grid row) at that cut — so the channel must hold
  // at least the worst cut's crossing count, padded for detours. The
  // area-greedy placer happily emits single-row placements whose cell
  // height alone (a handful of tracks) could never carry the nets; the
  // extra tracks live in the free space above and below the cells.
  std::vector<std::vector<geom::Vec2>> net_points(
      static_cast<std::size_t>(netlist.num_nets()));
  std::vector<std::pair<geom::Coord, geom::Coord>> x_spans, y_spans;
  for (int net = 0; net < netlist.num_nets(); ++net) {
    auto points = terminal_points(netlist, net, instance_of, placement, pins);
    if (points.size() >= 2) {
      geom::Coord x0 = points[0].x, x1 = points[0].x;
      geom::Coord y0 = points[0].y, y1 = points[0].y;
      for (const auto& p : points) {
        x0 = std::min(x0, p.x);
        x1 = std::max(x1, p.x);
        y0 = std::min(y0, p.y);
        y1 = std::max(y1, p.y);
      }
      x_spans.emplace_back(x0, x1);
      y_spans.emplace_back(y0, y1);
    }
    net_points[static_cast<std::size_t>(net)] = std::move(points);
  }
  // Max nets crossing any cut, by +1/-1 sweep over span endpoints.
  const auto max_crossing = [](std::vector<std::pair<geom::Coord,
                                                     geom::Coord>>& spans) {
    std::vector<std::pair<geom::Coord, int>> events;
    events.reserve(spans.size() * 2);
    for (const auto& [lo, hi] : spans) {
      events.emplace_back(lo, +1);
      events.emplace_back(hi, -1);
    }
    std::sort(events.begin(), events.end());
    int depth = 0, worst = 0;
    for (const auto& [at, delta] : events) {
      depth += delta;
      worst = std::max(worst, depth);
    }
    return worst;
  };
  // 2x congestion slack: greedy one-net-at-a-time BFS fragments the
  // channel (there is no rip-up), so the fabric needs real headroom over
  // the crossing lower bound.
  const int need_ny = max_crossing(x_spans) * 2 + 16;
  const int need_nx = max_crossing(y_spans) * 2 + 16;

  const geom::Coord margin = grid.pitch * 4;
  grid.nx = static_cast<int>((placement.bbox.width() + 2 * margin) /
                             grid.pitch) + 1;
  grid.ny = static_cast<int>((placement.bbox.height() + 2 * margin) /
                             grid.pitch) + 1;
  const int extra_x = std::max(0, need_nx - grid.nx);
  const int extra_y = std::max(0, need_ny - grid.ny);
  grid.nx += extra_x;
  grid.ny += extra_y;
  // Extra capacity splits evenly around the placement so detours stay
  // short on both sides.
  grid.lo = {placement.bbox.lo().x - margin - grid.pitch * (extra_x / 2),
             placement.bbox.lo().y - margin - grid.pitch * (extra_y / 2)};

  RoutingResult result;
  result.pitch = grid.pitch;
  result.grid_bbox =
      geom::Rect(grid.lo, {grid.lo.x + grid.pitch * (grid.nx - 1),
                           grid.lo.y + grid.pitch * (grid.ny - 1)});

  // occ: net id + 1 claiming a node (0 = free). Terminal nodes are
  // reserved for every net up front — in ascending net order, probing
  // outward ring by ring when a snap collides with a foreign net — so via
  // landings can never short two nets.
  std::vector<std::int32_t> occ(static_cast<std::size_t>(grid.nodes()), 0);
  // Reserved terminal/hatch nodes: never freed by rip-up, and never
  // crossed when hunting for blockers.
  std::vector<std::uint8_t> hard(static_cast<std::size_t>(grid.nodes()), 0);

  struct NetPlan {
    int net = -1;
    std::vector<int> nodes;          ///< layer-0 node per terminal
    std::vector<geom::Vec2> points;  ///< snapped node centers per terminal

    [[nodiscard]] geom::Coord half_perimeter() const {
      geom::Coord x0 = points[0].x, x1 = points[0].x;
      geom::Coord y0 = points[0].y, y1 = points[0].y;
      for (const auto& p : points) {
        x0 = std::min(x0, p.x);
        x1 = std::max(x1, p.x);
        y0 = std::min(y0, p.y);
        y1 = std::max(y1, p.y);
      }
      return (x1 - x0) + (y1 - y0);
    }
  };
  std::vector<NetPlan> plans;
  for (int net = 0; net < netlist.num_nets(); ++net) {
    auto& points = net_points[static_cast<std::size_t>(net)];
    if (points.empty()) continue;
    NetPlan plan;
    plan.net = net;
    for (const auto& p : points) {
      auto [gx, gy] = grid.snap(p);
      int node = grid.idx(gx, gy, 0);
      if (occ[static_cast<std::size_t>(node)] != 0 &&
          occ[static_cast<std::size_t>(node)] != net + 1) {
        // Deterministic outward square-ring probe for a free node.
        bool found = false;
        for (int r = 1; r < std::max(grid.nx, grid.ny) && !found; ++r) {
          for (int dy = -r; dy <= r && !found; ++dy) {
            for (int dx = -r; dx <= r && !found; ++dx) {
              if (std::max(std::abs(dx), std::abs(dy)) != r) continue;
              const int cx = gx + dx, cy = gy + dy;
              if (cx < 0 || cx >= grid.nx || cy < 0 || cy >= grid.ny) continue;
              const int cand = grid.idx(cx, cy, 0);
              const auto o = occ[static_cast<std::size_t>(cand)];
              if (o == 0 || o == net + 1) {
                node = cand;
                gx = cx;
                gy = cy;
                found = true;
              }
            }
          }
        }
        CNFET_REQUIRE_MSG(found, "routing grid exhausted reserving terminals");
      }
      occ[static_cast<std::size_t>(node)] = net + 1;
      // Also reserve the layer-1 node above the terminal — its via escape
      // hatch. Pin rows pack terminals of different nets onto adjacent
      // nodes, so a terminal whose row neighbors are foreign can only be
      // reached from above; a foreign vertical wire parking there would
      // strand the terminal no matter how much fabric the grid has.
      // Reservation runs before any routing and terminal nodes are
      // distinct across nets, so the hatch is always still free here.
      occ[static_cast<std::size_t>(grid.idx(gx, gy, 1))] = net + 1;
      hard[static_cast<std::size_t>(node)] = 1;
      hard[static_cast<std::size_t>(grid.idx(gx, gy, 1))] = 1;
      plan.nodes.push_back(node);
      plan.points.push_back(grid.center(gx, gy));
    }
    plans.push_back(std::move(plan));
  }

  // Short nets first: a compact net blocked by a long net's wall has no
  // way around, while a long net can detour past a routed short one. The
  // (span, net id) key keeps the order fully deterministic, and results
  // are still emitted in ascending net order below.
  std::stable_sort(plans.begin(), plans.end(),
                   [](const NetPlan& a, const NetPlan& b) {
                     return a.half_perimeter() < b.half_perimeter();
                   });

  // BFS state, reused across nets. Epoch stamping avoids clearing the
  // per-node arrays between searches.
  std::vector<std::uint32_t> visited(static_cast<std::size_t>(grid.nodes()),
                                     0);
  std::vector<std::uint32_t> tree_stamp(static_cast<std::size_t>(grid.nodes()),
                                        0);
  std::vector<std::uint8_t> came(static_cast<std::size_t>(grid.nodes()), 0);
  std::vector<int> queue;
  std::vector<int> tree_nodes;
  std::uint32_t epoch = 0;
  std::uint32_t stamp = 0;

  // Rip-up bookkeeping. Greedy nets can wall a later net into a pocket no
  // amount of fabric fixes; when that happens the stuck net finds the
  // walls' owners (a relaxed search that crosses foreign path claims, but
  // never reserved terminals), rips them, routes itself, and the ripped
  // nets re-route afterwards. Budgets keep the loop finite — a net that
  // exhausts them routes best-effort and reports its misses as failures.
  constexpr int kMaxAttempts = 6;  ///< rip-assisted retries per stuck net
  constexpr int kMaxRips = 4;      ///< times any one net may be ripped
  const auto num_nets = static_cast<std::size_t>(netlist.num_nets());
  std::vector<std::vector<int>> claims(num_nets);  ///< non-hard path nodes
  std::vector<int> plan_of(num_nets, -1);
  std::vector<int> rip_count(num_nets, 0);
  std::vector<int> attempts(num_nets, 0);
  std::vector<RoutedNet> routed_of(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    plan_of[static_cast<std::size_t>(plans[i].net)] = static_cast<int>(i);
    routed_of[i].net = plans[i].net;
    routed_of[i].terminals = plans[i].points;
  }

  const auto rip_net = [&](int net) {
    for (const int n : claims[static_cast<std::size_t>(net)]) {
      occ[static_cast<std::size_t>(n)] = 0;
    }
    claims[static_cast<std::size_t>(net)].clear();
    auto& routed = routed_of[static_cast<std::size_t>(
        plan_of[static_cast<std::size_t>(net)])];
    routed.wires.clear();
    routed.vias.clear();
    routed.length_lambda = 0.0;
  };

  // Routes one net from scratch (ripping any previous claims first).
  // Returns -1 on success, or the first unreachable target node; in
  // `best_effort` mode it instead skips unreachable targets, counts them
  // as failures, and keeps whatever did connect.
  const auto route_one = [&](int plan_index, bool best_effort) {
    auto& plan = plans[static_cast<std::size_t>(plan_index)];
    const int net = plan.net;
    rip_net(net);
    auto& routed = routed_of[static_cast<std::size_t>(plan_index)];

    // Distinct terminal nodes, first occurrence order.
    std::vector<int> targets;
    for (const int node : plan.nodes) {
      if (std::find(targets.begin(), targets.end(), node) == targets.end()) {
        targets.push_back(node);
      }
    }
    if (targets.size() < 2) return -1;

    const std::uint32_t net_stamp = ++stamp;
    tree_nodes.clear();
    tree_nodes.push_back(targets.front());
    tree_stamp[static_cast<std::size_t>(targets.front())] = net_stamp;

    // Window escalation ladder around the terminal bbox.
    int tx0 = grid.nx, ty0 = grid.ny, tx1 = 0, ty1 = 0;
    for (const int t : targets) {
      tx0 = std::min(tx0, grid.x_of(t));
      tx1 = std::max(tx1, grid.x_of(t));
      ty0 = std::min(ty0, grid.y_of(t));
      ty1 = std::max(ty1, grid.y_of(t));
    }
    const auto window_at = [&](int halo) {
      return Window{std::max(0, tx0 - halo), std::max(0, ty0 - halo),
                    std::min(grid.nx - 1, tx1 + halo),
                    std::min(grid.ny - 1, ty1 + halo)};
    };
    std::vector<std::pair<int, int>> h_edges;  ///< (y, min x) unit edges
    std::vector<std::pair<int, int>> v_edges;  ///< (x, min y) unit edges
    std::vector<std::pair<int, int>> via_nodes;

    for (std::size_t t = 1; t < targets.size(); ++t) {
      const int target = targets[t];
      if (tree_stamp[static_cast<std::size_t>(target)] == net_stamp) {
        continue;  // an earlier path already ran through it
      }
      bool reached = false;
      const int halos[] = {options.window_halo_cells,
                           options.window_halo_cells * 4,
                           std::max(grid.nx, grid.ny)};
      for (const int halo : halos) {
        const Window w = window_at(halo);
        ++epoch;
        queue.clear();
        for (const int s : tree_nodes) {
          if (!w.contains(grid.x_of(s), grid.y_of(s))) continue;
          if (visited[static_cast<std::size_t>(s)] == epoch) continue;
          visited[static_cast<std::size_t>(s)] = epoch;
          queue.push_back(s);
        }
        const auto try_step = [&](int from, int dx, int dy, int to_layer,
                                  std::uint8_t code) {
          const int x = grid.x_of(from) + dx;
          const int y = grid.y_of(from) + dy;
          if (!w.contains(x, y)) return;
          const int n = grid.idx(x, y, to_layer);
          if (visited[static_cast<std::size_t>(n)] == epoch) return;
          const auto o = occ[static_cast<std::size_t>(n)];
          if (o != 0 && o != net + 1) return;
          visited[static_cast<std::size_t>(n)] = epoch;
          came[static_cast<std::size_t>(n)] = code;
          queue.push_back(n);
        };
        for (std::size_t head = 0; head < queue.size() && !reached; ++head) {
          const int n = queue[head];
          if (n == target) {
            reached = true;
            break;
          }
          if (grid.layer_of(n) == 0) {
            try_step(n, 1, 0, 0, kFromNegX);
            try_step(n, -1, 0, 0, kFromPosX);
            try_step(n, 0, 0, 1, kFromVia);
          } else {
            try_step(n, 0, 1, 1, kFromNegY);
            try_step(n, 0, -1, 1, kFromPosY);
            try_step(n, 0, 0, 0, kFromVia);
          }
        }
        if (reached) break;
      }
      if (!reached) {
        if (!best_effort) return target;
        ++result.failed_nets;
        continue;
      }
      // Walk the parent chain back into the tree, claiming nodes and
      // recording unit edges.
      int n = target;
      while (tree_stamp[static_cast<std::size_t>(n)] != net_stamp) {
        const int x = grid.x_of(n), y = grid.y_of(n);
        const int layer = grid.layer_of(n);
        int prev = n;
        switch (came[static_cast<std::size_t>(n)]) {
          case kFromNegX:
            prev = grid.idx(x - 1, y, layer);
            h_edges.emplace_back(y, x - 1);
            break;
          case kFromPosX:
            prev = grid.idx(x + 1, y, layer);
            h_edges.emplace_back(y, x);
            break;
          case kFromNegY:
            prev = grid.idx(x, y - 1, layer);
            v_edges.emplace_back(x, y - 1);
            break;
          case kFromPosY:
            prev = grid.idx(x, y + 1, layer);
            v_edges.emplace_back(x, y);
            break;
          case kFromVia:
            prev = grid.idx(x, y, 1 - layer);
            via_nodes.emplace_back(x, y);
            break;
        }
        tree_stamp[static_cast<std::size_t>(n)] = net_stamp;
        occ[static_cast<std::size_t>(n)] = net + 1;
        if (!hard[static_cast<std::size_t>(n)]) {
          claims[static_cast<std::size_t>(net)].push_back(n);
        }
        tree_nodes.push_back(n);
        n = prev;
      }
    }

    // Merge unit edges into maximal straight wires.
    const geom::Coord width = rules.db(rules.wire_width);
    std::sort(h_edges.begin(), h_edges.end());
    for (std::size_t i = 0; i < h_edges.size();) {
      const int y = h_edges[i].first;
      const int x0 = h_edges[i].second;
      std::size_t j = i + 1;
      while (j < h_edges.size() && h_edges[j].first == y &&
             h_edges[j].second == h_edges[j - 1].second + 1) {
        ++j;
      }
      const int x1 = h_edges[j - 1].second + 1;
      routed.wires.push_back(
          Wire{0, grid.center(x0, y), grid.center(x1, y), width});
      i = j;
    }
    std::sort(v_edges.begin(), v_edges.end());
    for (std::size_t i = 0; i < v_edges.size();) {
      const int x = v_edges[i].first;
      const int y0 = v_edges[i].second;
      std::size_t j = i + 1;
      while (j < v_edges.size() && v_edges[j].first == x &&
             v_edges[j].second == v_edges[j - 1].second + 1) {
        ++j;
      }
      const int y1 = v_edges[j - 1].second + 1;
      routed.wires.push_back(
          Wire{1, grid.center(x, y0), grid.center(x, y1), width});
      i = j;
    }
    std::sort(via_nodes.begin(), via_nodes.end());
    via_nodes.erase(std::unique(via_nodes.begin(), via_nodes.end()),
                    via_nodes.end());
    const geom::Coord via_size = rules.db(rules.via_size);
    for (const auto& [x, y] : via_nodes) {
      routed.vias.push_back(Via{grid.center(x, y), via_size});
    }
    routed.length_lambda =
        static_cast<double>(h_edges.size() + v_edges.size()) *
        rules.route_pitch;
    return -1;
  };

  // Finds the distinct foreign nets whose path claims wall `target` off
  // from `source` — the relaxed search crosses soft (rippable) claims but
  // never reserved terminals. Empty means even ripping cannot connect.
  const auto find_blockers = [&](int net, int source, int target) {
    std::vector<int> blockers;
    ++epoch;
    queue.clear();
    queue.push_back(source);
    visited[static_cast<std::size_t>(source)] = epoch;
    const auto try_step = [&](int from, int dx, int dy, int to_layer,
                              std::uint8_t code) {
      const int x = grid.x_of(from) + dx;
      const int y = grid.y_of(from) + dy;
      if (x < 0 || x >= grid.nx || y < 0 || y >= grid.ny) return;
      const int n = grid.idx(x, y, to_layer);
      if (visited[static_cast<std::size_t>(n)] == epoch) return;
      const auto o = occ[static_cast<std::size_t>(n)];
      if (o != 0 && o != net + 1 && hard[static_cast<std::size_t>(n)]) return;
      visited[static_cast<std::size_t>(n)] = epoch;
      came[static_cast<std::size_t>(n)] = code;
      queue.push_back(n);
    };
    bool reached = false;
    for (std::size_t head = 0; head < queue.size() && !reached; ++head) {
      const int n = queue[head];
      if (n == target) {
        reached = true;
        break;
      }
      if (grid.layer_of(n) == 0) {
        try_step(n, 1, 0, 0, kFromNegX);
        try_step(n, -1, 0, 0, kFromPosX);
        try_step(n, 0, 0, 1, kFromVia);
      } else {
        try_step(n, 0, 1, 1, kFromNegY);
        try_step(n, 0, -1, 1, kFromPosY);
        try_step(n, 0, 0, 0, kFromVia);
      }
    }
    if (!reached) return blockers;
    for (int n = target; n != source;) {
      const auto o = occ[static_cast<std::size_t>(n)];
      if (o != 0 && o != net + 1) {
        const int owner = static_cast<int>(o) - 1;
        if (std::find(blockers.begin(), blockers.end(), owner) ==
            blockers.end()) {
          blockers.push_back(owner);
        }
      }
      const int x = grid.x_of(n), y = grid.y_of(n);
      const int layer = grid.layer_of(n);
      switch (came[static_cast<std::size_t>(n)]) {
        case kFromNegX: n = grid.idx(x - 1, y, layer); break;
        case kFromPosX: n = grid.idx(x + 1, y, layer); break;
        case kFromNegY: n = grid.idx(x, y - 1, layer); break;
        case kFromPosY: n = grid.idx(x, y + 1, layer); break;
        case kFromVia:  n = grid.idx(x, y, 1 - layer); break;
      }
    }
    return blockers;
  };

  // The work loop: every planned net once, plus re-queued rip victims.
  std::vector<int> work(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    work[i] = static_cast<int>(i);
  }
  for (std::size_t head = 0; head < work.size(); ++head) {
    const int plan_index = work[head];
    const int net = plans[static_cast<std::size_t>(plan_index)].net;
    int failed = route_one(plan_index, false);
    while (failed >= 0 &&
           attempts[static_cast<std::size_t>(net)]++ < kMaxAttempts) {
      const int source =
          plans[static_cast<std::size_t>(plan_index)].nodes.front();
      const auto blockers = find_blockers(net, source, failed);
      bool all_rippable = !blockers.empty();
      for (const int b : blockers) {
        all_rippable &= rip_count[static_cast<std::size_t>(b)] < kMaxRips;
      }
      if (!all_rippable) break;
      for (const int b : blockers) {
        rip_net(b);
        ++rip_count[static_cast<std::size_t>(b)];
        work.push_back(plan_of[static_cast<std::size_t>(b)]);
      }
      failed = route_one(plan_index, false);
    }
    if (failed >= 0) {
      (void)route_one(plan_index, true);  // keep what does connect
    }
  }

  for (auto& routed : routed_of) {
    result.total_wirelength_lambda += routed.length_lambda;
    result.nets.push_back(std::move(routed));
  }
  std::sort(result.nets.begin(), result.nets.end(),
            [](const RoutedNet& a, const RoutedNet& b) {
              return a.net < b.net;
            });
  return result;
}

// --- independent open/short oracle -----------------------------------------

namespace {

/// Union-find over one net's shapes (plus one slot per terminal).
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int a) {
    while (parent_[static_cast<std::size_t>(a)] != a) {
      a = parent_[static_cast<std::size_t>(a)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(a)])];
    }
    return a;
  }
  void unite(int a, int b) {
    parent_[static_cast<std::size_t>(find(a))] = find(b);
  }

 private:
  std::vector<int> parent_;
};

struct IndexedShape {
  int net = 0;
  int layer = 0;  ///< 0/1 for wires; a via is indexed on both layers
  geom::Rect rect;
  int local = 0;  ///< shape index within its net
};

}  // namespace

VerifyReport verify(const flow::GateNetlist& netlist,
                    const flow::PlacementResult& placement,
                    const RoutingResult& routing,
                    const layout::DesignRules& rules) {
  VerifyReport report;
  const geom::Coord pitch = rules.db(rules.route_pitch);

  // Re-derive the true pin/driver points to audit the stored terminals.
  const Gate* base = netlist.gates().data();
  std::vector<int> instance_of(netlist.gates().size(), -1);
  for (std::size_t i = 0; i < placement.instances.size(); ++i) {
    const auto gi = placement.instances[i].gate - base;
    if (gi >= 0 && gi < static_cast<std::ptrdiff_t>(netlist.gates().size())) {
      instance_of[static_cast<std::size_t>(gi)] = static_cast<int>(i);
    }
  }
  PinCache pins;

  std::vector<IndexedShape> all;
  for (const auto& rn : routing.nets) {
    ++report.nets_checked;
    // Stored terminals must sit within a pitch of the true pin points
    // (the snap distance bound; ring probing can push them further only
    // when a foreign net owns the nearest node, still within a few cells).
    const auto points =
        terminal_points(netlist, rn.net, instance_of, placement, pins);
    if (points.size() != rn.terminals.size()) {
      ++report.stray_terminals;
    } else {
      for (std::size_t i = 0; i < points.size(); ++i) {
        const auto d = rn.terminals[i] - points[i];
        if (std::abs(d.x) > 4 * pitch || std::abs(d.y) > 4 * pitch) {
          ++report.stray_terminals;
        }
      }
    }

    // Connectivity by union-find over the drawn shapes.
    const std::size_t num_shapes = rn.wires.size() + rn.vias.size();
    DisjointSet dsu(num_shapes + rn.terminals.size());
    const auto layer_of = [&](std::size_t s) {
      return s < rn.wires.size() ? rn.wires[s].layer : -1;  // -1: via (both)
    };
    const auto rect_of = [&](std::size_t s) {
      return s < rn.wires.size() ? rn.wires[s].rect()
                                 : rn.vias[s - rn.wires.size()].rect();
    };
    for (std::size_t s = 0; s < num_shapes; ++s) {
      for (std::size_t t = s + 1; t < num_shapes; ++t) {
        const int ls = layer_of(s), lt = layer_of(t);
        if (ls >= 0 && lt >= 0 && ls != lt) continue;
        if (rect_of(s).touches(rect_of(t))) {
          dsu.unite(static_cast<int>(s), static_cast<int>(t));
        }
      }
    }
    // Terminals connect where a layer-0 shape (wire or via) covers them.
    for (std::size_t i = 0; i < rn.terminals.size(); ++i) {
      const int tid = static_cast<int>(num_shapes + i);
      for (std::size_t s = 0; s < num_shapes; ++s) {
        if (layer_of(s) == 1) continue;
        if (rect_of(s).contains(rn.terminals[i])) {
          dsu.unite(tid, static_cast<int>(s));
        }
      }
      // Coincident terminals are electrically one point even with no metal.
      for (std::size_t j = 0; j < i; ++j) {
        if (rn.terminals[j] == rn.terminals[i]) {
          dsu.unite(tid, static_cast<int>(num_shapes + j));
        }
      }
    }
    bool open = false;
    if (!rn.terminals.empty()) {
      const int root = dsu.find(static_cast<int>(num_shapes));
      for (std::size_t i = 1; i < rn.terminals.size(); ++i) {
        if (dsu.find(static_cast<int>(num_shapes + i)) != root) open = true;
      }
      for (std::size_t s = 0; s < num_shapes; ++s) {
        if (dsu.find(static_cast<int>(s)) != root) open = true;
      }
    }
    if (open) ++report.open_nets;

    for (std::size_t s = 0; s < num_shapes; ++s) {
      const int layer = layer_of(s);
      if (layer < 0) {
        all.push_back({rn.net, 0, rect_of(s), static_cast<int>(s)});
        all.push_back({rn.net, 1, rect_of(s), static_cast<int>(s)});
      } else {
        all.push_back({rn.net, layer, rect_of(s), static_cast<int>(s)});
      }
    }
  }

  // Shorts: shapes of distinct nets touching on a layer. On the uniform
  // grid a shape's cross-track extent never reaches the next track, so
  // only pairs on one track can touch: bucket metal2 by row and metal3 by
  // column, and sweep each track along its direction.
  const auto track = [&](const IndexedShape& s) {
    const geom::Vec2 c = s.rect.center();
    return (s.layer == 0 ? c.y : c.x) / pitch;
  };
  const auto along_lo = [](const IndexedShape& s) {
    return s.layer == 0 ? s.rect.lo().x : s.rect.lo().y;
  };
  const auto along_hi = [](const IndexedShape& s) {
    return s.layer == 0 ? s.rect.hi().x : s.rect.hi().y;
  };
  std::sort(all.begin(), all.end(), [&](const auto& a, const auto& b) {
    if (a.layer != b.layer) return a.layer < b.layer;
    const geom::Coord ta = track(a), tb = track(b);
    if (ta != tb) return ta < tb;
    return along_lo(a) < along_lo(b);
  });
  std::vector<std::pair<int, int>> shorted;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const geom::Coord track_i = track(all[i]);
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if (all[j].layer != all[i].layer) break;
      if (track(all[j]) != track_i) break;
      if (along_lo(all[j]) > along_hi(all[i])) break;
      if (all[j].net == all[i].net) continue;
      if (all[i].rect.touches(all[j].rect)) {
        shorted.emplace_back(std::min(all[i].net, all[j].net),
                             std::max(all[i].net, all[j].net));
      }
    }
  }
  std::sort(shorted.begin(), shorted.end());
  shorted.erase(std::unique(shorted.begin(), shorted.end()), shorted.end());
  report.shorted_net_pairs = static_cast<int>(shorted.size());
  return report;
}

}  // namespace cnfet::route
