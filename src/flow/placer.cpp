#include "flow/placer.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/error.hpp"

namespace cnfet::flow {

using geom::Coord;
using geom::Rect;
using geom::Vec2;

namespace {

struct Footprint {
  const Gate* gate;
  Coord width;
  Coord height;  ///< natural height
};

double hpwl(const std::vector<PlacedInstance>& instances) {
  // Pin position approximation: instance center; PI/PO pins ignored.
  std::map<int, std::vector<Vec2>> net_pins;
  for (const auto& inst : instances) {
    const Vec2 center{inst.origin.x + inst.width / 2,
                      inst.origin.y + inst.height / 2};
    net_pins[inst.gate->output].push_back(center);
    for (const int in : inst.gate->inputs) net_pins[in].push_back(center);
  }
  double total = 0.0;
  for (const auto& [net, pins] : net_pins) {
    if (pins.size() < 2) continue;
    Coord x0 = pins[0].x, x1 = pins[0].x, y0 = pins[0].y, y1 = pins[0].y;
    for (const auto& p : pins) {
      x0 = std::min(x0, p.x);
      x1 = std::max(x1, p.x);
      y0 = std::min(y0, p.y);
      y1 = std::max(y1, p.y);
    }
    total += geom::to_lambda((x1 - x0) + (y1 - y0));
  }
  return total;
}

}  // namespace

PlacementResult place(const GateNetlist& netlist, const PlaceOptions& options) {
  CNFET_REQUIRE(!netlist.gates().empty());

  std::vector<Footprint> cells;
  double natural_area = 0.0;
  Coord max_height = 0;
  Coord total_width = 0;
  const Coord spacing = geom::from_lambda(options.cell_spacing_lambda);
  const Coord row_gap = geom::from_lambda(options.row_spacing_lambda);

  for (const auto& gate : netlist.gates()) {
    const auto& lay = gate.cell->built.layout;
    const auto w = geom::from_lambda(lay.core_width_lambda());
    const auto h = geom::from_lambda(lay.core_height_lambda());
    cells.push_back({&gate, w, h});
    natural_area += lay.core_area_lambda2();
    max_height = std::max(max_height, h);
    total_width += w + spacing;
  }

  PlacementResult result;
  result.scheme = options.scheme;
  result.natural_area_lambda2 = natural_area;

  // Shelf packing sorts by natural height (desc) so each shelf is only as
  // tall as its tallest member; the order is attempt-invariant, so sort
  // once instead of once per row-count attempt.
  std::vector<Footprint> sorted = cells;
  if (options.scheme != layout::CellScheme::kScheme1) {
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Footprint& a, const Footprint& b) {
                       return a.height > b.height;
                     });
  }

  // Try every reasonable row count and keep the smallest bounding box —
  // small designs are very sensitive to the row-width choice and the paper
  // compares best-effort layouts.
  auto build_attempt = [&](Coord row_width_target) {
    std::vector<PlacedInstance> instances;
    if (options.scheme == layout::CellScheme::kScheme1) {
      // Uniform rows at the standardized (max) height, netlist order.
      Coord x = 0, y = 0;
      for (const auto& c : cells) {
        if (x > 0 && x + c.width > row_width_target) {
          x = 0;
          y += max_height + row_gap;
        }
        instances.push_back(
            PlacedInstance{c.gate, {x, y}, c.width, max_height});
        x += c.width + spacing;
      }
    } else {
      Coord x = 0, y = 0, shelf_height = 0;
      for (const auto& c : sorted) {  // height-sorted shelf order
        if (x > 0 && x + c.width > row_width_target) {
          x = 0;
          y += shelf_height + row_gap;
          shelf_height = 0;
        }
        if (shelf_height == 0) shelf_height = c.height;
        instances.push_back(
            PlacedInstance{c.gate, {x, y}, c.width, c.height});
        x += c.width + spacing;
      }
    }
    return instances;
  };

  // Up to 12 rows for paper-scale designs (unchanged); beyond 144 cells the
  // cap grows as ceil(sqrt(n)) so a 10k-gate placement can reach a roughly
  // square aspect ratio instead of twelve half-kilometer rows.
  const int n_cells = static_cast<int>(cells.size());
  const int sqrt_cap = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(n_cells))));
  const int max_rows = std::min(n_cells, std::max(12, sqrt_cap));
  double best_area = 0.0;
  for (int rows = 1; rows <= max_rows; ++rows) {
    const Coord target = total_width / rows + 1;
    auto attempt = build_attempt(target);
    Rect box = Rect::at(attempt.front().origin, 1, 1);
    for (const auto& inst : attempt) {
      box = box.bbox_with(Rect::at(inst.origin, inst.width, inst.height));
    }
    const double area = geom::area_to_lambda2(box.area());
    if (result.instances.empty() || area < best_area) {
      best_area = area;
      result.instances = std::move(attempt);
      result.bbox = box;
      result.placed_area_lambda2 = area;
    }
  }
  result.hpwl_lambda = hpwl(result.instances);
  return result;
}

}  // namespace cnfet::flow
