// Axis-aligned rectangles: the only polygon class the layout engine needs.
// CNFET standard-cell shapes (contacts, gate stripes, etch slots, CNT
// strips) are all rectilinear, and every one of them is a single rectangle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "geom/vec.hpp"
#include "util/error.hpp"

namespace cnfet::geom {

/// Closed axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y].
/// Invariant: lo.x <= hi.x and lo.y <= hi.y (degenerate zero-width/height
/// rectangles are allowed; they behave as segments/points for containment).
class Rect {
 public:
  constexpr Rect() = default;

  constexpr Rect(Vec2 lo, Vec2 hi) : lo_(lo), hi_(hi) {
    CNFET_REQUIRE(lo.x <= hi.x && lo.y <= hi.y);
  }

  /// Builds from any two opposite corners.
  [[nodiscard]] static constexpr Rect spanning(Vec2 a, Vec2 b) {
    return Rect({a.x < b.x ? a.x : b.x, a.y < b.y ? a.y : b.y},
                {a.x > b.x ? a.x : b.x, a.y > b.y ? a.y : b.y});
  }

  /// Rectangle from origin corner plus width/height.
  [[nodiscard]] static constexpr Rect at(Vec2 origin, Coord width,
                                         Coord height) {
    return Rect(origin, {origin.x + width, origin.y + height});
  }

  [[nodiscard]] constexpr Vec2 lo() const { return lo_; }
  [[nodiscard]] constexpr Vec2 hi() const { return hi_; }
  [[nodiscard]] constexpr Coord width() const { return hi_.x - lo_.x; }
  [[nodiscard]] constexpr Coord height() const { return hi_.y - lo_.y; }
  [[nodiscard]] constexpr std::int64_t area() const {
    return static_cast<std::int64_t>(width()) * height();
  }
  [[nodiscard]] constexpr Vec2 center() const {
    return {(lo_.x + hi_.x) / 2, (lo_.y + hi_.y) / 2};
  }
  [[nodiscard]] constexpr bool empty() const {
    return width() == 0 || height() == 0;
  }

  [[nodiscard]] constexpr bool contains(Vec2 p) const {
    return p.x >= lo_.x && p.x <= hi_.x && p.y >= lo_.y && p.y <= hi_.y;
  }
  [[nodiscard]] constexpr bool contains(const Rect& r) const {
    return r.lo_.x >= lo_.x && r.hi_.x <= hi_.x && r.lo_.y >= lo_.y &&
           r.hi_.y <= hi_.y;
  }
  /// True when interiors (or boundaries) share at least a point.
  [[nodiscard]] constexpr bool touches(const Rect& r) const {
    return r.lo_.x <= hi_.x && r.hi_.x >= lo_.x && r.lo_.y <= hi_.y &&
           r.hi_.y >= lo_.y;
  }
  /// True when interiors share positive area.
  [[nodiscard]] constexpr bool overlaps(const Rect& r) const {
    return r.lo_.x < hi_.x && r.hi_.x > lo_.x && r.lo_.y < hi_.y &&
           r.hi_.y > lo_.y;
  }

  /// touches() against a continuous-space closed box [lo, hi] — the CNT
  /// tracer's cheap reject before running segment clip math.
  [[nodiscard]] constexpr bool touches_box(DVec2 box_lo, DVec2 box_hi) const {
    return box_lo.x <= static_cast<double>(hi_.x) &&
           box_hi.x >= static_cast<double>(lo_.x) &&
           box_lo.y <= static_cast<double>(hi_.y) &&
           box_hi.y >= static_cast<double>(lo_.y);
  }

  [[nodiscard]] std::optional<Rect> intersection(const Rect& r) const;

  /// Smallest rectangle containing both.
  [[nodiscard]] Rect bbox_with(const Rect& r) const;

  /// Grown (or shrunk, for negative d) by d on all four sides.
  [[nodiscard]] Rect expanded(Coord d) const;

  [[nodiscard]] constexpr Rect translated(Vec2 d) const {
    return Rect(lo_ + d, hi_ + d);
  }

  constexpr bool operator==(const Rect&) const = default;
  /// Lexicographic by (lo, hi): a total order for canonical sorting.
  constexpr auto operator<=>(const Rect&) const = default;

  [[nodiscard]] std::string to_string() const;

 private:
  Vec2 lo_{};
  Vec2 hi_{};
};

}  // namespace cnfet::geom
