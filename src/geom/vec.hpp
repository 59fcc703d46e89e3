// 2-D vectors: integer database-unit Vec2 for layout shapes and
// double-precision DVec2 for continuous CNT geometry.
#pragma once

#include <cmath>
#include <compare>

#include "geom/coord.hpp"

namespace cnfet::geom {

/// Integer layout-space vector/point (millilambda units).
struct Vec2 {
  Coord x = 0;
  Coord y = 0;

  friend constexpr Vec2 operator+(Vec2 a, Vec2 b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr Vec2 operator-(Vec2 a, Vec2 b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr Vec2 operator*(Vec2 a, Coord k) {
    return {a.x * k, a.y * k};
  }
  constexpr auto operator<=>(const Vec2&) const = default;
};

/// Continuous-space vector/point, still expressed in millilambda so that the
/// two spaces share a scale and can be mixed without conversion factors.
struct DVec2 {
  double x = 0.0;
  double y = 0.0;

  friend constexpr DVec2 operator+(DVec2 a, DVec2 b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr DVec2 operator-(DVec2 a, DVec2 b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr DVec2 operator*(DVec2 a, double k) {
    return {a.x * k, a.y * k};
  }
  friend constexpr double cross(DVec2 a, DVec2 b) {
    return a.x * b.y - a.y * b.x;
  }
  [[nodiscard]] double norm() const { return std::hypot(x, y); }
};

[[nodiscard]] constexpr DVec2 to_dvec(Vec2 v) {
  return {static_cast<double>(v.x), static_cast<double>(v.y)};
}

}  // namespace cnfet::geom
