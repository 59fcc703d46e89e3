// Continuous line segments. A carbon nanotube lying on the wafer is modelled
// as a straight segment in layout space; doping analysis needs to know, in
// order along the tube, which layout rectangles it crosses.
#pragma once

#include <optional>
#include <vector>

#include "geom/rect.hpp"
#include "geom/vec.hpp"

namespace cnfet::geom {

/// Parametric segment p(t) = a + t*(b-a), t in [0,1].
class Segment {
 public:
  Segment(DVec2 a, DVec2 b) : a_(a), b_(b) {}

  [[nodiscard]] DVec2 a() const { return a_; }
  [[nodiscard]] DVec2 b() const { return b_; }
  [[nodiscard]] DVec2 at(double t) const { return a_ + (b_ - a_) * t; }
  [[nodiscard]] double length() const { return (b_ - a_).norm(); }

  /// Parameter interval [t0, t1] over which the segment lies inside `r`
  /// (closed rectangle), or nullopt when they do not meet.
  /// Liang–Barsky clipping.
  [[nodiscard]] std::optional<std::pair<double, double>> clip(
      const Rect& r) const;

 private:
  DVec2 a_{};
  DVec2 b_{};
};

/// One rectangle crossing along a segment, sorted by entry parameter.
struct Crossing {
  std::size_t index = 0;  ///< index into the caller's rectangle list
  double t_enter = 0.0;
  double t_exit = 0.0;
};

/// All crossings of `seg` with `rects`, ordered by t_enter. Zero-length
/// clips (grazing a corner/edge) are kept; callers may filter by extent.
[[nodiscard]] std::vector<Crossing> crossings(
    const Segment& seg, const std::vector<Rect>& rects);

}  // namespace cnfet::geom
