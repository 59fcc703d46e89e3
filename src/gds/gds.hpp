// Minimal-but-real GDSII stream format support: enough of the format
// (HEADER/BGNLIB/UNITS/BGNSTR/BOUNDARY/SREF/TEXT) to export the design kit's
// cell layouts and placed designs to any commercial viewer, plus a reader so
// tests can round-trip what we emit.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geom/rect.hpp"
#include "geom/vec.hpp"

namespace cnfet::gds {

/// Filled polygon on a layer. Points are an open ring (the writer closes it).
struct Boundary {
  std::int16_t layer = 0;
  std::int16_t datatype = 0;
  std::vector<geom::Vec2> points;

  /// Convenience: rectangle boundary.
  [[nodiscard]] static Boundary rect(std::int16_t layer, const geom::Rect& r,
                                     std::int16_t datatype = 0);
};

/// Reference to another structure placed at `origin` (no rotation/mirror;
/// the kit's placers only translate cells).
struct Sref {
  std::string structure_name;
  geom::Vec2 origin;
};

/// Annotation text (pin names, net labels).
struct Text {
  std::int16_t layer = 0;
  std::int16_t texttype = 0;
  geom::Vec2 position;
  std::string value;
};

/// One GDS structure (a cell).
struct Structure {
  std::string name;
  std::vector<Boundary> boundaries;
  std::vector<Sref> srefs;
  std::vector<Text> texts;
};

/// A GDS library: named structures sharing one database unit.
struct Library {
  std::string name = "CNFETDK";
  /// Database unit in metres. Default: 1 millilambda at the 65nm node.
  double dbu_meters = 32.5e-9 / 1000.0;
  /// User unit in database units (GDS "units" record first value).
  double user_unit_dbu = 1e-3;
  std::vector<Structure> structures;

  [[nodiscard]] const Structure* find(const std::string& name) const;
};

/// Serializes the library as a GDSII stream.
void write(const Library& lib, std::ostream& out);
void write_file(const Library& lib, const std::string& path);

/// Parses a GDSII stream produced by `write` (subset of the full format:
/// unknown records are skipped, so third-party files with only the
/// element types above also load).
[[nodiscard]] Library read(std::istream& in);

}  // namespace cnfet::gds
