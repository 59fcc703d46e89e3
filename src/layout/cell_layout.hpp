// Assembled standard-cell layouts.
//
// Scheme 1 (Figure 6 left): CMOS-like — PUN strip above the PDN strip,
// separated by the routing gap that carries the input pins (6 lambda for
// CNFET, pin-limited; 10 lambda for the CMOS baseline, diffusion-spacing
// limited). Scheme 2 (Figure 6 right): CNFET-only — PUN *beside* PDN,
// shrinking the cell height; pins sit at the top or bottom edge.
#pragma once

#include <string>
#include <vector>

#include "gds/gds.hpp"
#include "layout/generate.hpp"
#include "layout/strip.hpp"

namespace cnfet::layout {

enum class CellScheme { kScheme1, kScheme2 };

[[nodiscard]] const char* to_string(CellScheme scheme);

/// Pin shape for place & route.
struct Pin {
  std::string name;
  geom::Rect rect;
};

/// Flattened geometric view consumed by the CNT immunity analyzer and DRC.
struct CellGeometry {
  struct Band {
    geom::Rect rect;                 ///< where surviving tubes can lie
    netlist::FetType doping = netlist::FetType::kN;
  };
  std::vector<Band> bands;
  std::vector<ContactShape> contacts;
  std::vector<GateShape> gates;
  std::vector<geom::Rect> etches;
};

/// GDS layer assignment used by the kit.
struct LayerMap {
  std::int16_t active = 1;   ///< drawn CNT strip
  std::int16_t gate = 2;     ///< poly gate
  std::int16_t contact = 3;  ///< source/drain metal contact
  std::int16_t metal1 = 4;
  std::int16_t etch = 5;     ///< etched (CNT-free) slot
  std::int16_t pdope = 6;
  std::int16_t ndope = 7;
  std::int16_t metal2 = 8;   ///< routed wires, horizontal-preferred
  std::int16_t metal3 = 9;   ///< routed wires, vertical-preferred
  std::int16_t pin_text = 10;
  std::int16_t via23 = 11;   ///< metal2-metal3 via
};

/// A fully assembled cell layout.
class CellLayout {
 public:
  CellLayout(std::string name, const netlist::CellNetlist& cell,
             const PlanePlan& plan, const DesignRules& rules,
             CellScheme scheme);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] CellScheme scheme() const { return scheme_; }
  [[nodiscard]] LayoutStyle style() const { return plan_.style; }
  [[nodiscard]] const DesignRules& rules() const { return rules_; }
  [[nodiscard]] const StripGeometry& pun() const { return pun_; }
  [[nodiscard]] const StripGeometry& pdn() const { return pdn_; }
  [[nodiscard]] const std::vector<Pin>& pins() const { return pins_; }

  /// Core extent (strips + gaps, the quantity the paper's area ratios use;
  /// boundary margins excluded so INV ratios come out as stated in
  /// case study 1).
  [[nodiscard]] double core_width_lambda() const;
  [[nodiscard]] double core_height_lambda() const;
  [[nodiscard]] double core_area_lambda2() const {
    return core_width_lambda() * core_height_lambda();
  }
  /// Sum of drawn strip areas.
  [[nodiscard]] double active_area_lambda2() const {
    return pun_.active_area_lambda2() + pdn_.active_area_lambda2();
  }
  /// Full bounding box including the cell boundary margin.
  [[nodiscard]] geom::Rect bbox() const { return bbox_; }

  [[nodiscard]] int etch_slot_count() const;
  /// Gates whose PUN/PDN stripes cannot be joined by straight vertical poly
  /// and therefore need the via-on-gate ("vertical gating") the paper rules
  /// out under conventional 65nm lithography.
  [[nodiscard]] int via_on_gate_count() const;

  [[nodiscard]] CellGeometry geometry() const;

  [[nodiscard]] gds::Structure to_gds(const LayerMap& layers = {}) const;

  /// 1-lambda-per-character raster of the cell (examples/docs).
  [[nodiscard]] std::string ascii() const;

 private:
  std::string name_;
  PlanePlan plan_;
  DesignRules rules_;
  CellScheme scheme_;
  StripGeometry pun_;
  StripGeometry pdn_;
  std::vector<Pin> pins_;
  geom::Rect bbox_;
  geom::Rect core_;
};

}  // namespace cnfet::layout
