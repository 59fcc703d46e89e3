// Design-rule checking for assembled cell layouts: the signoff step of the
// design kit. The deck encodes the 65nm-derived rules the paper relies on,
// including the two CNFET-specific ones its argument turns on: minimum
// etched-region size (2 lambda) and the prohibition of vias on top of the
// active gate region ("vertical gating") under conventional lithography.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "layout/cell_layout.hpp"
#include "route/router.hpp"

namespace cnfet::drc {

enum class RuleId {
  kGateMinLength,
  kContactMinLength,
  kGateContactSpacing,
  kGateGateSpacing,
  kContactContactSpacing,
  kEtchMinSize,
  kGateOverhang,      ///< gate must cover the CNT band (immunity rule)
  kBandSeparation,    ///< PUN/PDN CNT bands must not touch
  kViaOnGate,         ///< vertical gating is not manufacturable
  kPinMinSize,
  kWireMinWidth,      ///< routed wire below DesignRules::wire_width
  kWireSpacing,       ///< same-layer wires of distinct nets too close
  kWireShort,         ///< shapes of distinct nets touching on one layer
};

[[nodiscard]] const char* to_string(RuleId rule);

struct Violation {
  RuleId rule;
  std::string detail;
  geom::Rect where;
  bool operator==(const Violation&) const = default;
};

struct DrcReport {
  std::vector<Violation> violations;
  [[nodiscard]] bool clean() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Options: `allow_vertical_gating` models a hypothetical future process
/// where via-on-gate is legal (the paper's discussion of [6]'s needs);
/// `deck` overrides the rule values to check against (default: the rules
/// the cell was drawn with — a self-consistency check; pass the golden
/// deck to audit cells drawn under relaxed rules).
struct DrcOptions {
  bool allow_vertical_gating = false;
  std::optional<layout::DesignRules> deck;
};

[[nodiscard]] DrcReport check(const layout::CellLayout& cell,
                              const DrcOptions& options = {});

/// Wire deck over a routed design: every drawn wire at least wire_width
/// wide; same-layer wires of distinct nets at least wire_spacing apart
/// (vias are exempt from the spacing rule — on the standard pitch their
/// slightly-larger landing pads legally sit closer than wire_spacing —
/// but not from shorts); no touching metal between distinct nets. A pair
/// violation names the lower net id first and sits at that net's shape;
/// the list is sorted by (rule, where, detail), so it does not depend on
/// the order nets or shapes are stored in.
[[nodiscard]] DrcReport check_routes(const route::RoutingResult& routing,
                                     const layout::DesignRules& rules);

}  // namespace cnfet::drc
