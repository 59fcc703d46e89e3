#include "layout/strip.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace cnfet::layout {

using geom::Coord;
using geom::Rect;
using geom::Vec2;

void StripGeometry::translate(Vec2 d) {
  strip = strip.translated(d);
  band = band.translated(d);
  for (auto& c : contacts) c.rect = c.rect.translated(d);
  for (auto& g : gates) g.rect = g.rect.translated(d);
  for (auto& e : etches) e = e.translated(d);
}

namespace {

Coord element_length(const PlaneElement& e, const DesignRules& r) {
  switch (e.kind) {
    case ElementKind::kContact:
      return r.db(r.contact_len);
    case ElementKind::kGate:
      return r.db(r.gate_len);
    case ElementKind::kEtch:
      return r.db(r.etch_len);
  }
  throw util::Error("unreachable element kind");
}

/// Spacing rule between two consecutive elements.
Coord spacing(const PlaneElement& a, const PlaneElement& b,
              const DesignRules& r) {
  const auto pair = [&](ElementKind x, ElementKind y) {
    return (a.kind == x && b.kind == y) || (a.kind == y && b.kind == x);
  };
  if (pair(ElementKind::kContact, ElementKind::kGate)) {
    return r.db(r.gate_contact_space);
  }
  if (pair(ElementKind::kGate, ElementKind::kGate)) {
    return r.db(r.gate_gate_space);
  }
  if (pair(ElementKind::kContact, ElementKind::kContact)) {
    return r.db(r.contact_contact_space);
  }
  // Etch slots abut their neighbours: the etched region replaces the CNTs,
  // no extra spacing is required (the paper: two 2-lambda etches widen the
  // NAND3 PUN "by at least 4 lambda", i.e. by exactly their own length).
  return 0;
}

}  // namespace

std::vector<Coord> natural_gate_positions(const PlaneSeq& seq,
                                          const DesignRules& rules) {
  std::vector<Coord> xs;
  Coord x = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) x += spacing(seq[i - 1], seq[i], rules);
    if (seq[i].kind == ElementKind::kGate) xs.push_back(x);
    x += element_length(seq[i], rules);
  }
  return xs;
}

std::vector<Coord> align_gate_positions(const PlaneSeq& a, const PlaneSeq& b,
                                        const DesignRules& rules) {
  auto xa = natural_gate_positions(a, rules);
  const auto xb = natural_gate_positions(b, rules);
  CNFET_REQUIRE_MSG(xa.size() == xb.size(),
                    "gate alignment requires equal gate counts");
  // Element-wise max is a valid anchor set for both planes: anchors are
  // non-decreasing shifts, and shifting gate k right never forces gate k+1
  // left, so one forward pass in build_strip satisfies all anchors.
  for (std::size_t i = 0; i < xa.size(); ++i) xa[i] = std::max(xa[i], xb[i]);
  return xa;
}

StripGeometry build_strip(const PlaneSeq& seq, netlist::FetType doping,
                          double width_lambda, const DesignRules& rules,
                          Coord y0, const std::vector<Coord>* gate_anchors) {
  CNFET_REQUIRE(!seq.empty());
  CNFET_REQUIRE(width_lambda > 0);

  StripGeometry g;
  g.doping = doping;

  const Coord w = rules.db(width_lambda);
  const Coord margin = rules.db(rules.cnt_margin);
  const Coord overhang = rules.db(rules.gate_overhang);
  const Coord y1 = y0 + w;

  Coord x = 0;
  std::size_t gate_index = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) x += spacing(seq[i - 1], seq[i], rules);
    const Coord len = element_length(seq[i], rules);
    switch (seq[i].kind) {
      case ElementKind::kContact:
        g.contacts.push_back(
            {seq[i].id, Rect({x, y0}, {x + len, y1})});
        break;
      case ElementKind::kGate: {
        if (gate_anchors != nullptr) {
          CNFET_REQUIRE(gate_index < gate_anchors->size());
          x = std::max(x, (*gate_anchors)[gate_index]);
        }
        ++gate_index;
        // The gate stripe overhangs the CNT band so no surviving tube can
        // slip past it vertically.
        g.gates.push_back(
            {seq[i].id,
             Rect({x, y0 - margin - overhang}, {x + len, y1 + margin + overhang})});
        break;
      }
      case ElementKind::kEtch:
        // The etch slot must cut the whole band, margins included.
        g.etches.push_back(Rect({x, y0 - margin}, {x + len, y1 + margin}));
        break;
    }
    x += len;
  }

  g.strip = Rect({0, y0}, {x, y1});
  g.band = Rect({-margin, y0 - margin}, {x + margin, y1 + margin});
  return g;
}

int etch_count(const PlaneSeq& seq) {
  return static_cast<int>(std::count_if(
      seq.begin(), seq.end(),
      [](const PlaneElement& e) { return e.kind == ElementKind::kEtch; }));
}

std::string to_string(const PlaneSeq& seq, const netlist::CellNetlist& cell) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) out << " ";
    switch (seq[i].kind) {
      case ElementKind::kContact:
        out << cell.net_name(seq[i].id);
        break;
      case ElementKind::kGate:
        out << static_cast<char>('A' + seq[i].id);
        break;
      case ElementKind::kEtch:
        out << "//";
        break;
    }
  }
  out << "]";
  return out.str();
}

}  // namespace cnfet::layout
