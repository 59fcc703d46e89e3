#include "layout/generate.hpp"

#include <map>

#include "util/error.hpp"

namespace cnfet::layout {

using euler::PlaneEdge;
using netlist::NetId;

const char* to_string(LayoutStyle style) {
  switch (style) {
    case LayoutStyle::kNaiveVulnerable:
      return "naive-vulnerable";
    case LayoutStyle::kEtchedIsolatedBranches:
      return "etched-branches[6]";
    case LayoutStyle::kEtchedIsolatedFets:
      return "etched-fets[6]";
    case LayoutStyle::kCompactEuler:
      return "compact-euler";
  }
  return "?";
}

namespace {

/// Converts an ordered trail decomposition into a plane sequence: contacts
/// at trail ends and junction/rail vertices, bare diffusion at pure series
/// vertices, an etch slot between trails (a trail break means the adjacent
/// contacts belong to different nets, which only an etched region can make
/// safe).
PlaneSeq trails_to_seq(const euler::PlaneOrder& order,
                       const std::vector<PlaneEdge>& edges) {
  const auto deg = euler::degrees(edges);
  PlaneSeq seq;
  for (std::size_t t = 0; t < order.trails.size(); ++t) {
    if (t > 0) seq.push_back(PlaneElement::etch());
    const auto verts = order.trails[t].vertices(edges);
    CNFET_REQUIRE_MSG(
        euler::contact_worthy(verts.front(), deg.at(verts.front())),
        "trail must start at a contact-worthy net");
    CNFET_REQUIRE_MSG(
        euler::contact_worthy(verts.back(), deg.at(verts.back())),
        "trail must end at a contact-worthy net");
    seq.push_back(PlaneElement::contact(verts.front()));
    for (std::size_t k = 0; k < order.trails[t].steps.size(); ++k) {
      const auto& step = order.trails[t].steps[k];
      seq.push_back(
          PlaneElement::gate(edges[static_cast<std::size_t>(step.edge)].gate_input));
      const NetId v = verts[k + 1];
      const bool last = (k + 1 == order.trails[t].steps.size());
      if (last || euler::contact_worthy(v, deg.at(v))) {
        seq.push_back(PlaneElement::contact(v));
      }
    }
  }
  return seq;
}

/// Greedy direct layout in netlist (expression) order: continue the current
/// diffusion run while consecutive edges chain head-to-tail; otherwise close
/// the segment and start a new one. `isolate_every_fet` forces a segment
/// per transistor; `etch_between` inserts the etched slot of [6] (the naive
/// vulnerable layout omits it).
PlaneSeq direct_seq(const std::vector<PlaneEdge>& edges, bool isolate_every_fet,
                    bool etch_between) {
  CNFET_REQUIRE(!edges.empty());
  const auto deg = euler::degrees(edges);
  PlaneSeq seq;
  NetId open_at = -1;  // net at the open right end of the current segment

  for (const auto& e : edges) {
    const bool chain = !isolate_every_fet && open_at == e.u;
    if (!chain) {
      if (open_at != -1 && etch_between) seq.push_back(PlaneElement::etch());
      seq.push_back(PlaneElement::contact(e.u));
    } else if (euler::contact_worthy(e.u, deg.at(e.u))) {
      // Continuing through a junction/rail still lands a contact there.
      if (seq.back().kind != ElementKind::kContact) {
        seq.push_back(PlaneElement::contact(e.u));
      }
    }
    seq.push_back(PlaneElement::gate(e.gate_input));
    seq.push_back(PlaneElement::contact(e.v));
    open_at = e.v;
  }

  // Drop contacts at pure-series internal vertices (they are diffusion
  // points, not metal) — but keep segment-terminating ones.
  PlaneSeq pruned;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const auto& el = seq[i];
    if (el.kind == ElementKind::kContact &&
        !euler::contact_worthy(el.id, deg.at(el.id))) {
      const bool gate_before =
          i > 0 && seq[i - 1].kind == ElementKind::kGate;
      const bool gate_after =
          i + 1 < seq.size() && seq[i + 1].kind == ElementKind::kGate;
      if (gate_before && gate_after) continue;  // series diffusion point
    }
    pruned.push_back(el);
  }
  return pruned;
}

int count_redundant_contacts(const PlaneSeq& seq) {
  std::map<int, int> per_net;
  for (const auto& el : seq) {
    if (el.kind == ElementKind::kContact) ++per_net[el.id];
  }
  int redundant = 0;
  for (const auto& [net, n] : per_net) redundant += n - 1;
  return redundant;
}

bool same_gate_order(const PlaneSeq& a, const PlaneSeq& b) {
  std::vector<int> ga, gb;
  for (const auto& el : a) {
    if (el.kind == ElementKind::kGate) ga.push_back(el.id);
  }
  for (const auto& el : b) {
    if (el.kind == ElementKind::kGate) gb.push_back(el.id);
  }
  return ga == gb;
}

}  // namespace

PlanePlan plan_planes(const netlist::CellNetlist& cell, LayoutStyle style) {
  const auto pun_edges = euler::plane_edges(cell, netlist::FetType::kP);
  const auto pdn_edges = euler::plane_edges(cell, netlist::FetType::kN);
  CNFET_REQUIRE(!pun_edges.empty() && !pdn_edges.empty());

  PlanePlan plan;
  plan.style = style;

  switch (style) {
    case LayoutStyle::kCompactEuler: {
      // Folded high-drive cells can have different finger counts per input
      // in the two planes; a common gate ordering then cannot exist and the
      // planes are ordered independently (still one compact immune strip
      // each — only the straight-poly gate alignment is lost).
      const auto common = euler::find_common_ordering(pun_edges, pdn_edges);
      if (common.has_value()) {
        plan.pun = trails_to_seq(common->pun, pun_edges);
        plan.pdn = trails_to_seq(common->pdn, pdn_edges);
        plan.trail_breaks = common->total_breaks();
      } else {
        const auto pun_order = euler::euler_decompose(pun_edges);
        const auto pdn_order = euler::euler_decompose(pdn_edges);
        plan.pun = trails_to_seq(pun_order, pun_edges);
        plan.pdn = trails_to_seq(pdn_order, pdn_edges);
        plan.trail_breaks = pun_order.num_breaks() + pdn_order.num_breaks();
      }
      break;
    }
    case LayoutStyle::kEtchedIsolatedBranches:
      plan.pun = direct_seq(pun_edges, /*isolate_every_fet=*/false,
                            /*etch_between=*/true);
      plan.pdn = direct_seq(pdn_edges, false, true);
      break;
    case LayoutStyle::kEtchedIsolatedFets:
      plan.pun = direct_seq(pun_edges, true, true);
      plan.pdn = direct_seq(pdn_edges, true, true);
      break;
    case LayoutStyle::kNaiveVulnerable:
      plan.pun = direct_seq(pun_edges, false, /*etch_between=*/false);
      plan.pdn = direct_seq(pdn_edges, false, false);
      break;
  }

  plan.redundant_contacts =
      count_redundant_contacts(plan.pun) + count_redundant_contacts(plan.pdn);
  plan.gates_aligned = same_gate_order(plan.pun, plan.pdn);
  return plan;
}

}  // namespace cnfet::layout
