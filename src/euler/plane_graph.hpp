// Plane graphs for diffusion-sharing layout synthesis.
//
// Following the paper (Section III), a pull-up or pull-down network is
// viewed as a multigraph whose vertices are metal contacts (nets) and whose
// edges are gates (FETs). A contiguous diffusion strip realizes a *trail*
// (walk using each edge once): contacts appear at trail vertices, gates at
// trail edges. An Euler trail realizes the whole plane in one strip; when
// the graph is not Eulerian the plane is split into several trails, each
// break duplicating a metal contact — the paper's "redundant metal contacts
// where necessary rather than having an etched region".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netlist/cell_netlist.hpp"

namespace cnfet::euler {

/// One FET viewed as a graph edge.
struct PlaneEdge {
  int gate_input = 0;  ///< controlling input index (the edge label)
  netlist::NetId u = 0;
  netlist::NetId v = 0;
  double width_lambda = 4.0;
};

/// Oriented use of an edge within a trail.
struct TrailStep {
  int edge = 0;        ///< index into the plane's edge list
  bool forward = true; ///< true: traversed u->v, false: v->u
};

/// A contiguous walk: realized as one diffusion strip.
struct Trail {
  netlist::NetId start = 0;
  std::vector<TrailStep> steps;

  /// Vertex sequence including both endpoints (length = steps + 1).
  [[nodiscard]] std::vector<netlist::NetId> vertices(
      const std::vector<PlaneEdge>& edges) const;
};

/// An ordered trail decomposition of one plane.
struct PlaneOrder {
  std::vector<Trail> trails;

  [[nodiscard]] int num_breaks() const {
    return trails.empty() ? 0 : static_cast<int>(trails.size()) - 1;
  }
  /// Gate labels in strip order (concatenated across trails).
  [[nodiscard]] std::vector<int> gate_sequence(
      const std::vector<PlaneEdge>& edges) const;
  /// Total metal contacts the strip realization needs
  /// (= edges + trails, each trail contributing steps+1 contacts).
  [[nodiscard]] int num_contacts() const;
};

/// Extracts the plane edges of one polarity from a cell netlist.
[[nodiscard]] std::vector<PlaneEdge> plane_edges(
    const netlist::CellNetlist& cell, netlist::FetType type);

/// Degree of every net, indexed by NetId up to the largest one the edges
/// touch (0 for nets they do not touch; a self-loop counts twice).
[[nodiscard]] std::vector<int> degrees(const std::vector<PlaneEdge>& edges);

/// True when net `v` can carry a metal contact on a strip: rails and the
/// output always can; internal nets everywhere except pure series points
/// (degree exactly 2). Trail endpoints must be contact-worthy — a strip
/// cannot terminate on a bare series diffusion point.
[[nodiscard]] bool contact_worthy(netlist::NetId v, int degree);

/// Number of odd-degree vertices of the multigraph.
[[nodiscard]] int count_odd_vertices(const std::vector<PlaneEdge>& edges);

/// Lower bound on trails for one plane: max(#odd/2, 1) per connected
/// component (our plane networks are connected by construction).
[[nodiscard]] int min_trail_count(const std::vector<PlaneEdge>& edges);

/// Greedy single-plane decomposition achieving min_trail_count (Hierholzer
/// with odd-vertex pairing). Deterministic.
[[nodiscard]] PlaneOrder euler_decompose(const std::vector<PlaneEdge>& edges);

/// Joint result: both planes ordered with the *same* gate-label sequence so
/// the PUN and PDN gate stripes align vertically and connect with plain
/// poly — no via-on-active ("vertical gating") needed.
struct CommonOrdering {
  PlaneOrder pun;
  PlaneOrder pdn;
  std::vector<int> gate_sequence;

  [[nodiscard]] int total_breaks() const {
    return pun.num_breaks() + pdn.num_breaks();
  }
};

/// Searches for trail decompositions of both planes sharing one gate-label
/// sequence, minimizing total breaks (iterative deepening, exhaustive —
/// standard cells have <= ~8 edges per plane). Prefers starting the PUN at
/// VDD and ending the PDN at GND, matching the paper's "Euler path from the
/// Vdd to the Gnd". Returns nullopt only if per-input edge counts differ
/// between the planes (cannot happen for dual networks).
[[nodiscard]] std::optional<CommonOrdering> find_common_ordering(
    const std::vector<PlaneEdge>& pun, const std::vector<PlaneEdge>& pdn);

}  // namespace cnfet::euler
