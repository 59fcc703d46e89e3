// CNT mispositioning analysis: the machinery behind the paper's central
// claim ("100% functional immunity to mispositioned CNTs").
//
// Physical model. CNTs grow across the wafer; the active etch removes every
// tube not covered by a drawn strip, up to a registration tolerance
// (DesignRules::cnt_margin), so surviving tubes lie inside each strip's
// *band* (strip + margin). During doping the gate poly masks the channel, so
// a surviving tube becomes: doped wire segments (p+ in the PUN band, n+ in
// the PDN band) interrupted by a channel under every gate stripe it crosses.
// A tube touching two metal contacts therefore adds, between those nets,
// a series chain of parasitic FETs — or a hard short when no gate lies
// between. Etched slots cut tubes outright.
//
// Immunity is then a *functional* statement: superimposing every stray
// device a mispositioned tube can realize must leave the cell's evaluated
// function unchanged with no supply short. Two engines check it:
//
//  * check_exact — a proof over all straight tubes. Within one band, a gate
//    stripe spanning the full band cannot be bypassed, so any tube joining
//    two contacts carries at least the full-span gates between them; adding
//    the corresponding chains for every contact pair (plus hard shorts for
//    gate-free different-net pairs) over-approximates every tube set
//    (stray effects are monotone: more strays only add conduction). If the
//    augmented netlist still checks out, the layout is immune to ANY number
//    of straight mispositioned tubes.
//  * monte_carlo — samples bent, tilted, displaced tubes (beyond the
//    straight-tube proof) and reports functional yield.
//
// Neither engine copies a netlist: both append the stray devices to the
// cell's conduction edges (append_stray_edges) and run one bit-parallel
// flood (netlist::flood_rows) over every truth-table row.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cnt/geometry_index.hpp"
#include "geom/vec.hpp"
#include "layout/cell_layout.hpp"
#include "netlist/cell_netlist.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace cnfet::cnt {

/// One parasitic channel along a stray tube.
struct StrayLink {
  int gate_input = 0;
  netlist::FetType type = netlist::FetType::kN;
};

/// The electrical effect of one stray tube piece joining two contacts:
/// a chain of parasitic FETs, or a hard short when the chain is empty.
struct StrayEffect {
  netlist::NetId a = 0;
  netlist::NetId b = 0;
  std::vector<StrayLink> chain;

  [[nodiscard]] bool is_short() const { return chain.empty(); }
};

/// Appends the stray devices of the effect (a, b, chain) to a conduction
/// edge list over input block 0: a short conducts in every row, and a
/// chain puts a fresh net between consecutive links, numbered from
/// `num_nets` up (which grows by chain.size() - 1).
void append_stray_edges(netlist::NetId a, netlist::NetId b,
                        std::span<const StrayLink> chain,
                        std::vector<netlist::ConductionEdge>& edges,
                        int& num_nets);

/// Result of the straight-tube immunity proof.
struct ImmunityReport {
  bool immune = false;
  /// Functional check of the fully augmented netlist.
  netlist::FunctionalReport functional;
  /// Every stray-effect class the layout admits.
  std::vector<StrayEffect> effects;
  /// Different-net contact pairs with no protecting gate or etch: these are
  /// outright shorts (the Figure 2(b) failure).
  int short_pairs = 0;

  [[nodiscard]] std::string to_string(const netlist::CellNetlist& cell) const;
};

/// Straight-tube immunity proof for a cell layout against its function.
/// Builds a GeometryIndex internally; callers that analyze the same
/// geometry repeatedly should build the index once and use the overload
/// below — the band-disjointness proof then runs once per geometry
/// instead of once per call.
[[nodiscard]] ImmunityReport check_exact(const layout::CellLayout& layout,
                                         const netlist::CellNetlist& cell,
                                         const logic::TruthTable& function);

/// Straight-tube immunity proof over a prebuilt index. The bands were
/// proven pairwise disjoint at index construction, so this path carries
/// no per-call geometry validation.
[[nodiscard]] ImmunityReport check_exact(const GeometryIndex& index,
                                         const netlist::CellNetlist& cell,
                                         const logic::TruthTable& function);

/// Mispositioned-tube distribution for Monte Carlo.
struct TubeModel {
  double mean_length_lambda = 40.0;  ///< lognormal median tube length
  double length_sigma = 0.35;        ///< lognormal shape
  double angle_sigma_deg = 8.0;      ///< nominal misalignment spread
  double outlier_fraction = 0.03;    ///< tubes with uniform angle +-90 deg
  double bend_sigma_deg = 6.0;       ///< mid-tube kink spread (2 segments)
  int tubes_per_trial = 24;          ///< tubes landing on one cell instance
};

struct MonteCarloResult {
  /// Width of the per-trial histograms: bucket b counts trials that saw
  /// exactly b effects of that kind, with the last bucket saturating
  /// (>= kHistogramBuckets - 1 effects).
  static constexpr int kHistogramBuckets = 32;

  int trials = 0;
  int failing_trials = 0;
  std::int64_t tubes_sampled = 0;
  std::int64_t stray_shorts = 0;   ///< hard-short effects observed
  std::int64_t stray_chains = 0;   ///< gated chain effects observed
  /// Per-trial distribution of hard-short effect counts (size
  /// kHistogramBuckets, buckets sum to `trials`).
  std::vector<std::int64_t> shorts_histogram;
  /// Per-trial distribution of gated-chain effect counts.
  std::vector<std::int64_t> chains_histogram;
  [[nodiscard]] double yield() const {
    return trials == 0 ? 1.0
                       : 1.0 - static_cast<double>(failing_trials) / trials;
  }
};

/// Which tube tracer monte_carlo runs. The naive tracer is the all-pairs
/// reference implementation, kept compiled as the A/B baseline for the
/// indexed≡naive equivalence gates (tests, bench_mc, check_perf.py).
enum class TracerKind { kIndexed, kNaive };

/// Samples `trials` cell instances, each hit by tubes_per_trial mispositioned
/// tubes, and evaluates the cell plus the instance's stray devices
/// functionally. A warm trial allocates nothing.
///
/// Reproducibility contract: trial `i` draws from its own RNG stream
/// `util::Xoshiro256(util::derive_stream(seed, i))` (counter-based seeding),
/// so the same (seed, trials, model) produces a bit-identical result for
/// ANY `num_threads` — trials shard across workers without sharing a
/// stream. `num_threads` 1 runs inline, 0 uses every hardware thread.
[[nodiscard]] MonteCarloResult monte_carlo(
    const layout::CellLayout& layout, const netlist::CellNetlist& cell,
    const logic::TruthTable& function, const TubeModel& model, int trials,
    std::uint64_t seed = 1, int num_threads = 1,
    TracerKind tracer = TracerKind::kIndexed);

/// Stray effects of one explicit tube polyline (exposed for tests and the
/// Figure-2 demonstration bench). This is the naive all-pairs reference
/// tracer; the GeometryIndex overload is the production path and is
/// gated bit-identical to it.
[[nodiscard]] std::vector<StrayEffect> trace_tube(
    const layout::CellGeometry& geometry,
    const std::vector<geom::DVec2>& polyline);

/// Index-accelerated tracer: identical effect list to the naive tracer
/// (same clip math on a conservative candidate superset, normalized
/// through the same total-order event sort), at a fraction of the cost.
[[nodiscard]] std::vector<StrayEffect> trace_tube(
    const GeometryIndex& index, const std::vector<geom::DVec2>& polyline);

/// Variants with caller-owned storage: event/chain scratch lives in
/// `arena`, which is reset before any scratch is claimed (callers must
/// not hold arena data across calls), and effects are APPENDED to
/// `effects`. With warm buffers a trace allocates nothing unless it
/// records a chain-bearing effect. monte_carlo runs the same tracers
/// with its own effect sink, which copies no chain; bench_mc times these
/// for the tracer-only A/B.
void trace_tube_into(const layout::CellGeometry& geometry,
                     const std::vector<geom::DVec2>& polyline,
                     util::Arena& arena, std::vector<StrayEffect>& effects);
void trace_tube_into(const GeometryIndex& index,
                     const std::vector<geom::DVec2>& polyline,
                     util::Arena& arena, std::vector<StrayEffect>& effects);

}  // namespace cnfet::cnt
