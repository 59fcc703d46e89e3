#include "cnt/analyzer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <sstream>

#include "geom/segment.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/parallel.hpp"

namespace cnfet::cnt {

using geom::DVec2;
using geom::Rect;
using geom::Segment;
using layout::CellGeometry;
using netlist::CellNetlist;
using netlist::NetId;

void append_stray_edges(NetId a, NetId b, std::span<const StrayLink> chain,
                        std::vector<netlist::ConductionEdge>& edges,
                        int& num_nets) {
  if (chain.empty()) {
    edges.push_back({a, b, ~0ull});
    return;
  }
  NetId at = a;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const NetId next = i + 1 == chain.size() ? b : num_nets++;
    edges.push_back(
        {at, next, netlist::conducting_rows(chain[i].type,
                                            chain[i].gate_input, 0)});
    at = next;
  }
}

std::string ImmunityReport::to_string(const CellNetlist& cell) const {
  std::ostringstream out;
  out << (immune ? "IMMUNE" : "VULNERABLE") << ": " << effects.size()
      << " stray-effect classes, " << short_pairs << " hard shorts";
  if (!immune) {
    out << "; " << functional.to_string();
    for (const auto& e : effects) {
      if (e.is_short() && e.a != e.b) {
        out << "; short " << cell.net_name(e.a) << "-" << cell.net_name(e.b);
      }
    }
  }
  return out.str();
}

namespace {

bool spans_band_vertically(const Rect& shape, const Rect& band) {
  return shape.lo().y <= band.lo().y && shape.hi().y >= band.hi().y;
}

/// Stray edges name the geometry's contact nets and gate inputs unchecked,
/// so both engines first require that they exist in `cell`.
void require_geometry_fits(const CellGeometry& geo, const CellNetlist& cell) {
  for (const auto& c : geo.contacts) {
    CNFET_REQUIRE(c.net >= 0 && c.net < cell.num_nets());
  }
  for (const auto& g : geo.gates) {
    CNFET_REQUIRE(g.input >= 0 && g.input < cell.num_inputs());
  }
}

}  // namespace

ImmunityReport check_exact(const GeometryIndex& index, const CellNetlist& cell,
                           const logic::TruthTable& function) {
  // The bands were proven pairwise disjoint at index construction (tubes
  // cannot bridge two bands: the active etch cuts them in between), so
  // only the geometry's fit to the cell is checked here.
  const CellGeometry& geo = index.geometry();
  require_geometry_fits(geo, cell);

  ImmunityReport report;
  for (std::size_t bi = 0; bi < index.bands().size(); ++bi) {
    const auto& band = geo.bands[bi];
    // Contacts relevant to this band, in x order: prefiltered and
    // presorted by the index. The index bins by closed touch (what the
    // tracer needs); the proof ignores contacts that merely abut the
    // band edge, hence the overlap re-filter.
    std::vector<layout::ContactShape> contacts;
    for (const auto& e : index.bands()[bi].contacts.entries()) {
      if (e.rect.overlaps(band.rect)) contacts.push_back({e.net, e.rect});
    }

    // Adjacent contact pairs suffice: effects are monotone and non-adjacent
    // chains are series compositions of adjacent ones (see header).
    for (std::size_t k = 0; k + 1 < contacts.size(); ++k) {
      const auto& left = contacts[k];
      const auto& right = contacts[k + 1];
      const auto x0 = left.rect.hi().x;
      const auto x1 = right.rect.lo().x;

      // A full-height etched slot between the contacts cuts every tube.
      bool severed = false;
      for (const auto& e : geo.etches) {
        if (e.lo().x >= x0 && e.hi().x <= x1 &&
            spans_band_vertically(e, band.rect)) {
          severed = true;
          break;
        }
      }
      if (severed) continue;

      // Unavoidable gates: stripes between the contacts spanning the band.
      StrayEffect effect;
      effect.a = left.net;
      effect.b = right.net;
      for (const auto& g : geo.gates) {
        if (g.rect.lo().x >= x0 && g.rect.hi().x <= x1 &&
            spans_band_vertically(g.rect, band.rect)) {
          effect.chain.push_back(StrayLink{g.input, band.doping});
        }
      }
      // Order along x so the chain reads left-to-right (cosmetic: series
      // conduction is order-independent).
      if (effect.a == effect.b && effect.is_short()) continue;
      if (effect.is_short() && effect.a != effect.b) ++report.short_pairs;
      report.effects.push_back(std::move(effect));
    }
  }

  CNFET_REQUIRE(function.num_inputs() == cell.num_inputs());
  std::vector<netlist::ConductionEdge> edges = cell.conduction_edges();
  int num_nets = cell.num_nets();
  for (const auto& e : report.effects) {
    append_stray_edges(e.a, e.b, e.chain, edges, num_nets);
  }
  std::vector<netlist::RowReach> reach;
  netlist::flood_rows(edges, num_nets, reach);
  report.functional = netlist::judge_rows(reach, function);
  report.immune = report.functional.ok;
  return report;
}

ImmunityReport check_exact(const layout::CellLayout& layout,
                           const CellNetlist& cell,
                           const logic::TruthTable& function) {
  const GeometryIndex index(layout.geometry());
  return check_exact(index, cell, function);
}

namespace {

/// One ordered crossing event along a tube polyline.
struct Event {
  enum class Kind { kContact, kGate, kEtch, kGap };
  Kind kind = Kind::kGap;
  double t = 0.0;  ///< global parameter: segment index + local t
  NetId net = 0;
  int gate_input = 0;
};

/// Total order on events: parameter t, then kind/payload as tie-breaks.
/// Both tracers sort through THIS comparator, so ties between distinct
/// events resolve identically no matter which order the candidates were
/// enumerated in — that normalization is what makes the indexed event
/// list bit-identical to the naive one.
bool event_less(const Event& a, const Event& b) {
  if (a.t != b.t) return a.t < b.t;
  if (a.kind != b.kind) {
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
  if (a.net != b.net) return a.net < b.net;
  return a.gate_input < b.gate_input;
}

/// Midpoint parameter of the segment portion inside `r`, restricted to
/// the in-band interval [bt0, bt1]; nullopt when they do not meet. The
/// ONE place crossing math happens — both tracers call it with identical
/// arguments, which is the other half of the bit-identity argument.
std::optional<double> clip_mid(const Segment& seg, double bt0, double bt1,
                               const Rect& r) {
  const auto tt = seg.clip(r);
  if (!tt) return std::nullopt;
  const double lo = std::max(tt->first, bt0);
  const double hi = std::min(tt->second, bt1);
  if (lo > hi) return std::nullopt;
  return (lo + hi) / 2.0;
}

/// Walks one band's sorted events: contacts anchor chains; gates extend
/// the pending chain; etch slots and band exits break continuity. Each
/// effect goes to sink(a, b, chain) in order; the chain view lives in
/// `arena` and is valid only during the call.
template <typename Sink>
void walk_events(const util::ArenaVector<Event>& events,
                 netlist::FetType doping, util::Arena& arena, Sink& sink) {
  bool have_anchor = false;
  NetId anchor = 0;
  util::ArenaVector<StrayLink> pending{util::ArenaAllocator<StrayLink>(arena)};
  for (const auto& ev : events) {
    switch (ev.kind) {
      case Event::Kind::kGap:
      case Event::Kind::kEtch:
        have_anchor = false;
        pending.clear();
        break;
      case Event::Kind::kGate:
        if (have_anchor) pending.push_back({ev.gate_input, doping});
        break;
      case Event::Kind::kContact:
        if (have_anchor && !(anchor == ev.net && pending.empty())) {
          sink(anchor, ev.net,
               std::span<const StrayLink>(pending.data(), pending.size()));
        }
        have_anchor = true;
        anchor = ev.net;
        pending.clear();
        break;
    }
  }
}

/// The naive all-pairs reference tracer: every segment against every
/// band, contact, gate and etch rectangle. The per-band event list and
/// the pending chain live in `arena` (reset here, so the caller must not
/// hold arena data across calls); effects go to `sink` (see walk_events).
/// With warm arena blocks a trace allocates nothing.
template <typename Sink>
void trace_naive(const CellGeometry& geometry,
                 std::span<const DVec2> polyline, util::Arena& arena,
                 Sink&& sink) {
  CNFET_REQUIRE(polyline.size() >= 2);
  arena.reset();

  for (const auto& band : geometry.bands) {
    util::ArenaVector<Event> events{util::ArenaAllocator<Event>(arena)};
    for (std::size_t s = 0; s + 1 < polyline.size(); ++s) {
      const Segment seg(polyline[s], polyline[s + 1]);
      const auto in_band = seg.clip(band.rect);
      if (!in_band) {
        events.push_back({Event::Kind::kGap, static_cast<double>(s), 0, 0});
        continue;
      }
      const auto [bt0, bt1] = *in_band;
      const double base = static_cast<double>(s);
      // Portions of this segment outside the band are etched away.
      if (bt0 > 0.0) events.push_back({Event::Kind::kGap, base + bt0 - 1e-9, 0, 0});
      if (bt1 < 1.0) events.push_back({Event::Kind::kGap, base + bt1 + 1e-9, 0, 0});

      for (const auto& c : geometry.contacts) {
        if (auto t = clip_mid(seg, bt0, bt1, c.rect)) {
          events.push_back({Event::Kind::kContact, base + *t, c.net, 0});
        }
      }
      for (const auto& g : geometry.gates) {
        if (auto t = clip_mid(seg, bt0, bt1, g.rect)) {
          events.push_back({Event::Kind::kGate, base + *t, 0, g.input});
        }
      }
      for (const auto& e : geometry.etches) {
        if (auto t = clip_mid(seg, bt0, bt1, e)) {
          events.push_back({Event::Kind::kEtch, base + *t, 0, 0});
        }
      }
    }
    std::sort(events.begin(), events.end(), event_less);
    walk_events(events, band.doping, arena, sink);
  }
}

/// Index-accelerated tracer. Emits the same events as the naive tracer —
/// the index only prunes shapes/bands the exact clip math provably cannot
/// hit (closed, padded interval tests), and the sort normalizes
/// enumeration order — so the effect sequence is bit-identical.
///
/// All query padding lives inside the index (folded into its stored
/// bounds at build time), so this hot path compares raw coordinates only.
template <typename Sink>
void trace_indexed(const GeometryIndex& index,
                   std::span<const DVec2> polyline, util::Arena& arena,
                   Sink&& sink) {
  CNFET_REQUIRE(polyline.size() >= 2);

  // Bounding box of the whole tube, tested against the (pre-padded)
  // all-bands box one axis at a time: bands are short and wide, so most
  // Monte Carlo tubes miss on y alone and retire before any x work.
  DVec2 lo = polyline[0];
  DVec2 hi = polyline[0];
  for (const auto& p : polyline) {
    lo.y = std::min(lo.y, p.y);
    hi.y = std::max(hi.y, p.y);
  }
  if (!index.may_touch_bands_y(lo.y, hi.y)) return;
  for (const auto& p : polyline) {
    lo.x = std::min(lo.x, p.x);
    hi.x = std::max(hi.x, p.x);
  }
  if (!index.may_touch_bands_x(lo.x, hi.x)) return;

  // Candidate bands from the y-bin. Iterating set bits low-to-high visits
  // candidates in original band order — part of the bit-identity
  // contract. A band skipped by the mask yields no segment clip in the
  // naive tracer, hence only gap events, hence no effects — dropping it
  // whole is effect-equivalent to the naive per-band walk.
  std::uint64_t mask = index.bands_in_y(lo.y, hi.y);
  const auto& bands = index.bands();
  bool arena_warm = false;
  for (; mask != 0; mask &= mask - 1) {
    const auto& band = bands[static_cast<std::size_t>(std::countr_zero(mask))];

    // Candidate-count pre-pass: each (segment, contact) candidate yields
    // at most one contact event, and walk_events only emits an effect on
    // the second or later contact event of a band (the first merely
    // anchors). So fewer than two contact candidates proves this band
    // appends no effects for this tube, and its whole event/sort/walk
    // machinery can be skipped with an identical result.
    int contact_candidates = 0;
    for (std::size_t s = 0; s + 1 < polyline.size() && contact_candidates < 2;
         ++s) {
      const DVec2& a = polyline[s];
      const DVec2& b = polyline[s + 1];
      const double sx_lo = std::min(a.x, b.x);
      const double sx_hi = std::max(a.x, b.x);
      if (sx_lo > band.q_hi_x || sx_hi < band.q_lo_x) continue;
      const double sy_lo = std::min(a.y, b.y);
      const double sy_hi = std::max(a.y, b.y);
      if (sy_lo > band.q_hi_y || sy_hi < band.q_lo_y) continue;
      contact_candidates += band.contacts.count_overlapping_x(
          std::max(sx_lo, band.lo_x), std::min(sx_hi, band.hi_x));
    }
    if (contact_candidates < 2) continue;

    // Arena scratch is only claimed once a band survives the pre-pass;
    // the (common) all-bands-skipped tube never touches it.
    if (!arena_warm) {
      arena.reset();
      arena_warm = true;
    }
    util::ArenaVector<Event> events{util::ArenaAllocator<Event>(arena)};
    for (std::size_t s = 0; s + 1 < polyline.size(); ++s) {
      const Segment seg(polyline[s], polyline[s + 1]);
      // Cheap reject: the naive tracer's `!in_band` branch emits exactly
      // this gap event, so skipping the Liang-Barsky clip is free.
      const double sx_lo = std::min(seg.a().x, seg.b().x);
      const double sx_hi = std::max(seg.a().x, seg.b().x);
      const double sy_lo = std::min(seg.a().y, seg.b().y);
      const double sy_hi = std::max(seg.a().y, seg.b().y);
      if (sx_lo > band.q_hi_x || sx_hi < band.q_lo_x ||
          sy_lo > band.q_hi_y || sy_hi < band.q_lo_y) {
        events.push_back({Event::Kind::kGap, static_cast<double>(s), 0, 0});
        continue;
      }
      const auto in_band = seg.clip(band.rect);
      if (!in_band) {
        events.push_back({Event::Kind::kGap, static_cast<double>(s), 0, 0});
        continue;
      }
      const auto [bt0, bt1] = *in_band;
      const double base = static_cast<double>(s);
      if (bt0 > 0.0) events.push_back({Event::Kind::kGap, base + bt0 - 1e-9, 0, 0});
      if (bt1 < 1.0) events.push_back({Event::Kind::kGap, base + bt1 + 1e-9, 0, 0});

      // Any crossing inside [bt0, bt1] lies in the band rect AND on the
      // segment, so its x sits inside both the segment's x-range and the
      // band's x-slab; the intersection of the two (padded inside the
      // interval index) bounds every shape the clip math can hit.
      const double span_lo = std::max(sx_lo, band.lo_x);
      const double span_hi = std::min(sx_hi, band.hi_x);
      band.contacts.for_overlapping_x(
          span_lo, span_hi, [&](const IntervalIndex::Entry& c) {
            if (auto t = clip_mid(seg, bt0, bt1, c.rect)) {
              events.push_back({Event::Kind::kContact, base + *t, c.net, 0});
            }
          });
      band.gates.for_overlapping_x(
          span_lo, span_hi, [&](const IntervalIndex::Entry& g) {
            if (auto t = clip_mid(seg, bt0, bt1, g.rect)) {
              events.push_back(
                  {Event::Kind::kGate, base + *t, 0, g.gate_input});
            }
          });
      band.etches.for_overlapping_x(
          span_lo, span_hi, [&](const IntervalIndex::Entry& e) {
            if (auto t = clip_mid(seg, bt0, bt1, e.rect)) {
              events.push_back({Event::Kind::kEtch, base + *t, 0, 0});
            }
          });
    }
    std::sort(events.begin(), events.end(), event_less);
    walk_events(events, band.doping, arena, sink);
  }
}

/// Sink that materializes each effect into `effects`.
auto collect_into(std::vector<StrayEffect>& effects) {
  return [&effects](NetId a, NetId b, std::span<const StrayLink> chain) {
    effects.push_back({a, b, {chain.begin(), chain.end()}});
  };
}

}  // namespace

void trace_tube_into(const CellGeometry& geometry,
                     const std::vector<DVec2>& polyline, util::Arena& arena,
                     std::vector<StrayEffect>& effects) {
  trace_naive(geometry, polyline, arena, collect_into(effects));
}

void trace_tube_into(const GeometryIndex& index,
                     const std::vector<DVec2>& polyline, util::Arena& arena,
                     std::vector<StrayEffect>& effects) {
  trace_indexed(index, polyline, arena, collect_into(effects));
}

std::vector<StrayEffect> trace_tube(const CellGeometry& geometry,
                                    const std::vector<DVec2>& polyline) {
  std::vector<StrayEffect> effects;
  util::Arena arena;
  trace_tube_into(geometry, polyline, arena, effects);
  return effects;
}

std::vector<StrayEffect> trace_tube(const GeometryIndex& index,
                                    const std::vector<DVec2>& polyline) {
  std::vector<StrayEffect> effects;
  util::Arena arena;
  trace_tube_into(index, polyline, arena, effects);
  return effects;
}

namespace {

/// Per-worker Monte Carlo scratch (util::worker_scratch): the trial's edge
/// list, the flood's reach masks and the tracer arena. Each trial
/// overwrites them, so once warm a trial allocates nothing.
struct McScratch {
  std::vector<netlist::ConductionEdge> edges;
  std::vector<netlist::RowReach> reach;
  util::Arena arena;
};

}  // namespace

MonteCarloResult monte_carlo(const layout::CellLayout& layout,
                             const CellNetlist& cell,
                             const logic::TruthTable& function,
                             const TubeModel& model, int trials,
                             std::uint64_t seed, int num_threads,
                             TracerKind tracer) {
  CNFET_REQUIRE(trials > 0 && model.tubes_per_trial > 0);
  CNFET_REQUIRE(function.num_inputs() == cell.num_inputs());
  // Built once and shared read-only by every worker; construction also
  // proves the bands disjoint, once, instead of per analysis call.
  const GeometryIndex index(layout.geometry());
  const CellGeometry& geo = index.geometry();
  require_geometry_fits(geo, cell);
  const std::vector<netlist::ConductionEdge> base_edges =
      cell.conduction_edges();

  constexpr double kPi = 3.14159265358979323846;
  const double diag_margin = model.mean_length_lambda * geom::kLambda;
  const Rect box = layout.bbox();
  const double x_lo = static_cast<double>(box.lo().x) - diag_margin;
  const double x_hi = static_cast<double>(box.hi().x) + diag_margin;
  const double y_lo = static_cast<double>(box.lo().y) - diag_margin;
  const double y_hi = static_cast<double>(box.hi().y) + diag_margin;
  const double log_mean_length = std::log(model.mean_length_lambda);
  const double angle_sigma = model.angle_sigma_deg * kPi / 180.0;
  const double bend_sigma = model.bend_sigma_deg * kPi / 180.0;

  // Trials are independent instances; each draws from its own
  // counter-seeded stream (see header) and folds integer tallies into the
  // shared counters. Integer addition commutes, so the totals — and hence
  // the whole MonteCarloResult, histograms included — are identical for
  // every thread count.
  std::atomic<int> failing_trials{0};
  std::atomic<std::int64_t> stray_shorts{0};
  std::atomic<std::int64_t> stray_chains{0};
  util::AtomicHistogram shorts_histogram(MonteCarloResult::kHistogramBuckets);
  util::AtomicHistogram chains_histogram(MonteCarloResult::kHistogramBuckets);

  auto run_trial = [&](std::int64_t trial) {
    util::Xoshiro256 rng(
        util::derive_stream(seed, static_cast<std::uint64_t>(trial)));
    McScratch& scratch = util::worker_scratch<McScratch>();
    // Stray devices are appended to the cell's base edges as the tracer
    // reports them; fresh chain nets number past the cell's own.
    scratch.edges.assign(base_edges.begin(), base_edges.end());
    int num_nets = cell.num_nets();
    std::int64_t trial_shorts = 0;
    std::int64_t trial_chains = 0;
    const auto add_effect = [&](NetId a, NetId b,
                                std::span<const StrayLink> chain) {
      ++(chain.empty() ? trial_shorts : trial_chains);
      append_stray_edges(a, b, chain, scratch.edges, num_nets);
    };
    for (int tube = 0; tube < model.tubes_per_trial; ++tube) {
      // Random center anywhere a tube could still intersect the cell.
      const DVec2 center{rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi)};
      double angle = 0.0;
      if (rng.uniform() < model.outlier_fraction) {
        angle = rng.uniform(-kPi / 2, kPi / 2);
      } else {
        angle = rng.normal(0.0, angle_sigma);
      }
      const double len =
          std::exp(rng.normal(log_mean_length, model.length_sigma)) *
          geom::kLambda;
      const double bend = rng.normal(0.0, bend_sigma);
      // Every polyline point lies within len/2 (plus rounding slack) of
      // the center, so a tube whose reach box misses every band has no
      // effect; its draws are taken, so skipping it keeps the stream.
      const double reach = len * (0.5 + 1e-9) + 1e-6;
      if (!index.may_touch_bands({center.x - reach, center.y - reach},
                                 {center.x + reach, center.y + reach})) {
        continue;
      }

      // Two-segment polyline: half the tube on each side of the kink.
      const DVec2 dir1{std::cos(angle), std::sin(angle)};
      const DVec2 dir2{std::cos(angle + bend), std::sin(angle + bend)};
      const std::array<DVec2, 3> polyline{center - dir1 * (len / 2), center,
                                          center + dir2 * (len / 2)};
      if (tracer == TracerKind::kNaive) {
        trace_naive(geo, polyline, scratch.arena, add_effect);
      } else {
        trace_indexed(index, polyline, scratch.arena, add_effect);
      }
    }
    stray_shorts += trial_shorts;
    stray_chains += trial_chains;
    shorts_histogram.add(trial_shorts);
    chains_histogram.add(trial_chains);
    if (trial_shorts + trial_chains > 0) {
      netlist::flood_rows(scratch.edges, num_nets, scratch.reach);
      if (!netlist::judge_rows(scratch.reach, function).ok) ++failing_trials;
    }
  };

  // Trials are short (a handful of traces + one functional check), so a
  // coarse grain keeps the span-claiming traffic negligible.
  const auto ran =
      util::parallel_for(trials, run_trial, num_threads, /*grain=*/16);
  // Trials never throw on valid inputs; a captured failure here is a
  // contract violation, reported under the legacy throwing contract.
  if (!ran.ok()) throw util::Error(ran.error().to_string());

  MonteCarloResult result;
  result.trials = trials;
  result.failing_trials = failing_trials.load();
  result.tubes_sampled =
      static_cast<std::int64_t>(trials) * model.tubes_per_trial;
  result.stray_shorts = stray_shorts.load();
  result.stray_chains = stray_chains.load();
  result.shorts_histogram = shorts_histogram.counts();
  result.chains_histogram = chains_histogram.counts();
  return result;
}

}  // namespace cnfet::cnt
