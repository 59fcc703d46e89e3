// Monte Carlo tracer bench: the tentpole numbers for the spatially
// indexed CNT tracer, at three granularities:
//
//  * full pipeline — monte_carlo trials/sec at 10k/100k (1 thread) and
//    1M (hardware threads) on tier-1 cells (NAND3, AOI22), indexed vs
//    the naive all-pairs reference tracer;
//  * tracer stage — warm ns/tube through each tracer over the exact
//    tube population the model samples, isolating the indexed win from
//    pipeline costs both tracers share (tube sampling, functional
//    check). Tier-1 geometries are tiny (2 bands, ~a dozen shapes), so
//    the all-pairs scan is already cheap there and the honest stage
//    speedup is a handful of x;
//  * dense geometry — the same tracer A/B on a synthetic 16-band,
//    1024-shape geometry, where the all-pairs scan pays its O(shapes)
//    cost and the index's O(log + candidates) query is ≥10x faster.
//    This is the regime the index exists for (multi-strip cells and
//    cell arrays), scaled so the asymptotics are visible today.
//
// Identity gates, either failing is a hard (nonzero-exit) failure here
// and in scripts/check_perf.py:
//
//  * indexed ≡ naive — full MonteCarloResult (tallies AND per-trial
//    histograms) at 10k and 100k trials, plus per-tube effect-list
//    equality over every benchmark tube population (tier-1 and dense);
//  * thread-count invariance — the indexed result at 1 thread vs
//    hardware threads, full comparison, at 100k trials.
//
// Zero-allocation gate: heap allocations per warm single-thread trial
// (util/heap_count.hpp) must be 0; scripts/check_perf.py skips it when
// the binary was built without CNFET_COUNT_ALLOCS.
//
// Results merge into BENCH_perf.json as the "mc" section
// (bench_common.hpp: sections written by other benches are kept).
//
//   $ ./bench_mc              # ~a minute; updates ./BENCH_perf.json
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cnt/analyzer.hpp"
#include "layout/cells.hpp"
#include "util/heap_count.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace cnfet;
namespace json = util::json;
using bench::ms_since;
using bench::results_identical;

bool effects_identical(const std::vector<cnt::StrayEffect>& a,
                       const std::vector<cnt::StrayEffect>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b) return false;
    if (a[i].chain.size() != b[i].chain.size()) return false;
    for (std::size_t j = 0; j < a[i].chain.size(); ++j) {
      if (a[i].chain[j].gate_input != b[i].chain[j].gate_input ||
          a[i].chain[j].type != b[i].chain[j].type) {
        return false;
      }
    }
  }
  return true;
}

/// Tube population matching cnt::monte_carlo's sampling model (same
/// distributions; the draws need not be stream-identical — this only
/// shapes the benchmark population), stored flat: 3 points per tube.
std::vector<geom::DVec2> sample_tubes(const geom::Rect& box,
                                      const cnt::TubeModel& model,
                                      int count, std::uint64_t seed) {
  constexpr double kPi = 3.14159265358979323846;
  const double diag = model.mean_length_lambda * geom::kLambda;
  std::vector<geom::DVec2> flat;
  flat.reserve(static_cast<std::size_t>(count) * 3);
  util::Xoshiro256 rng(util::derive_stream(seed, 0));
  for (int i = 0; i < count; ++i) {
    const geom::DVec2 center{
        rng.uniform(static_cast<double>(box.lo().x) - diag,
                    static_cast<double>(box.hi().x) + diag),
        rng.uniform(static_cast<double>(box.lo().y) - diag,
                    static_cast<double>(box.hi().y) + diag)};
    const double angle =
        rng.uniform() < model.outlier_fraction
            ? rng.uniform(-kPi / 2, kPi / 2)
            : rng.normal(0.0, model.angle_sigma_deg * kPi / 180.0);
    const double len = std::exp(rng.normal(
                           std::log(model.mean_length_lambda),
                           model.length_sigma)) *
                       geom::kLambda;
    const double bend = rng.normal(0.0, model.bend_sigma_deg * kPi / 180.0);
    const geom::DVec2 dir1{std::cos(angle), std::sin(angle)};
    const geom::DVec2 dir2{std::cos(angle + bend), std::sin(angle + bend)};
    flat.push_back(center - dir1 * (len / 2));
    flat.push_back(center);
    flat.push_back(center + dir2 * (len / 2));
  }
  return flat;
}

struct TracerAb {
  double naive_ns_per_tube = 0.0;
  double indexed_ns_per_tube = 0.0;
  bool identical = true;

  [[nodiscard]] double speedup() const {
    return indexed_ns_per_tube > 0.0 ? naive_ns_per_tube / indexed_ns_per_tube
                                     : 0.0;
  }
};

/// Warm tracer-stage A/B over a flat tube population: per-tube effect
/// equality first (the identity gate), then timed passes with warm
/// scratch — exactly how monte_carlo drives the tracer.
TracerAb tracer_ab(const layout::CellGeometry& geometry,
                   const cnt::GeometryIndex& index,
                   const std::vector<geom::DVec2>& flat) {
  const std::size_t n = flat.size() / 3;
  util::Arena arena;
  std::vector<cnt::StrayEffect> naive_fx, indexed_fx;
  std::vector<geom::DVec2> poly(3);
  TracerAb ab;

  for (std::size_t i = 0; i < n; ++i) {
    poly[0] = flat[3 * i];
    poly[1] = flat[3 * i + 1];
    poly[2] = flat[3 * i + 2];
    naive_fx.clear();
    cnt::trace_tube_into(geometry, poly, arena, naive_fx);
    indexed_fx.clear();
    cnt::trace_tube_into(index, poly, arena, indexed_fx);
    if (!effects_identical(naive_fx, indexed_fx)) {
      ab.identical = false;
      return ab;
    }
  }

  const auto time_pass = [&](auto&& trace) {
    // One warm-up pass, then the timed pass.
    for (int round = 0; round < 2; ++round) {
      naive_fx.clear();
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        poly[0] = flat[3 * i];
        poly[1] = flat[3 * i + 1];
        poly[2] = flat[3 * i + 2];
        trace(poly);
      }
      if (round == 1) return ms_since(start) * 1e6 / static_cast<double>(n);
    }
    return 0.0;
  };
  ab.naive_ns_per_tube = time_pass([&](const std::vector<geom::DVec2>& p) {
    cnt::trace_tube_into(geometry, p, arena, naive_fx);
  });
  ab.indexed_ns_per_tube = time_pass([&](const std::vector<geom::DVec2>& p) {
    cnt::trace_tube_into(index, p, arena, naive_fx);
  });
  return ab;
}

/// Heap allocations per warm trial at one thread: the allocation delta
/// between a 2N-trial and an N-trial call, over N. Both calls pay the
/// same per-call setup, which cancels. A first 2N-trial call warms the
/// worker scratch for every trial either call runs: trial i draws the
/// same stream in all three.
double allocs_per_warm_trial(const layout::BuiltCell& built,
                             std::uint64_t seed) {
  constexpr int kTrials = 10'000;
  const auto allocs = [&](int trials) {
    const std::uint64_t before = util::heap_allocs_this_thread();
    (void)cnt::monte_carlo(built.layout, built.netlist, built.function,
                           cnt::TubeModel{}, trials, seed, 1);
    return static_cast<double>(util::heap_allocs_this_thread() - before);
  };
  (void)allocs(2 * kTrials);
  const double single = allocs(kTrials);
  return (allocs(2 * kTrials) - single) / kTrials;
}

struct CellRun {
  double naive_100k_ms = 0.0;
  double indexed_10k_ms = 0.0;
  double indexed_100k_ms = 0.0;
  double indexed_1m_ms = 0.0;  ///< at hardware threads
  TracerAb tracer;
  double allocs_per_trial = 0.0;
  bool indexed_eq_naive = true;
  bool thread_invariant = true;

  [[nodiscard]] double speedup_100k() const {
    return indexed_100k_ms > 0.0 ? naive_100k_ms / indexed_100k_ms : 0.0;
  }
  [[nodiscard]] double indexed_100k_trials_per_sec() const {
    return indexed_100k_ms > 0.0 ? 100'000 / (indexed_100k_ms / 1000.0) : 0.0;
  }
  [[nodiscard]] double indexed_1m_trials_per_sec() const {
    return indexed_1m_ms > 0.0 ? 1'000'000 / (indexed_1m_ms / 1000.0) : 0.0;
  }
};

CellRun run_cell(const std::string& name, int hardware) {
  constexpr std::uint64_t kSeed = 7;
  const auto built = layout::build_cell(layout::find_cell_spec(name));
  const auto mc = [&](int trials, int threads, cnt::TracerKind tracer,
                      cnt::MonteCarloResult* out) {
    const auto start = std::chrono::steady_clock::now();
    auto result =
        cnt::monte_carlo(built.layout, built.netlist, built.function,
                         cnt::TubeModel{}, trials, kSeed, threads, tracer);
    const double elapsed = ms_since(start);
    if (out != nullptr) *out = std::move(result);
    return elapsed;
  };

  CellRun run;
  cnt::MonteCarloResult naive_10k, naive_100k, indexed_10k, indexed_100k,
      indexed_100k_mt;
  (void)mc(10'000, 1, cnt::TracerKind::kNaive, &naive_10k);
  run.naive_100k_ms = mc(100'000, 1, cnt::TracerKind::kNaive, &naive_100k);
  run.indexed_10k_ms = mc(10'000, 1, cnt::TracerKind::kIndexed, &indexed_10k);
  run.indexed_100k_ms =
      mc(100'000, 1, cnt::TracerKind::kIndexed, &indexed_100k);
  run.indexed_1m_ms =
      mc(1'000'000, hardware, cnt::TracerKind::kIndexed, nullptr);
  (void)mc(100'000, hardware, cnt::TracerKind::kIndexed, &indexed_100k_mt);

  run.indexed_eq_naive = results_identical(indexed_10k, naive_10k) &&
                         results_identical(indexed_100k, naive_100k);
  run.thread_invariant = results_identical(indexed_100k, indexed_100k_mt);
  run.allocs_per_trial = allocs_per_warm_trial(built, kSeed);

  const cnt::GeometryIndex index(built.layout.geometry());
  const auto tubes =
      sample_tubes(built.layout.bbox(), cnt::TubeModel{}, 200'000, kSeed);
  run.tracer = tracer_ab(built.layout.geometry(), index, tubes);

  std::printf("%-8s | naive 100k %8.1f ms | indexed 100k %8.1f ms "
              "(%4.1fx, %8.0f trials/s) | 1M @ t%d %8.1f ms | tracer "
              "%5.1f -> %5.1f ns/tube (%4.1fx) | %.4f allocs/trial | eq %s "
              "| threads %s\n",
              name.c_str(), run.naive_100k_ms, run.indexed_100k_ms,
              run.speedup_100k(), run.indexed_100k_trials_per_sec(), hardware,
              run.indexed_1m_ms, run.tracer.naive_ns_per_tube,
              run.tracer.indexed_ns_per_tube, run.tracer.speedup(),
              run.allocs_per_trial,
              run.indexed_eq_naive && run.tracer.identical ? "yes" : "NO",
              run.thread_invariant ? "yes" : "NO");
  return run;
}

/// Synthetic 16-band geometry with 64 contacts and 64 gates per band:
/// the multi-strip regime the index targets. Nets and inputs are
/// arbitrary ids — the tracer only copies them into events.
layout::CellGeometry dense_geometry() {
  layout::CellGeometry geo;
  constexpr int kBands = 16;
  constexpr int kPerBand = 64;
  constexpr geom::Coord kPitchX = 2000;
  constexpr geom::Coord kPitchY = 2400;
  constexpr geom::Coord kBandH = 800;
  constexpr geom::Coord kWidth = kPerBand * kPitchX;
  for (int b = 0; b < kBands; ++b) {
    const geom::Coord y0 = b * kPitchY;
    geo.bands.push_back({geom::Rect({0, y0}, {kWidth, y0 + kBandH}),
                         b % 2 == 0 ? netlist::FetType::kN
                                    : netlist::FetType::kP});
    for (int j = 0; j < kPerBand; ++j) {
      const geom::Coord x0 = j * kPitchX;
      // Contact then gate within each pitch, both spanning the band.
      geo.contacts.push_back(
          {static_cast<netlist::NetId>(j % 6),
           geom::Rect({x0, y0 - 100}, {x0 + 400, y0 + kBandH + 100})});
      geo.gates.push_back(
          {j % 4, geom::Rect({x0 + 1000, y0 - 100},
                             {x0 + 1400, y0 + kBandH + 100})});
    }
  }
  return geo;
}

json::Value tracer_json(const TracerAb& ab) {
  json::Value v = json::Value::object();
  v.set("naive_ns_per_tube", ab.naive_ns_per_tube);
  v.set("indexed_ns_per_tube", ab.indexed_ns_per_tube);
  v.set("speedup", ab.speedup());
  v.set("identical", ab.identical);
  return v;
}

json::Value cell_json(const CellRun& run) {
  json::Value v = json::Value::object();
  v.set("naive_100k_ms", run.naive_100k_ms);
  v.set("indexed_10k_ms", run.indexed_10k_ms);
  v.set("indexed_100k_ms", run.indexed_100k_ms);
  v.set("indexed_1m_ms", run.indexed_1m_ms);
  v.set("speedup_100k", run.speedup_100k());
  v.set("indexed_100k_trials_per_sec", run.indexed_100k_trials_per_sec());
  v.set("indexed_1m_trials_per_sec", run.indexed_1m_trials_per_sec());
  v.set("tracer", tracer_json(run.tracer));
  v.set("allocs_per_trial", run.allocs_per_trial);
  v.set("indexed_eq_naive", run.indexed_eq_naive);
  v.set("thread_invariant", run.thread_invariant);
  return v;
}

}  // namespace

int main() {
  const int hardware = util::hardware_threads();
  std::printf("== mc: indexed tracer vs naive reference "
              "(hardware threads: %d) ==\n\n",
              hardware);

  const CellRun nand3 = run_cell("NAND3", hardware);
  const CellRun aoi22 = run_cell("AOI22", hardware);

  // Dense-geometry tracer A/B: where the all-pairs scan pays O(shapes).
  const auto dense = dense_geometry();
  const cnt::GeometryIndex dense_index(dense);
  geom::Rect dense_box = dense.bands.front().rect;
  for (const auto& band : dense.bands) {
    dense_box = geom::Rect(
        {std::min(dense_box.lo().x, band.rect.lo().x),
         std::min(dense_box.lo().y, band.rect.lo().y)},
        {std::max(dense_box.hi().x, band.rect.hi().x),
         std::max(dense_box.hi().y, band.rect.hi().y)});
  }
  const auto dense_tubes = sample_tubes(dense_box, cnt::TubeModel{}, 20'000, 7);
  const TracerAb dense_ab = tracer_ab(dense, dense_index, dense_tubes);
  std::printf("dense    | %zu bands, %zu contacts, %zu gates | tracer "
              "%7.1f -> %5.1f ns/tube (%4.1fx) | eq %s\n",
              dense.bands.size(), dense.contacts.size(), dense.gates.size(),
              dense_ab.naive_ns_per_tube, dense_ab.indexed_ns_per_tube,
              dense_ab.speedup(), dense_ab.identical ? "yes" : "NO");

  const double min_speedup =
      std::min(nand3.speedup_100k(), aoi22.speedup_100k());
  const double min_tracer_speedup =
      std::min(nand3.tracer.speedup(), aoi22.tracer.speedup());
  const double min_rate_100k = std::min(nand3.indexed_100k_trials_per_sec(),
                                        aoi22.indexed_100k_trials_per_sec());
  const double min_rate_1m = std::min(nand3.indexed_1m_trials_per_sec(),
                                      aoi22.indexed_1m_trials_per_sec());
  const bool identical = nand3.indexed_eq_naive && aoi22.indexed_eq_naive &&
                         nand3.tracer.identical && aoi22.tracer.identical &&
                         dense_ab.identical;
  const bool invariant = nand3.thread_invariant && aoi22.thread_invariant;

  // --- merge the "mc" section into BENCH_perf.json --------------------------
  json::Value mc = json::Value::object();
  mc.set("hardware_threads", hardware);
  mc.set("nand3", cell_json(nand3));
  mc.set("aoi22", cell_json(aoi22));
  mc.set("dense", tracer_json(dense_ab));
  mc.set("min_speedup_100k", min_speedup);
  mc.set("min_tracer_speedup", min_tracer_speedup);
  mc.set("dense_tracer_speedup", dense_ab.speedup());
  mc.set("min_indexed_100k_trials_per_sec", min_rate_100k);
  mc.set("min_indexed_1m_trials_per_sec", min_rate_1m);
  mc.set("alloc_counting", util::heap_counting_enabled());
  mc.set("allocs_per_trial",
         std::max(nand3.allocs_per_trial, aoi22.allocs_per_trial));
  mc.set("indexed_eq_naive", identical);
  mc.set("thread_invariant", invariant);
  if (!bench::merge_perf_json(bench::object({{"mc", mc}}))) return 1;

  if (!identical || !invariant) {
    std::fprintf(stderr,
                 "mc bench hard failure (indexed_eq_naive %d, "
                 "thread_invariant %d)\n",
                 identical ? 1 : 0, invariant ? 1 : 0);
    return 1;
  }
  return 0;
}
