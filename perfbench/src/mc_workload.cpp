// mc_tier1: the paper's mispositioned-tube yield. cnt::monte_carlo with
// the default TubeModel, one thread, on NAND3 and AOI22. The whole run is
// in cnt; no flow layer runs.
//
// One operation is a pair of monte_carlo calls (NAND3 then AOI22) of
// kTrialsPerCall trials each, seeded from the benchmark seed and the
// operation index. The traced run times the trial pipeline per cell, the
// tracer stage alone over the model's tube population, the index build,
// the straight-tube proof, and heap allocations per trial.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "cnt/analyzer.hpp"
#include "cnt/geometry_index.hpp"
#include "common.hpp"
#include "layout/cells.hpp"
#include "util/arena.hpp"
#include "util/heap_count.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace cnfet;

const std::vector<std::string> kCells = {"NAND3", "AOI22"};

std::vector<layout::BuiltCell> build_cells(Tracer& tracer) {
  std::vector<layout::BuiltCell> cells;
  for (const auto& name : kCells) {
    timed_span(tracer, "layout.build_cell", [&] {
      cells.push_back(layout::build_cell(layout::find_cell_spec(name)));
    });
  }
  return cells;
}

cnt::MonteCarloResult run_mc(const layout::BuiltCell& cell, int trials,
                             std::uint64_t seed,
                             cnt::TracerKind tracer = cnt::TracerKind::kIndexed) {
  return cnt::monte_carlo(cell.layout, cell.netlist, cell.function,
                          cnt::TubeModel{}, trials, seed, /*num_threads=*/1,
                          tracer);
}

bool identical(const cnt::MonteCarloResult& a, const cnt::MonteCarloResult& b) {
  return a.trials == b.trials && a.failing_trials == b.failing_trials &&
         a.tubes_sampled == b.tubes_sampled &&
         a.stray_shorts == b.stray_shorts &&
         a.stray_chains == b.stray_chains &&
         a.shorts_histogram == b.shorts_histogram &&
         a.chains_histogram == b.chains_histogram;
}

/// Internal consistency of one result's tallies; empty when consistent.
std::string tally_problem(const cnt::MonteCarloResult& r, int trials) {
  const auto sum = [](const std::vector<std::int64_t>& h) {
    std::int64_t total = 0;
    for (const auto v : h) total += v;
    return total;
  };
  if (r.trials != trials) return "trial count differs from the request";
  if (r.failing_trials < 0 || r.failing_trials > r.trials) {
    return "failing trials out of range";
  }
  if (r.tubes_sampled !=
      static_cast<std::int64_t>(trials) * cnt::TubeModel{}.tubes_per_trial) {
    return "tubes sampled differs from trials x tubes per trial";
  }
  if (sum(r.shorts_histogram) != trials || sum(r.chains_histogram) != trials) {
    return "histograms do not partition the trials";
  }
  return {};
}

/// The first operation's results against the naive all-pairs tracer on
/// the same trials: the indexed tracer must reproduce it exactly.
void check_against_naive(const std::vector<layout::BuiltCell>& cells,
                         const std::vector<cnt::MonteCarloResult>& indexed,
                         int trials, std::uint64_t seed, Fault fault,
                         Tally& tally) {
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cnt::MonteCarloResult got = indexed[c];
    if (fault == Fault::kPerturbTally) ++got.failing_trials;
    const auto naive = run_mc(cells[c], trials, seed, cnt::TracerKind::kNaive);
    tally.record(identical(got, naive),
                 kCells[c] + ": indexed Monte Carlo differs from the naive "
                             "tracer on the same trials");
  }
}

/// Tube population drawn from the TubeModel's distributions (the draws
/// need not match monte_carlo's streams; this shapes the tracer-stage
/// population), three polyline points per tube.
std::vector<geom::DVec2> sample_tubes(const geom::Rect& box, int count,
                                      std::uint64_t seed) {
  constexpr double kPi = 3.14159265358979323846;
  const cnt::TubeModel model;
  const double reach = model.mean_length_lambda * geom::kLambda;
  std::vector<geom::DVec2> points;
  points.reserve(static_cast<std::size_t>(count) * 3);
  util::Xoshiro256 rng(util::derive_stream(seed, 0));
  for (int i = 0; i < count; ++i) {
    const geom::DVec2 center{
        rng.uniform(static_cast<double>(box.lo().x) - reach,
                    static_cast<double>(box.hi().x) + reach),
        rng.uniform(static_cast<double>(box.lo().y) - reach,
                    static_cast<double>(box.hi().y) + reach)};
    const double angle =
        rng.uniform() < model.outlier_fraction
            ? rng.uniform(-kPi / 2, kPi / 2)
            : rng.normal(0.0, model.angle_sigma_deg * kPi / 180.0);
    const double length = std::exp(rng.normal(std::log(model.mean_length_lambda),
                                              model.length_sigma)) *
                          geom::kLambda;
    const double bend = rng.normal(0.0, model.bend_sigma_deg * kPi / 180.0);
    const geom::DVec2 first{std::cos(angle), std::sin(angle)};
    const geom::DVec2 second{std::cos(angle + bend), std::sin(angle + bend)};
    points.push_back(center - first * (length / 2));
    points.push_back(center);
    points.push_back(center + second * (length / 2));
  }
  return points;
}

/// Warm ns per tube of the indexed tracer over `points`.
double trace_ns_per_tube(const cnt::GeometryIndex& index,
                         const std::vector<geom::DVec2>& points,
                         Tracer& tracer) {
  util::Arena arena;
  std::vector<cnt::StrayEffect> effects;
  std::vector<geom::DVec2> polyline(3);
  const std::size_t tubes = points.size() / 3;
  const auto pass = [&] {
    for (std::size_t i = 0; i < tubes; ++i) {
      polyline[0] = points[3 * i];
      polyline[1] = points[3 * i + 1];
      polyline[2] = points[3 * i + 2];
      effects.clear();
      cnt::trace_tube_into(index, polyline, arena, effects);
    }
  };
  pass();  // warm the arena and the effect buffer
  return timed_span(tracer, "cnt.trace_tube", pass) * 1e9 /
         static_cast<double>(tubes);
}

/// Trials per monte_carlo call in the timed loop. On a shared host one
/// thread's speed switches between levels about 30% apart, in spells
/// longer than a 30 ms operation of 2,000-trial calls: such operations
/// each land in one level, and their median jumped between the levels
/// from run to run. An operation of 20,000-trial calls (about 300 ms)
/// averages over more of the switching, and a 15 s run still holds about
/// 50 operations.
constexpr int kTrialsPerCall = 20000;

/// Fresh processes mc_tier1's setup_s averages over.
constexpr int kSetupProcesses = 20;

/// mc_tier1's setup_s. A cell build runs at one of two speeds (about 16
/// and 25 us on the reference host) and keeps it for the life of the
/// process, so no repetition inside one process samples both. This is
/// the mean over kSetupProcesses fresh processes of each one's
/// mc_setup_probe_s(); the mean, because the median of a two-level sample
/// jumps between the levels.
double setup_over_processes() {
  char self[4096];
  const ssize_t length = readlink("/proc/self/exe", self, sizeof self - 1);
  if (length <= 0) throw util::Error("cannot locate the benchmark binary");
  const std::string path(self, static_cast<std::size_t>(length));
  if (path.find('\'') != std::string::npos) {
    throw util::Error("benchmark binary path holds a quote: " + path);
  }
  const std::string command = "'" + path + "' --mc-setup-probe";
  double total = 0.0;
  for (int p = 0; p < kSetupProcesses; ++p) {
    FILE* child = popen(command.c_str(), "r");
    if (child == nullptr) throw util::Error("cannot start " + command);
    double seconds = 0.0;
    const int parsed = std::fscanf(child, "%lf", &seconds);
    const int status = pclose(child);
    if (parsed != 1 || status != 0 || !(seconds > 0.0)) {
      throw util::Error("setup probe process failed: " + command);
    }
    total += seconds;
  }
  return total / kSetupProcesses;
}

void run_untraced(const RunOptions& options, WorkloadResult& result) {
  Tracer off(false);
  const double setup = setup_over_processes();
  const std::vector<layout::BuiltCell> cells = build_cells(off);

  const int trials = options.tiny ? 50 : kTrialsPerCall;
  std::vector<double> op_s;
  std::vector<cnt::MonteCarloResult> first;
  double measured = 0.0;
  std::int64_t total_trials = 0;
  for (std::uint64_t i = 0; measured < options.seconds; ++i) {
    const std::uint64_t seed = util::derive_stream(options.seed, i);
    std::vector<cnt::MonteCarloResult> results;
    const auto start = Clock::now();
    for (const auto& cell : cells) results.push_back(run_mc(cell, trials, seed));
    const double elapsed = seconds_between(start, Clock::now());
    op_s.push_back(elapsed);
    measured += elapsed;
    total_trials += static_cast<std::int64_t>(trials) *
                    static_cast<std::int64_t>(cells.size());
    std::string problem;
    for (std::size_t c = 0; c < cells.size() && problem.empty(); ++c) {
      problem = tally_problem(results[c], trials);
      if (!problem.empty()) problem = kCells[c] + ": " + problem;
    }
    result.tally.record(problem.empty(), problem);
    if (i == 0) first = std::move(results);
  }
  check_against_naive(cells, first, trials,
                      util::derive_stream(options.seed, 0), options.fault,
                      result.tally);
  std::printf("mc_tier1: %zu operations of %d trials per cell, "
              "%.0f trials/s\n",
              op_s.size(), trials, static_cast<double>(total_trials) / measured);

  result.metrics.set("setup_s", setup);
  result.metrics.set("latency_p50_ms", median(op_s) * 1e3);
  result.metrics.set("latency_p99_ms", tail_latency(op_s) * 1e3);
  result.metrics.set("throughput_per_s",
                     static_cast<double>(total_trials) / measured);
  result.metrics.set("peak_rss_mb", peak_rss_mb());
}

void run_traced(const RunOptions& options, Tracer& tracer,
                WorkloadResult& result) {
  Metrics& metrics = result.metrics;
  const std::vector<layout::BuiltCell> cells = build_cells(tracer);
  const int trials = options.tiny ? 200 : 20000;
  const int tubes = options.tiny ? 2000 : 100000;
  const int index_reps = options.tiny ? 20 : 500;

  double trace_ns = 0.0, trial_ns = 0.0, index_us = 0.0;
  std::int64_t effects = 0, allocs = 0, all_trials = 0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const layout::BuiltCell& cell = cells[c];
    std::vector<double> build_us;
    {
      ScopedSpan span(tracer, "cnt.index_build");
      for (int rep = 0; rep < index_reps; ++rep) {
        const auto start = Clock::now();
        const cnt::GeometryIndex index(cell.layout.geometry());
        build_us.push_back(seconds_between(start, Clock::now()) * 1e6);
      }
    }
    index_us += median(build_us);

    timed_span(tracer, "cnt.check_exact", [&] {
      const auto report =
          cnt::check_exact(cell.layout, cell.netlist, cell.function);
      result.tally.record(report.immune, kCells[c] + " is not immune");
    });

    const std::uint64_t seed = util::derive_stream(options.seed, c);
    (void)run_mc(cell, 100, seed + 1);  // warm the per-worker scratch
    const std::uint64_t allocs_before = util::heap_allocs_this_thread();
    cnt::MonteCarloResult mc;
    const double mc_s = timed_span(tracer, "cnt.monte_carlo",
                                   [&] { mc = run_mc(cell, trials, seed); });
    allocs += static_cast<std::int64_t>(util::heap_allocs_this_thread() -
                                        allocs_before);
    const std::string problem = tally_problem(mc, trials);
    result.tally.record(problem.empty(), kCells[c] + ": " + problem);
    effects += mc.stray_shorts + mc.stray_chains;
    all_trials += trials;
    std::string key = kCells[c];
    for (auto& ch : key) ch = static_cast<char>(std::tolower(ch));
    metrics.set("cnt.trials_per_s." + key, trials / mc_s);
    trial_ns += mc_s * 1e9 / trials;

    const cnt::GeometryIndex index(cell.layout.geometry());
    trace_ns += trace_ns_per_tube(
        index, sample_tubes(cell.layout.bbox(), tubes, seed), tracer);
  }
  const double n = static_cast<double>(cells.size());
  metrics.set("cnt.check_exact_s", tracer.total_seconds("cnt.check_exact"));
  metrics.set("cnt.trial_ns", trial_ns / n);
  metrics.set("cnt.trace_ns_per_tube", trace_ns / n);
  const int tubes_per_trial = cnt::TubeModel{}.tubes_per_trial;
  metrics.set("cnt.trace_share", tubes_per_trial * trace_ns / trial_ns);
  metrics.set("cnt.index_build_us", index_us / n);
  metrics.set("cnt.effects_per_trial",
              static_cast<double>(effects) / static_cast<double>(all_trials));
  metrics.set("cnt.allocs_per_trial",
              static_cast<double>(allocs) / static_cast<double>(all_trials));
  std::printf("trace share: %d tubes x %.1f ns per tube / %.1f ns per trial "
              "= %.4f\n",
              tubes_per_trial, trace_ns / n, trial_ns / n,
              metrics.get("cnt.trace_share"));

  // Equivalence on a trial prefix (not timed).
  const int prefix = options.tiny ? 50 : 2000;
  const std::uint64_t seed = util::derive_stream(options.seed, 0);
  std::vector<cnt::MonteCarloResult> indexed;
  for (const auto& cell : cells) indexed.push_back(run_mc(cell, prefix, seed));
  check_against_naive(cells, indexed, prefix, seed, options.fault,
                      result.tally);
}

}  // namespace

double mc_setup_probe_s() {
  Tracer off(false);
  std::vector<double> build_s;
  for (int rep = 0; rep < 100; ++rep) {
    const auto start = Clock::now();
    const std::vector<layout::BuiltCell> cells = build_cells(off);
    build_s.push_back(seconds_between(start, Clock::now()));
  }
  return median(build_s);
}

void run_mc_workload(const RunOptions& options, Tracer& tracer,
                     WorkloadResult& result) {
  if (options.trace) {
    run_traced(options, tracer, result);
  } else {
    run_untraced(options, result);
  }
}

}  // namespace perfbench
