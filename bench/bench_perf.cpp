// E8 — performance harness: times the solver hot paths (single-arc
// transient, cold library characterization) under the seed engine
// (fixed-step, finite-difference Jacobian) vs the fast engine (adaptive,
// analytic Jacobian), the parallel characterization grid, the incremental
// timing graph (single-gate edit re-time vs full rebuild on the paper's
// buffered full adder, with a bit-for-bit equivalence check and a 10x
// floor), the library disk cache (cold serial characterization vs a
// versioned-JSON load, NLDM-exact with its own 10x floor), and the two
// parallel-subsystem paths from PR 2 (cnt::monte_carlo trial sharding,
// api::run_batch job fan-out).
// Verifies the fast engine stays inside the accuracy-equivalence contract
// (delays within 1%, per-cycle energies within 2% of the seed engine) and
// that parallel results are identical to serial, then merges its
// sections into BENCH_perf.json (bench_common.hpp: sections written by
// other benches are kept) so the perf trajectory is machine-readable
// (scripts/check_perf.py gates on it).
//
//   $ ./bench_perf            # ~15 s; updates ./BENCH_perf.json
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "api/batch.hpp"
#include "api/serialize.hpp"
#include "cnt/analyzer.hpp"
#include "layout/cells.hpp"
#include "liberty/library.hpp"
#include "sta/timing_graph.hpp"
#include "util/parallel.hpp"

namespace {

using namespace cnfet;
using bench::best_ms;

struct Timing {
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;

  [[nodiscard]] double speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
};

void print_timing(const char* name, const Timing& t) {
  std::printf("%-12s serial %8.1f ms | parallel %8.1f ms | speedup %.2fx | "
              "results identical: %s\n",
              name, t.serial_ms, t.parallel_ms, t.speedup(),
              t.identical ? "yes" : "NO");
}

}  // namespace

int main() {
  using namespace cnfet;
  const int threads = util::hardware_threads();
  std::printf("== E8 / perf: serial vs %d-thread wall time ==\n\n", threads);

  // --- single-arc transient: seed engine vs fast engine -------------------
  liberty::CharacterizeOptions seed_engine;
  seed_engine.transient.adaptive = false;
  seed_engine.transient.analytic_jacobian = false;
  seed_engine.num_threads = 1;
  liberty::CharacterizeOptions fast_serial = seed_engine;
  fast_serial.transient = {};
  fast_serial.transient.tstep = 0.25e-12;
  fast_serial.transient.tstop = 400e-12;
  const liberty::CharacterizeOptions fast_parallel = [&] {
    auto o = fast_serial;
    o.num_threads = 0;  // one worker per hardware thread
    return o;
  }();

  const auto nand2 = layout::build_cell(layout::find_cell_spec("NAND2"));
  auto one_arc = [&](const liberty::CharacterizeOptions& o, bool rising) {
    return liberty::measure_arc(nand2.netlist, 0, 0b10, rising, 20e-12,
                                6e-15, o);
  };
  double tran_seed_ms = best_ms(5, [&] { (void)one_arc(seed_engine, true); });
  double tran_fast_ms = best_ms(5, [&] { (void)one_arc(fast_serial, true); });
  double tran_delay_err = 0.0;
  double e_cycle_seed = 0.0;
  double e_cycle_fast = 0.0;
  for (const bool rising : {true, false}) {
    const auto ms = one_arc(seed_engine, rising);
    const auto mf = one_arc(fast_serial, rising);
    tran_delay_err = std::max(tran_delay_err,
                              std::fabs(mf.delay - ms.delay) / ms.delay);
    e_cycle_seed += ms.energy;
    e_cycle_fast += mf.energy;
  }
  const double tran_energy_err =
      std::fabs(e_cycle_fast - e_cycle_seed) / std::fabs(e_cycle_seed);
  const double tran_speedup =
      tran_fast_ms > 0.0 ? tran_seed_ms / tran_fast_ms : 0.0;
  const bool tran_ok = tran_delay_err <= 0.01 && tran_energy_err <= 0.02;
  std::printf("transient    seed %8.3f ms | fast %8.3f ms | speedup %.2fx | "
              "delay err %.3f%% energy err %.3f%%\n",
              tran_seed_ms, tran_fast_ms, tran_speedup, 100 * tran_delay_err,
              100 * tran_energy_err);

  // --- cold characterization: seed vs fast engine, serial vs parallel -----
  liberty::Library lib_seed;
  liberty::Library lib_fast;
  liberty::Library lib_par;
  const double char_seed_ms =
      best_ms(1, [&] { lib_seed = liberty::build_library(seed_engine); });
  const double char_fast_ms =
      best_ms(1, [&] { lib_fast = liberty::build_library(fast_serial); });
  const double char_par_ms =
      best_ms(1, [&] { lib_par = liberty::build_library(fast_parallel); });

  // Accuracy of the fast engine across every cell/arc/grid point, and
  // bit-stability of the parallel grid against the serial one. The grid
  // delay bound is dual: 2% relative OR 0.15ps absolute (half a seed
  // step), because the seed reference itself is only half-a-step accurate
  // — at sub-picosecond delays a 4x-refined seed run agrees with the
  // adaptive engine, not with the seed's own 0.25ps march.
  double char_delay_err = 0.0;
  double char_delay_abs = 0.0;
  bool char_delay_ok = true;
  double char_energy_err = 0.0;
  for (std::size_t c = 0; c < lib_seed.cells().size(); ++c) {
    const auto& cs = lib_seed.cells()[c];
    const auto& cf = lib_fast.cells()[c];
    for (std::size_t a = 0; a < cs.arcs.size(); ++a) {
      const auto& slews = cs.arcs[a].delay.slews();
      const auto& loads = cs.arcs[a].delay.loads();
      // Rise/fall arcs of one input are adjacent; pair them so energy is
      // compared per full cycle (the half-cycle where the supply only
      // feeds short-circuit current is noise-scale on its own).
      const std::size_t pair = a ^ 1u;
      for (std::size_t si = 0; si < slews.size(); ++si) {
        for (std::size_t li = 0; li < loads.size(); ++li) {
          const double ds = cs.arcs[a].delay.at(si, li);
          const double df = cf.arcs[a].delay.at(si, li);
          char_delay_err =
              std::max(char_delay_err, std::fabs(df - ds) / ds);
          char_delay_abs = std::max(char_delay_abs, std::fabs(df - ds));
          char_delay_ok = char_delay_ok &&
                          std::fabs(df - ds) <= std::max(0.02 * ds, 0.15e-12);
          const double es = cs.arcs[a].energy.at(si, li) +
                            cs.arcs[pair].energy.at(si, li);
          const double ef = cf.arcs[a].energy.at(si, li) +
                            cf.arcs[pair].energy.at(si, li);
          char_energy_err =
              std::max(char_energy_err, std::fabs(ef - es) / std::fabs(es));
        }
      }
    }
  }
  const bool char_identical = bench::libraries_identical(lib_fast, lib_par);
  const double char_speedup =
      char_fast_ms > 0.0 ? char_seed_ms / char_fast_ms : 0.0;
  const double char_par_speedup =
      char_par_ms > 0.0 ? char_seed_ms / char_par_ms : 0.0;
  const bool char_ok =
      char_delay_ok && char_energy_err <= 0.02 && char_identical;
  std::printf("characterize seed %8.1f ms | fast %8.1f ms | speedup %.2fx | "
              "parallel %8.1f ms (%.2fx) | delay err %.3f%% (%.4fps abs) "
              "energy err %.3f%% | parallel identical: %s\n",
              char_seed_ms, char_fast_ms, char_speedup, char_par_ms,
              char_par_speedup, 100 * char_delay_err, char_delay_abs * 1e12,
              100 * char_energy_err, char_identical ? "yes" : "NO");

  // --- library disk cache: cold characterization vs JSON load -------------
  // The disk tier (api::LibraryCache::set_cache_dir) replaces the whole
  // transient characterization grid with a parse plus a deterministic
  // geometry rebuild; the acceptance floor is a 10x win over *serial*
  // characterization, checked against the fast-serial library measured
  // above. Tables must load back exactly — a disk hit has to be
  // indistinguishable from the in-memory build.
  const char* cache_file = "BENCH_library_cache.json";
  const auto lib_saved = api::save_library(lib_fast, cache_file);
  if (!lib_saved.ok()) {
    std::printf("library save failed: %s\n",
                lib_saved.error().to_string().c_str());
    return 1;
  }
  api::LibraryHandle lib_loaded;
  const double cache_load_ms = best_ms(5, [&] {
    auto loaded = api::load_library(cache_file);
    lib_loaded = loaded.ok() ? loaded.value() : nullptr;
  });
  const bool cache_exact =
      lib_loaded != nullptr &&
      bench::libraries_identical(lib_fast, *lib_loaded);
  std::remove(cache_file);
  const double cache_speedup =
      cache_load_ms > 0.0 ? char_fast_ms / cache_load_ms : 0.0;
  const bool cache_ok = cache_exact && cache_speedup >= 10.0;
  std::printf("library_cache characterize %8.1f ms | disk load %8.3f ms | "
              "speedup %.1fx | tables exact: %s\n",
              char_fast_ms, cache_load_ms, cache_speedup,
              cache_exact ? "yes" : "NO");

  // Warm the per-tech library cache so run_batch timings measure the
  // pipeline, not one-time characterization.
  const auto cnfet_lib =
      api::LibraryCache::global().get(layout::Tech::kCnfet65).value();
  (void)api::LibraryCache::global().get(layout::Tech::kCmos65);

  // --- timing graph: full rebuild vs incremental re-time ------------------
  // The paper's drawn full adder (9 NAND2 + sum/carry buffer pairs). One
  // sizing edit — the final sum buffer swapped between drives — against a
  // from-scratch TimingGraph build, which is what every what-if paid
  // before the incremental graph existed.
  flow::FullAdderOptions paper_sizing;
  paper_sizing.sum_buffer_drive = 9.0;
  paper_sizing.carry_buffer_drive = 7.0;
  auto adder = flow::build_full_adder(*cnfet_lib, paper_sizing);
  const auto* inv7 = &cnfet_lib->find("INV_7X");
  const auto* inv9 = &cnfet_lib->find("INV_9X");
  const int sum_gate = adder.driver_index(adder.outputs()[0]);
  constexpr int kFullReps = 2000;
  constexpr int kEditReps = 20000;
  const double tg_full_ms = best_ms(5, [&] {
                              for (int i = 0; i < kFullReps; ++i) {
                                sta::TimingGraph fresh(adder);
                                (void)fresh.worst_arrival();
                              }
                            }) /
                            kFullReps;
  sta::TimingGraph graph(adder);
  (void)graph.worst_arrival();
  const double tg_incr_ms = best_ms(5, [&] {
                              for (int i = 0; i < kEditReps; ++i) {
                                adder.resize_gate(sum_gate,
                                                  (i & 1) ? inv7 : inv9);
                                graph.on_gate_replaced(sum_gate);
                                (void)graph.worst_arrival();
                              }
                            }) /
                            kEditReps;
  const bool tg_identical = graph.matches_full_rebuild();
  const double tg_speedup = tg_incr_ms > 0.0 ? tg_full_ms / tg_incr_ms : 0.0;
  const bool tg_ok = tg_identical && tg_speedup >= 10.0;
  std::printf("timing_graph full rebuild %8.2f us | incremental edit %8.2f us "
              "| speedup %.2fx | incremental==full: %s\n",
              tg_full_ms * 1e3, tg_incr_ms * 1e3, tg_speedup,
              tg_identical ? "yes" : "NO");

  // --- Monte Carlo: trials shard across workers ---------------------------
  constexpr int kTrials = 6000;
  constexpr std::uint64_t kSeed = 42;
  const auto built = layout::build_cell(layout::find_cell_spec("NAND3"));
  auto run_mc = [&](int num_threads) {
    return cnt::monte_carlo(built.layout, built.netlist, built.function,
                            cnt::TubeModel{}, kTrials, kSeed, num_threads);
  };
  Timing mc;
  cnt::MonteCarloResult mc_serial;
  cnt::MonteCarloResult mc_parallel;
  mc.serial_ms = best_ms(3, [&] { mc_serial = run_mc(1); });
  mc.parallel_ms = best_ms(3, [&] { mc_parallel = run_mc(threads); });
  mc.identical = bench::results_identical(mc_serial, mc_parallel);
  print_timing("monte_carlo", mc);

  // --- run_batch: the Table-1 family under both technologies -------------
  // One family pass is sub-millisecond against a warm library, so repeat
  // it until the wall time dominates pool startup (the job list models a
  // regression batch re-running the family many times).
  const auto family = api::family_jobs(
      {layout::Tech::kCnfet65, layout::Tech::kCmos65});
  std::vector<api::FlowJob> jobs;
  for (int rep = 0; rep < 40; ++rep) {
    jobs.insert(jobs.end(), family.begin(), family.end());
  }
  auto run_jobs = [&](int num_threads) {
    api::BatchOptions options;
    options.num_threads = num_threads;
    return api::run_batch(jobs, options);
  };
  Timing batch;
  std::string batch_serial;
  std::string batch_parallel;
  batch.serial_ms = best_ms(2, [&] {
    const auto report = run_jobs(1);
    batch_serial = report.to_string() + report.merged_diagnostics().to_string();
  });
  batch.parallel_ms = best_ms(2, [&] {
    const auto report = run_jobs(threads);
    batch_parallel =
        report.to_string() + report.merged_diagnostics().to_string();
  });
  batch.identical = batch_serial == batch_parallel;
  print_timing("run_batch", batch);

  // --- machine-readable trajectory ---------------------------------------
  using bench::object;
  const bool merged = bench::merge_perf_json(object({
      {"threads", threads},
      {"transient_single_arc",
       object({{"cell", "NAND2"},
               {"seed_ms", tran_seed_ms},
               {"fast_ms", tran_fast_ms},
               {"speedup", tran_speedup},
               {"delay_rel_err", tran_delay_err},
               {"energy_rel_err", tran_energy_err},
               {"within_tolerance", tran_ok}})},
      {"characterization",
       object({{"cells", lib_seed.cells().size()},
               {"seed_serial_ms", char_seed_ms},
               {"fast_serial_ms", char_fast_ms},
               {"serial_speedup", char_speedup},
               {"fast_parallel_ms", char_par_ms},
               {"parallel_speedup", char_par_speedup},
               {"delay_rel_err", char_delay_err},
               {"delay_abs_err_ps", char_delay_abs * 1e12},
               {"delay_within_bounds", char_delay_ok},
               {"energy_rel_err", char_energy_err},
               {"parallel_identical", char_identical}})},
      {"library_cache",
       object({{"characterize_serial_ms", char_fast_ms},
               {"disk_load_ms", cache_load_ms},
               {"speedup", cache_speedup},
               {"tables_exact", cache_exact}})},
      {"timing_graph",
       object({{"circuit", "full_adder_9nand_buffered"},
               {"gates", adder.gates().size()},
               {"full_rebuild_us", tg_full_ms * 1e3},
               {"incremental_edit_us", tg_incr_ms * 1e3},
               {"speedup", tg_speedup},
               {"identical", tg_identical}})},
      {"monte_carlo",
       object({{"cell", "NAND3"},
               {"trials", kTrials},
               {"serial_ms", mc.serial_ms},
               {"parallel_ms", mc.parallel_ms},
               {"speedup", mc.speedup()},
               {"trials_per_sec_serial", 1000.0 * kTrials / mc.serial_ms},
               {"trials_per_sec_parallel", 1000.0 * kTrials / mc.parallel_ms},
               {"identical", mc.identical}})},
      {"run_batch",
       object({{"jobs", jobs.size()},
               {"serial_ms", batch.serial_ms},
               {"parallel_ms", batch.parallel_ms},
               {"speedup", batch.speedup()},
               {"identical", batch.identical}})},
  }));
  if (!merged) return 1;

  // Equivalence and accuracy are hard requirements; speedup depends on the
  // host's cores (scripts/check_perf.py gates the speedups separately).
  // The timing-graph incremental==full equivalence and its 10x floor are
  // in-run ratios, so they gate here too.
  return (mc.identical && batch.identical && tran_ok && char_ok && tg_ok &&
          cache_ok)
             ? 0
             : 1;
}
