// Multicore-scaling bench: speedup-vs-threads ladders (1/2/4/N) for the
// three parallel subsystems — cold library characterization, Monte Carlo
// mispositioning trials and api::run_batch job fan-out — plus the
// steady-state allocation counter over a warm characterization arc (the
// zero-allocation contract, measured with the counting operator new when
// the build has it).
//
// Every ladder rung is checked bit-identical to the single-thread run;
// that and allocs-per-arc == 0 are hard failures here. The speedup
// floors themselves are machine-dependent and are gated by
// scripts/check_perf.py, which skips them on hosts with fewer than 4
// hardware threads.
//
// Results merge into BENCH_perf.json as the "scaling" section
// (bench_common.hpp: sections written by other benches are kept).
//
//   $ ./bench_scaling         # a few seconds; updates ./BENCH_perf.json
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "api/batch.hpp"
#include "cnt/analyzer.hpp"
#include "layout/cells.hpp"
#include "liberty/library.hpp"
#include "util/heap_count.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using namespace cnfet;
namespace json = util::json;
using bench::best_ms;
using bench::libraries_identical;

/// One subsystem's ladder: wall ms per thread count, all rungs checked
/// bit-identical to the t=1 run.
struct Ladder {
  std::vector<int> threads;
  std::vector<double> ms;
  bool identical = true;

  [[nodiscard]] double ms_at(int t) const {
    for (std::size_t i = 0; i < threads.size(); ++i) {
      if (threads[i] == t) return ms[i];
    }
    return 0.0;
  }
  [[nodiscard]] double speedup_at(int t) const {
    const double base = ms_at(1);
    const double here = ms_at(t);
    return here > 0.0 ? base / here : 0.0;
  }
};

void print_ladder(const char* name, const Ladder& ladder) {
  std::printf("%-16s", name);
  for (std::size_t i = 0; i < ladder.threads.size(); ++i) {
    std::printf(" | t%-2d %8.1f ms (%.2fx)", ladder.threads[i], ladder.ms[i],
                ladder.speedup_at(ladder.threads[i]));
  }
  std::printf(" | identical: %s\n", ladder.identical ? "yes" : "NO");
}

json::Value ladder_json(const Ladder& ladder) {
  json::Value section = json::Value::object();
  for (std::size_t i = 0; i < ladder.threads.size(); ++i) {
    const std::string t = "t" + std::to_string(ladder.threads[i]);
    section.set(t + "_ms", ladder.ms[i]);
    if (ladder.threads[i] != 1) {
      section.set("speedup_" + t, ladder.speedup_at(ladder.threads[i]));
    }
  }
  section.set("identical", ladder.identical);
  return section;
}

}  // namespace

int main() {
  const int hardware = util::hardware_threads();
  std::vector<int> ladder_threads = {1, 2, 4};
  if (hardware > 4) ladder_threads.push_back(hardware);
  std::printf("== scaling: speedup vs threads (hardware threads: %d) ==\n\n",
              hardware);

  // --- cold characterization ladder ---------------------------------------
  liberty::CharacterizeOptions fast;
  fast.transient.tstep = 0.25e-12;
  fast.transient.tstop = 400e-12;
  Ladder char_ladder;
  liberty::Library lib_t1;
  for (const int t : ladder_threads) {
    auto options = fast;
    options.num_threads = t;
    liberty::Library lib;
    char_ladder.threads.push_back(t);
    char_ladder.ms.push_back(
        best_ms(1, [&] { lib = liberty::build_library(options); }));
    if (t == 1) {
      lib_t1 = std::move(lib);
    } else {
      char_ladder.identical =
          char_ladder.identical && libraries_identical(lib_t1, lib);
    }
  }
  print_ladder("characterize", char_ladder);

  // --- Monte Carlo ladder --------------------------------------------------
  constexpr int kTrials = 4000;
  constexpr std::uint64_t kSeed = 42;
  const auto nand3 = layout::build_cell(layout::find_cell_spec("NAND3"));
  Ladder mc_ladder;
  cnt::MonteCarloResult mc_t1;
  for (const int t : ladder_threads) {
    cnt::MonteCarloResult result;
    mc_ladder.threads.push_back(t);
    mc_ladder.ms.push_back(best_ms(2, [&] {
      result = cnt::monte_carlo(nand3.layout, nand3.netlist, nand3.function,
                                cnt::TubeModel{}, kTrials, kSeed, t);
    }));
    if (t == 1) {
      mc_t1 = result;
    } else {
      mc_ladder.identical =
          mc_ladder.identical && bench::results_identical(result, mc_t1);
    }
  }
  print_ladder("monte_carlo", mc_ladder);

  // --- run_batch ladder ----------------------------------------------------
  // Warm the per-tech caches first so the ladder times the pipeline fan-out,
  // not one-time characterization.
  (void)api::LibraryCache::global().get(layout::Tech::kCnfet65);
  (void)api::LibraryCache::global().get(layout::Tech::kCmos65);
  const auto family =
      api::family_jobs({layout::Tech::kCnfet65, layout::Tech::kCmos65});
  std::vector<api::FlowJob> jobs;
  for (int rep = 0; rep < 20; ++rep) {
    jobs.insert(jobs.end(), family.begin(), family.end());
  }
  Ladder batch_ladder;
  std::string batch_t1;
  for (const int t : ladder_threads) {
    api::BatchOptions options;
    options.num_threads = t;
    std::string rendered;
    batch_ladder.threads.push_back(t);
    batch_ladder.ms.push_back(best_ms(2, [&] {
      const auto report = api::run_batch(jobs, options);
      rendered = report.to_string() + report.merged_diagnostics().to_string();
    }));
    if (t == 1) {
      batch_t1 = rendered;
    } else {
      batch_ladder.identical =
          batch_ladder.identical && rendered == batch_t1;
    }
  }
  print_ladder("run_batch", batch_ladder);

  // --- steady-state allocations per warm characterization arc --------------
  const bool counting = util::heap_counting_enabled();
  double allocs_per_arc = 0.0;
  {
    const auto nand2 = layout::build_cell(layout::find_cell_spec("NAND2"));
    liberty::ArcScratch scratch;
    scratch.bind(nand2.netlist, fast);
    auto arc = [&] {
      return liberty::measure_arc(nand2.netlist, 0, 0b10, true, 20e-12,
                                  6e-15, fast, &scratch);
    };
    (void)arc();  // warm the scratch to steady-state capacity
    constexpr int kArcs = 16;
    const std::uint64_t before = util::heap_allocs_this_thread();
    for (int i = 0; i < kArcs; ++i) (void)arc();
    const std::uint64_t after = util::heap_allocs_this_thread();
    allocs_per_arc = static_cast<double>(after - before) / kArcs;
  }
  std::printf("allocs/arc       %.2f (counting %s)\n", allocs_per_arc,
              counting ? "on" : "off");

  // --- merge the "scaling" section into BENCH_perf.json --------------------
  json::Value scaling = json::Value::object();
  scaling.set("hardware_threads", hardware);
  scaling.set("alloc_counting", counting);
  scaling.set("allocs_per_arc", allocs_per_arc);
  scaling.set("characterization", ladder_json(char_ladder));
  scaling.set("monte_carlo", ladder_json(mc_ladder));
  scaling.set("run_batch", ladder_json(batch_ladder));
  if (!bench::merge_perf_json(bench::object({{"scaling", scaling}}))) {
    return 1;
  }

  const bool all_identical = char_ladder.identical && mc_ladder.identical &&
                             batch_ladder.identical;
  const bool allocs_ok = !counting || allocs_per_arc == 0.0;
  if (!all_identical || !allocs_ok) {
    std::fprintf(stderr,
                 "scaling bench hard failure (identical: char %d mc %d "
                 "batch %d; allocs/arc %.2f)\n",
                 char_ladder.identical ? 1 : 0, mc_ladder.identical ? 1 : 0,
                 batch_ladder.identical ? 1 : 0, allocs_per_arc);
    return 1;
  }
  return 0;
}
