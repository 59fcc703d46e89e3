// Wire-aware signoff bench: the grid router + Elmore extraction at the
// paper's 13-gate full adder and at the 10k-gate at-scale tier.
//
// Workloads:
//   * fa13   — the buffered full adder (9 NANDs + two 2-inverter output
//     buffers = 13 gates): the paper-scale shape, timed over many reps
//   * rca10k — a 1112-bit ripple-carry adder (10008 gates, ~12k nets):
//     the structured at-scale shape (uniform-random DAGs have no
//     locality, so their bisection width outgrows any fixed-layer
//     fabric; routing targets structured designs, like real netlists)
//
// Per workload: total wirelength, nets/sec through route()+extract(), the
// wire DRC deck's time (check_routes_ms) beside route()'s, the whole
// routed api::Flow from from_netlist to Exported (e2e_ms), and the
// routed-vs-ideal worst-arrival delta from re-timing with the extracted
// wire loads. Hard gates (scripts/check_perf.py --only route): 100%
// connectivity on both workloads, the independent open/short oracle
// clean, the wire DRC deck clean, byte-determinism of a repeated route,
// routed timing never more optimistic than the ideal-net reference, every
// e2e flow reaching Exported clean, the deck no slower than route() on
// rca10k, and the routed 10k-gate compile under its absolute ceiling.
//
// Results merge into BENCH_perf.json as the "route" section (same
// read-modify-write contract as bench_mc: existing sections are kept).
//
//   $ ./bench_route           # a few seconds; updates ./BENCH_perf.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "api/flow.hpp"
#include "core/design_kit.hpp"
#include "drc/drc.hpp"
#include "gen/gen.hpp"
#include "route/extract.hpp"
#include "route/router.hpp"
#include "sta/timing_graph.hpp"
#include "util/json.hpp"

namespace {

using namespace cnfet;
namespace json = util::json;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Workload {
  const char* name;
  flow::GateNetlist netlist;
  int reps;      ///< route/extract/check_routes repetitions (best kept)
  int e2e_reps;  ///< whole routed flows (best kept)
};

struct Measured {
  std::size_t gates = 0;
  int nets = 0;
  double wirelength_lambda = 0.0;
  double nets_per_sec = 0.0;
  double route_ms = 0.0;
  double route_extract_ms = 0.0;
  double check_routes_ms = 0.0;
  double e2e_ms = 0.0;
  double ideal_ps = 0.0;
  double routed_ps = 0.0;
  bool complete = false;
  bool verify_ok = false;
  bool drc_clean = false;
  bool deterministic = false;
  bool e2e_ok = false;  ///< every timed flow reached Exported wire-DRC clean

  [[nodiscard]] double wire_delay_ps() const { return routed_ps - ideal_ps; }
};

Measured measure(Workload& w, const layout::DesignRules& rules) {
  Measured m;
  m.gates = w.netlist.gates().size();
  m.nets = w.netlist.num_nets();
  const auto placement = flow::place(w.netlist);

  const auto routing = route::route(w.netlist, placement, rules);
  m.complete = routing.complete();
  m.wirelength_lambda = routing.total_wirelength_lambda;
  m.verify_ok = route::verify(w.netlist, placement, routing, rules).ok();
  m.drc_clean = drc::check_routes(routing, rules).clean();
  m.deterministic = route::route(w.netlist, placement, rules) == routing;

  const auto extraction = route::extract(w.netlist, routing, rules);
  sta::TimingGraph ideal(w.netlist);
  sta::TimingGraph wired(w.netlist, {}, 0.0,
                         extraction.to_wire_loads(w.netlist));
  m.ideal_ps = ideal.worst_arrival() * 1e12;
  m.routed_ps = wired.worst_arrival() * 1e12;

  m.route_ms = m.route_extract_ms = m.check_routes_ms = 1e300;
  for (int r = 0; r < w.reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const auto rerouted = route::route(w.netlist, placement, rules);
    const double routed_ms = ms_since(start);
    (void)route::extract(w.netlist, rerouted, rules);
    const double extracted_ms = ms_since(start);
    const auto deck_start = std::chrono::steady_clock::now();
    (void)drc::check_routes(rerouted, rules);
    m.check_routes_ms = std::min(m.check_routes_ms, ms_since(deck_start));
    m.route_ms = std::min(m.route_ms, routed_ms);
    m.route_extract_ms = std::min(m.route_extract_ms, extracted_ms);
  }
  m.nets_per_sec = static_cast<double>(m.nets) / (m.route_extract_ms / 1e3);

  // The whole routed compile, as api::Flow runs it (warm library).
  api::FlowOptions options;
  options.route = true;
  m.e2e_ms = 1e300;
  m.e2e_ok = true;
  for (int r = 0; r < w.e2e_reps; ++r) {
    flow::GateNetlist copy = w.netlist;
    const auto start = std::chrono::steady_clock::now();
    auto made = api::Flow::from_netlist(std::move(copy), options);
    bool ok = made.ok() && made.value().run().ok();
    m.e2e_ms = std::min(m.e2e_ms, ms_since(start));
    ok = ok && made.value().stage() == api::Stage::kExported &&
         made.value().routed()->wire_drc_violations == 0;
    m.e2e_ok = m.e2e_ok && ok;
  }
  return m;
}

json::Value to_json(const Measured& m) {
  json::Value v = json::Value::object();
  v.set("gates", static_cast<std::int64_t>(m.gates));
  v.set("nets", m.nets);
  v.set("wirelength_lambda", m.wirelength_lambda);
  v.set("nets_per_sec", m.nets_per_sec);
  v.set("route_ms", m.route_ms);
  v.set("route_extract_ms", m.route_extract_ms);
  v.set("check_routes_ms", m.check_routes_ms);
  v.set("e2e_ms", m.e2e_ms);
  v.set("ideal_worst_arrival_ps", m.ideal_ps);
  v.set("routed_worst_arrival_ps", m.routed_ps);
  v.set("wire_delay_ps", m.wire_delay_ps());
  return v;
}

}  // namespace

int main() {
  static const core::DesignKit kit(layout::Tech::kCnfet65);
  const auto& lib = kit.library();
  const auto& rules = lib.cells().front().built.layout.rules();

  flow::FullAdderOptions fa_opts;
  fa_opts.sum_buffer_drive = 9.0;
  fa_opts.carry_buffer_drive = 7.0;
  Workload fa{"fa13", flow::build_full_adder(lib, fa_opts), 50, 20};
  gen::GenOptions rca;
  rca.family = gen::Family::kRippleCarryAdder;
  rca.width = 1112;  // 9 gates per full-adder bit: 10008 gates
  Workload big{"rca10k", gen::generate(lib, rca).netlist, 3, 3};

  std::printf("%-7s | %7s %7s | %10s %12s | %9s %9s %9s | %8s %8s %8s\n",
              "design", "gates", "nets", "wl lambda", "nets/sec", "route",
              "deck", "e2e", "ideal", "routed", "+wire");
  Measured results[2];
  Workload* loads[2] = {&fa, &big};
  for (int i = 0; i < 2; ++i) {
    results[i] = measure(*loads[i], rules);
    const auto& m = results[i];
    std::printf(
        "%-7s | %7zu %7d | %10.0f %12.0f | %7.2fms %7.2fms %7.1fms | "
        "%6.2fps %6.2fps %6.2fps%s\n",
        loads[i]->name, m.gates, m.nets, m.wirelength_lambda, m.nets_per_sec,
        m.route_ms, m.check_routes_ms, m.e2e_ms, m.ideal_ps, m.routed_ps,
        m.wire_delay_ps(),
        m.complete && m.verify_ok && m.drc_clean && m.deterministic &&
                m.e2e_ok
            ? ""
            : "  <-- GATE FAILURE");
  }

  const bool connectivity = results[0].complete && results[1].complete;
  const bool verify_ok = results[0].verify_ok && results[1].verify_ok;
  const bool drc_clean = results[0].drc_clean && results[1].drc_clean;
  const bool deterministic =
      results[0].deterministic && results[1].deterministic;
  const bool never_faster = results[0].wire_delay_ps() >= 0.0 &&
                            results[1].wire_delay_ps() >= 0.0;
  const bool e2e_ok = results[0].e2e_ok && results[1].e2e_ok;
  const double min_nets_per_sec =
      std::min(results[0].nets_per_sec, results[1].nets_per_sec);

  // --- merge the "route" section into BENCH_perf.json -----------------------
  const char* path = "BENCH_perf.json";
  json::Value root = json::Value::object();
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      try {
        root = json::parse(text.str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "existing %s is unparseable (%s); rewriting\n",
                     path, e.what());
        root = json::Value::object();
      }
    }
  }
  json::Value route = json::Value::object();
  route.set("fa13", to_json(results[0]));
  route.set("rca10k", to_json(results[1]));
  route.set("connectivity_complete", connectivity);
  route.set("verify_ok", verify_ok);
  route.set("drc_clean", drc_clean);
  route.set("deterministic", deterministic);
  route.set("routed_never_faster", never_faster);
  route.set("e2e_ok", e2e_ok);
  route.set("min_nets_per_sec", min_nets_per_sec);
  root.set("route", std::move(route));
  {
    std::ofstream out(path, std::ios::trunc);
    out << json::dump(root, 2) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
  }
  std::printf("\nmerged \"route\" into %s\n", path);

  if (!connectivity || !verify_ok || !drc_clean || !deterministic ||
      !never_faster || !e2e_ok) {
    std::fprintf(stderr,
                 "route bench hard failure (connectivity %d, verify %d, "
                 "drc %d, deterministic %d, never_faster %d, e2e %d)\n",
                 connectivity, verify_ok, drc_clean, deterministic,
                 never_faster, e2e_ok);
    return 1;
  }
  return 0;
}
