// The two compile workloads: a generated netlist adopted with
// api::Flow::from_netlist and run to Exported, producing in memory what
// `cnfetc gen` writes (the GDS stream bytes and the session_json payload).
//
//   routed_rca10k — 1112-bit ripple-carry adder (10,008 gates), route=true:
//     the at-scale routed signoff path (route, extract, wired re-time,
//     wire DRC). opt passes through.
//   opt_rand5k — seeded 5,000-gate random DAG over 64 inputs, optimize=true
//     with one opt thread, ideal nets: the opt passes over incremental
//     TimingGraph re-times. Route and the wire deck do nothing.
//
// Untraced runs time whole compiles. The traced run steps the Flow stage
// by stage, then replays the layers inside the opaque stages (sign_off,
// and optimize on opt_rand5k) through their public functions on the same
// netlist, and checks that the replay reproduces the Flow's artifacts.
#include <optional>
#include <set>
#include <sstream>

#include "api/flow.hpp"
#include "api/library_cache.hpp"
#include "cnt/analyzer.hpp"
#include "common.hpp"
#include "drc/drc.hpp"
#include "flow/gds_export.hpp"
#include "gds/gds.hpp"
#include "gen/gen.hpp"
#include "opt/opt.hpp"
#include "route/extract.hpp"
#include "route/router.hpp"
#include "sta/timing_graph.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

using namespace cnfet;
namespace json = util::json;

/// Sampled input vectors the functional checks simulate.
constexpr int kSampleVectors = 64;

struct CompileSpec {
  gen::GenOptions gen;
  api::FlowOptions flow;
  /// Distinct designs a run compiles in turn. Random DAGs of one size
  /// differ in how much work opt finds; a pool of them per run keeps the
  /// median compile from hinging on one draw.
  int designs = 1;
};

CompileSpec spec_for(const RunOptions& options) {
  CompileSpec spec;
  if (options.workload == "routed_rca10k") {
    // The adder's structure is fixed by its width; the seed only picks
    // the sampled check vectors.
    spec.gen.family = gen::Family::kRippleCarryAdder;
    spec.gen.width = options.tiny ? 16 : 1112;
    spec.flow.route = true;
  } else {
    spec.gen.family = gen::Family::kRandomDag;
    spec.gen.target_gates = options.tiny ? 300 : 5000;
    spec.gen.num_inputs = 64;
    spec.flow.optimize = true;
    spec.flow.opt_threads = 1;
    spec.designs = options.tiny ? 2 : 6;
  }
  return spec;
}

/// Cold characterization plus input generation: what every fresh process
/// pays before its first compile.
struct Prepared {
  api::LibraryHandle library;
  std::vector<gen::Generated> designs;
};

Prepared prepare(const CompileSpec& spec, std::uint64_t seed,
                 Tracer& tracer) {
  Prepared prepared;
  timed_span(tracer, "liberty.characterize", [&] {
    auto& cache = api::LibraryCache::global();
    cache.clear();
    cache.set_cache_dir("");  // no disk tier: characterize for real
    auto library = cache.get(spec.flow.tech);
    if (!library.ok()) throw util::Error(library.error().to_string());
    prepared.library = library.value();
  });
  timed_span(tracer, "gen.generate", [&] {
    for (int d = 0; d < spec.designs; ++d) {
      gen::GenOptions options = spec.gen;
      options.seed = util::derive_stream(seed, static_cast<std::uint64_t>(d));
      prepared.designs.push_back(gen::generate(*prepared.library, options));
    }
  });
  return prepared;
}

/// What one compile leaves in memory.
struct CompileOutput {
  std::optional<api::Flow> flow;
  std::string gds;
  std::string session;
  std::string error;  ///< empty on success
};

std::string gds_bytes(const gds::Library& library) {
  std::ostringstream out(std::ios::binary);
  gds::write(library, out);
  return out.str();
}

/// The untraced compile: from_netlist through Exported, GDS bytes and the
/// dumped session payload.
CompileOutput compile(flow::GateNetlist netlist,
                      const api::FlowOptions& options) {
  CompileOutput out;
  auto created = api::Flow::from_netlist(std::move(netlist), options);
  if (!created.ok()) {
    out.error = created.error().to_string();
    return out;
  }
  out.flow.emplace(std::move(created).value());
  const auto reached = out.flow->run(api::Stage::kExported);
  if (!reached.ok()) {
    out.error = reached.error().to_string();
    return out;
  }
  out.gds = gds_bytes(out.flow->exported()->gds);
  const auto session = out.flow->session_json();
  if (!session.ok()) {
    out.error = session.error().to_string();
    return out;
  }
  out.session = json::dump(session.value());
  return out;
}

/// The same compile, one Flow stage per span. `pre_opt` receives the
/// netlist as the optimize stage finds it, for the opt replay.
CompileOutput traced_compile(flow::GateNetlist netlist,
                             const api::FlowOptions& options, Tracer& tracer,
                             flow::GateNetlist* pre_opt,
                             std::vector<int>* stage_spans) {
  CompileOutput out;
  const auto step = [&](const char* name, auto&& advance) {
    if (!out.error.empty()) return;
    ScopedSpan span(tracer, name);
    stage_spans->push_back(span.id());
    const util::Result<api::Stage> reached = advance();
    if (!reached.ok()) out.error = reached.error().to_string();
  };
  {
    ScopedSpan span(tracer, "api.from_netlist");
    auto created = api::Flow::from_netlist(std::move(netlist), options);
    if (!created.ok()) {
      out.error = created.error().to_string();
      return out;
    }
    out.flow.emplace(std::move(created).value());
  }
  api::Flow& flow = *out.flow;
  step("api.time", [&] { return flow.time(); });
  if (out.error.empty()) *pre_opt = *flow.netlist().value();
  step("api.optimize", [&] { return flow.optimize(); });
  step("api.place", [&] { return flow.place(); });
  step("api.sign_off", [&] { return flow.sign_off(); });
  step("api.export", [&] { return flow.export_design(); });
  if (!out.error.empty()) return out;
  timed_span(tracer, "gds.write",
             [&] { out.gds = gds_bytes(flow.exported()->gds); });
  timed_span(tracer, "api.session_json", [&] {
    const auto session = flow.session_json();
    if (!session.ok()) {
      out.error = session.error().to_string();
      return;
    }
    out.session = json::dump(session.value());
  });
  return out;
}

/// Sampled vectors on which the netlist disagrees with the generator's
/// independent oracle.
int oracle_mismatches(const flow::GateNetlist& netlist,
                      const gen::Oracle& oracle,
                      const std::vector<std::vector<bool>>& vectors) {
  int bad = 0;
  for (const auto& input : vectors) {
    const auto values = netlist.simulate(input);
    const auto expected = oracle(input);
    bool same = expected.size() == netlist.outputs().size();
    for (std::size_t o = 0; same && o < expected.size(); ++o) {
      same = values[static_cast<std::size_t>(netlist.outputs()[o])] ==
             expected[o];
    }
    if (!same) ++bad;
  }
  return bad;
}

/// The injected swap-gate fault: the first NAND2/NOR2 reached from a
/// primary output through inverters becomes its dual, which changes the
/// output whenever that gate's inputs differ.
flow::GateNetlist with_swapped_gate(const flow::GateNetlist& netlist,
                                    const liberty::Library& library) {
  flow::GateNetlist copy = netlist;
  for (const int output : copy.outputs()) {
    int net = output;
    for (int g = copy.driver_index(net); g >= 0; g = copy.driver_index(net)) {
      const flow::Gate& gate = copy.gates()[static_cast<std::size_t>(g)];
      const std::string& name = gate.cell->name;
      // The 1X dual: the library carries every family member at 1X, not
      // every drive the sizing pass may have chosen.
      std::string dual;
      if (name.rfind("NAND2", 0) == 0) dual = "NOR2_1X";
      if (name.rfind("NOR2", 0) == 0) dual = "NAND2_1X";
      if (!dual.empty()) {
        copy.resize_gate(g, &library.find(dual));
        return copy;
      }
      if (name.rfind("INV", 0) != 0) break;
      net = gate.inputs.front();
    }
  }
  return copy;
}

/// Output checks shared by every compile of a run (outside the timed
/// region). A design's first compile fixes the digests its later compiles
/// must repeat.
class CompileChecker {
 public:
  CompileChecker(const RunOptions& options, const Prepared& prepared)
      : options_(options),
        prepared_(prepared),
        vectors_(gen::sample_vectors(
            prepared.designs.front().netlist.inputs().size(), kSampleVectors,
            options.seed)),
        first_(prepared.designs.size()) {}

  /// The adopted netlists (what "mapping" produced) against the oracle.
  void check_mapped(Tally& tally) const {
    for (const auto& design : prepared_.designs) {
      const int bad = oracle_mismatches(design.netlist, design.oracle, vectors_);
      tally.record(bad == 0, design.name +
                                 ": adopted netlist disagrees with the "
                                 "oracle on " +
                                 std::to_string(bad) + " vectors");
    }
  }

  /// Checks compile `index` of design `design`.
  void check(const CompileOutput& out, std::size_t design, int index,
             Tally& tally) {
    const std::string found = problem(out, design, index);
    tally.record(found.empty(),
                 "compile " + std::to_string(index) + ": " + found);
  }

 private:
  struct Digests {
    std::uint64_t gds = 0;
    std::uint64_t session = 0;
  };

  std::string problem(const CompileOutput& out, std::size_t design,
                      int index) {
    if (!out.error.empty()) return out.error;
    const api::Flow& flow = *out.flow;
    const api::FlowMetrics m = flow.metrics();
    if (m.drc_violations != 0 || !m.all_immune) return "cell signoff not clean";
    // The optimized netlist against the oracle: optimize's own exhaustive
    // recheck is skipped above 16 inputs.
    flow::GateNetlist final_netlist = *flow.netlist().value();
    if (options_.fault == Fault::kSwapGate) {
      final_netlist = with_swapped_gate(final_netlist, flow.library());
    }
    const int bad = oracle_mismatches(
        final_netlist, prepared_.designs[design].oracle, vectors_);
    if (bad != 0) {
      return "final netlist disagrees with the oracle on " +
             std::to_string(bad) + " vectors";
    }
    if (flow.options().route) {
      const api::RoutedArtifact* routed = flow.routed();
      if (routed == nullptr || !routed->routing.complete()) {
        return "routing incomplete";
      }
      const auto& rules = flow.library().cells().front().built.layout.rules();
      if (!route::verify(*flow.netlist().value(), flow.placed()->placement,
                         routed->routing, rules)
               .ok()) {
        return "route::verify found opens or shorts";
      }
      if (routed->wire_drc_violations != 0) return "wire DRC violations";
      if (routed->routed_timing.worst_arrival <
          routed->ideal_worst_arrival_s) {
        return "routed worst arrival beats the ideal one";
      }
    }
    std::string gds = out.gds;
    if (options_.fault == Fault::kFlipGdsByte && index > 0) {
      gds[gds.size() / 2] = static_cast<char>(gds[gds.size() / 2] ^ 0x01);
    }
    const Digests digests{json::fnv1a64(gds), json::fnv1a64(out.session)};
    std::optional<Digests>& first = first_[design];
    if (!first) first = digests;
    if (digests.gds != first->gds) return "GDS bytes differ between compiles";
    if (digests.session != first->session) {
      return "session payload differs between compiles";
    }
    return {};
  }

  const RunOptions& options_;
  const Prepared& prepared_;
  std::vector<std::vector<bool>> vectors_;
  std::vector<std::optional<Digests>> first_;  ///< per design
};

/// Flow options for compiling `design` over the prepared library, named
/// after the design as `cnfetc gen` names its top.
api::FlowOptions options_for(const CompileSpec& spec, const Prepared& prepared,
                             const gen::Generated& design) {
  api::FlowOptions options = spec.flow;
  options.library = prepared.library;
  options.top_name = design.name;
  return options;
}

/// One untimed compile of the pool's first design. A process's first
/// compile also pays for heap growth and lazy initialization, 40-80% more
/// on opt_rand5k, which no later compile pays; compiles timed after this
/// one run warm.
void warm_up(const CompileSpec& spec, const Prepared& prepared) {
  const gen::Generated& design = prepared.designs.front();
  const auto start = Clock::now();
  (void)compile(flow::GateNetlist(design.netlist),
                options_for(spec, prepared, design));
  std::printf("warm-up compile (%s): %.6f s\n", design.name.c_str(),
              seconds_between(start, Clock::now()));
}

void run_untraced(const RunOptions& options, const CompileSpec& spec,
                  WorkloadResult& result) {
  Tracer off(false);
  std::vector<double> setup_s;
  Prepared prepared;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    prepared = {};  // release the previous library before re-characterizing
    const auto start = Clock::now();
    prepared = prepare(spec, options.seed, off);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  CompileChecker checker(options, prepared);
  checker.check_mapped(result.tally);

  warm_up(spec, prepared);

  std::vector<double> compile_s;
  double measured = 0.0;
  // Whole rounds of the design pool, so every design weighs the same in
  // the median however many compiles fit. The flip-GDS fault needs a
  // repeated design to show.
  const int min_compiles = options.tiny ? spec.designs + 1 : 1;
  for (int i = 0; i < min_compiles || measured < options.seconds ||
                  i % spec.designs != 0;
       ++i) {
    const std::size_t d = static_cast<std::size_t>(i % spec.designs);
    const gen::Generated& design = prepared.designs[d];
    flow::GateNetlist netlist = design.netlist;
    const api::FlowOptions flow_options = options_for(spec, prepared, design);
    const auto start = Clock::now();
    const CompileOutput out = compile(std::move(netlist), flow_options);
    const double elapsed = seconds_between(start, Clock::now());
    compile_s.push_back(elapsed);
    measured += elapsed;
    std::printf("compile %d (%s): %.6f s\n", i, design.name.c_str(), elapsed);
    checker.check(out, d, i, result.tally);
  }
  std::printf("%s: %zu compiles of %zu-gate designs, median %.3f s\n",
              options.workload.c_str(), compile_s.size(),
              prepared.designs.front().netlist.gates().size(),
              median(compile_s));

  result.metrics.set("setup_s", median(setup_s));
  result.metrics.set("latency_p50_ms", median(compile_s) * 1e3);
  result.metrics.set("latency_p99_ms", tail_latency(compile_s) * 1e3);
  result.metrics.set("throughput_per_s",
                     static_cast<double>(compile_s.size()) / measured);
  result.metrics.set("peak_rss_mb", peak_rss_mb());
}

/// Replays opt::optimize's public passes, in its order, on a copy of the
/// netlist it received, and reports their times only when the replay
/// reproduces the Flow's PassStats exactly.
void replay_optimize(const flow::GateNetlist& pre_opt, const api::Flow& flow,
                     int opaque, Tracer& tracer, Metrics& metrics) {
  const api::FlowOptions& fo = flow.options();
  opt::OptOptions oo;
  oo.sta = fo.sta;
  oo.target_delay = fo.target_delay;
  oo.max_area_growth = fo.max_area_growth;
  oo.num_threads = fo.opt_threads;
  flow::GateNetlist netlist = pre_opt;
  opt::PassStats stats;
  ScopedSpan replay(tracer, "replay.optimize");
  tracer.explain(replay.id(), opaque);
  stats.area_before = opt::total_area(netlist);
  stats.delay_before =
      sta::TimingGraph(netlist, oo.sta, oo.target_delay).worst_arrival();
  const double budget = stats.area_before * (1.0 + oo.max_area_growth);
  const double cleanup_s = timed_span(
      tracer, "opt.cleanup", [&] { opt::cleanup(netlist, &stats); });
  std::optional<sta::TimingGraph> graph;
  timed_span(tracer, "opt.graph_build",
             [&] { graph.emplace(netlist, oo.sta, oo.target_delay); });
  const auto size = [&] {
    return timed_span(tracer, "opt.size_gates", [&] {
      opt::size_gates(netlist, *graph, flow.library(), oo, budget, &stats);
    });
  };
  double size_s = size();
  const double buffer_s = timed_span(tracer, "opt.insert_buffers", [&] {
    opt::insert_buffers(netlist, *graph, flow.library(), oo, budget, &stats);
  });
  size_s += size();
  stats.delay_after = graph->worst_arrival();
  stats.area_after = opt::total_area(netlist);
  replay.stop();

  const opt::PassStats& want = flow.optimized()->stats;
  const bool same = stats.gates_resized == want.gates_resized &&
                    stats.buffers_inserted == want.buffers_inserted &&
                    stats.gates_removed == want.gates_removed &&
                    stats.delay_before == want.delay_before &&
                    stats.delay_after == want.delay_after &&
                    stats.area_before == want.area_before &&
                    stats.area_after == want.area_after;
  if (!same) {
    std::printf("opt replay does not reproduce the Flow's PassStats; "
                "opt.*_s left at 0\n");
    return;
  }
  metrics.set("opt.cleanup_s", cleanup_s);
  metrics.set("opt.size_gates_s", size_s);
  metrics.set("opt.insert_buffers_s", buffer_s);
}

/// Replays sign_off's work through the public layer functions on the
/// Flow's placed netlist; returns the summed time of the replayed parts.
double replay_sign_off(const api::Flow& flow, int opaque, Tracer& tracer,
                       Tally& tally, Metrics& metrics) {
  const flow::GateNetlist& netlist = *flow.netlist().value();
  const flow::PlacementResult& placement = flow.placed()->placement;
  const api::FlowOptions& fo = flow.options();
  const auto& rules = flow.library().cells().front().built.layout.rules();
  std::set<const liberty::LibCell*> distinct;
  for (const auto& gate : netlist.gates()) distinct.insert(gate.cell);

  ScopedSpan replay(tracer, "replay.sign_off");
  tracer.explain(replay.id(), opaque);
  double parts = 0.0;
  parts += timed_span(tracer, "drc.check_cells", [&] {
    for (const auto* cell : distinct) {
      (void)drc::check(cell->built.layout, fo.drc);
    }
  });
  if (fo.tech == layout::Tech::kCnfet65) {
    parts += timed_span(tracer, "cnt.check_exact", [&] {
      for (const auto* cell : distinct) {
        (void)cnt::check_exact(cell->built.layout, cell->built.netlist,
                               cell->built.function);
      }
    });
  }
  if (const api::RoutedArtifact* routed = flow.routed()) {
    route::RoutingResult routing;
    route::Extraction extraction;
    drc::DrcReport wire_drc;
    double worst = 0.0;
    parts += timed_span(tracer, "route.route", [&] {
      routing = route::route(netlist, placement, rules, fo.route_opts);
    });
    parts += timed_span(tracer, "route.extract", [&] {
      extraction = route::extract(netlist, routing, rules);
    });
    parts += timed_span(tracer, "sta.wired_retime", [&] {
      sta::TimingGraph wired(netlist, fo.sta, 0.0,
                             extraction.to_wire_loads(netlist));
      worst = wired.to_sta_result().worst_arrival;
    });
    parts += timed_span(tracer, "drc.check_routes", [&] {
      wire_drc = drc::check_routes(routing, rules);
    });
    const int violations = static_cast<int>(wire_drc.violations.size());
    tally.record(routing == routed->routing &&
                     violations == routed->wire_drc_violations &&
                     worst == routed->routed_timing.worst_arrival,
                 "sign_off replay does not reproduce the RoutedArtifact");
    std::size_t shapes = 0;
    for (const auto& net : routing.nets) {
      shapes += net.wires.size() + net.vias.size();
    }
    metrics.set("route.nets", static_cast<double>(routing.nets.size()));
    metrics.set("route.shapes", static_cast<double>(shapes));
    metrics.set("route.wirelength_lambda", routing.total_wirelength_lambda);
    metrics.set("drc.wire_violations", violations);
    metrics.set("sta.routed_worst_arrival_ps", worst * 1e12);
  }
  replay.stop();
  metrics.set("drc.check_cells_s", tracer.total_seconds("drc.check_cells"));
  metrics.set("cnt.check_exact_s", tracer.total_seconds("cnt.check_exact"));
  metrics.set("route.route_s", tracer.total_seconds("route.route"));
  metrics.set("route.extract_s", tracer.total_seconds("route.extract"));
  metrics.set("sta.wired_retime_s", tracer.total_seconds("sta.wired_retime"));
  metrics.set("drc.check_routes_s", tracer.total_seconds("drc.check_routes"));
  return parts;
}

void run_traced(const RunOptions& options, const CompileSpec& spec,
                Tracer& tracer, WorkloadResult& result) {
  Metrics& metrics = result.metrics;
  const Prepared prepared = prepare(spec, options.seed, tracer);
  metrics.set("liberty.characterize_s",
              tracer.total_seconds("liberty.characterize"));
  metrics.set("gen.generate_s", tracer.total_seconds("gen.generate"));
  const gen::Generated& design = prepared.designs.front();
  const api::FlowOptions flow_options = options_for(spec, prepared, design);
  CompileChecker checker(options, prepared);
  checker.check_mapped(result.tally);

  warm_up(spec, prepared);
  const auto start = Clock::now();
  const CompileOutput plain = compile(design.netlist, flow_options);
  const double untraced_s = seconds_between(start, Clock::now());
  checker.check(plain, 0, 0, result.tally);

  flow::GateNetlist pre_opt;
  std::vector<int> stage_spans;
  ScopedSpan compile_span(tracer, "compile");
  const CompileOutput out = traced_compile(design.netlist, flow_options,
                                           tracer, &pre_opt, &stage_spans);
  const double traced_s = compile_span.stop();
  checker.check(out, 0, 1, result.tally);
  if (!out.error.empty()) return;
  const api::Flow& flow = *out.flow;

  // stage_spans: time, optimize, place, sign_off, export.
  const double parts =
      replay_sign_off(flow, stage_spans[3], tracer, result.tally, metrics);
  if (flow.optimized()->enabled) {
    replay_optimize(pre_opt, flow, stage_spans[1], tracer, metrics);
  }
  {
    ScopedSpan replay(tracer, "replay.export");
    tracer.explain(replay.id(), stage_spans[4]);
    gds::Library library;
    timed_span(tracer, "gds.export", [&] {
      const auto& placement = flow.placed()->placement;
      library = flow.routed() != nullptr
                    ? flow::export_gds(placement, flow_options.top_name,
                                       flow.routed()->routing)
                    : flow::export_gds(placement, flow_options.top_name);
    });
    result.tally.record(gds_bytes(library) == out.gds,
                        "export replay does not reproduce the GDS bytes");
  }

  const api::FlowMetrics m = flow.metrics();
  metrics.set("api.time_s", tracer.total_seconds("api.time"));
  metrics.set("api.optimize_s", tracer.total_seconds("api.optimize"));
  metrics.set("api.place_s", tracer.total_seconds("api.place"));
  metrics.set("api.sign_off_s", tracer.total_seconds("api.sign_off"));
  metrics.set("api.export_s", tracer.total_seconds("api.export"));
  metrics.set("api.session_json_s", tracer.total_seconds("api.session_json"));
  metrics.set("api.session_bytes", static_cast<double>(out.session.size()));
  metrics.set("opt.gates_resized", m.gates_resized);
  metrics.set("opt.buffers_inserted", m.buffers_inserted);
  metrics.set("opt.gates_removed", m.gates_removed);
  metrics.set("opt.delay_after_ps",
              flow.optimized()->enabled
                  ? flow.optimized()->stats.delay_after * 1e12
                  : 0.0);
  metrics.set("flow.hpwl_lambda", m.hpwl_lambda);
  metrics.set("flow.placed_area_lambda2", m.placed_area_lambda2);
  metrics.set("gds.export_s", tracer.total_seconds("gds.export"));
  metrics.set("gds.write_s", tracer.total_seconds("gds.write"));
  metrics.set("gds.bytes", static_cast<double>(out.gds.size()));
  metrics.set("bench.traced_compile_s", traced_s);
  metrics.set("bench.untraced_compile_s", untraced_s);
  metrics.set("bench.trace_overhead", traced_s / untraced_s);
  const double sign_off_s = metrics.get("api.sign_off_s");
  metrics.set("bench.sign_off_parts_s", parts);
  metrics.set("bench.sign_off_coverage",
              sign_off_s > 0.0 ? parts / sign_off_s : 0.0);
  std::printf("sign_off replay: %.6f s of parts against a %.6f s sign_off "
              "span (coverage %.4f)\n",
              parts, sign_off_s, metrics.get("bench.sign_off_coverage"));
  std::printf("trace overhead: traced compile %.6f s / untraced %.6f s = "
              "%.4f\n",
              traced_s, untraced_s, traced_s / untraced_s);
}

}  // namespace

void run_compile_workload(const RunOptions& options, Tracer& tracer,
                          WorkloadResult& result) {
  const CompileSpec spec = spec_for(options);
  if (options.trace) {
    run_traced(options, spec, tracer, result);
  } else {
    run_untraced(options, spec, result);
  }
}

}  // namespace perfbench
