// cnfet_perfbench: the repository benchmark's driver binary.
//
//   cnfet_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out PATH] [--commit ID] [--source-digest HEX]
//   cnfet_perfbench --self-check [--seed N]
//
// A run sets up, measures for --seconds, checks every output outside the
// timed region, and prints as its last stdout line one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the per-layer metrics of the traced run. Every workload reports every
// metric of its mode; a layer the workload does not load reads 0.
//
// --self-check runs every workload path at tiny sizes, traced and
// untraced, then once per injected output fault, and exits 0 only when
// the clean runs fail nothing and every faulty run fails something.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;
namespace json = cnfet::util::json;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics, in BENCHMARK.json order. What "one operation"
// is differs per workload: a compile (routed_rca10k, opt_rand5k), a pair
// of Monte Carlo calls (mc_tier1), a served request at the nominal rate
// (serve_mix). throughput_per_s is compiles/s, trials/s, and the
// closed-loop capacity in requests/s respectively.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// The per-layer metrics of the traced run, in BENCHMARK.json order.
const std::vector<MetricSpec> kPerLayer = {
    {"liberty.characterize_s", "s"},
    {"gen.generate_s", "s"},
    {"api.time_s", "s"},
    {"api.optimize_s", "s"},
    {"api.place_s", "s"},
    {"api.sign_off_s", "s"},
    {"api.export_s", "s"},
    {"api.session_json_s", "s"},
    {"api.session_bytes", "bytes"},
    {"opt.cleanup_s", "s"},
    {"opt.size_gates_s", "s"},
    {"opt.insert_buffers_s", "s"},
    {"opt.gates_resized", "count"},
    {"opt.buffers_inserted", "count"},
    {"opt.gates_removed", "count"},
    {"opt.delay_after_ps", "ps"},
    {"flow.hpwl_lambda", "lambda"},
    {"flow.placed_area_lambda2", "lambda2"},
    {"route.route_s", "s"},
    {"route.extract_s", "s"},
    {"route.nets", "count"},
    {"route.shapes", "count"},
    {"route.wirelength_lambda", "lambda"},
    {"sta.wired_retime_s", "s"},
    {"sta.routed_worst_arrival_ps", "ps"},
    {"drc.check_routes_s", "s"},
    {"drc.wire_violations", "count"},
    {"drc.check_cells_s", "s"},
    {"cnt.check_exact_s", "s"},
    {"cnt.trials_per_s.nand3", "1/s"},
    {"cnt.trials_per_s.aoi22", "1/s"},
    {"cnt.trial_ns", "ns"},
    {"cnt.trace_ns_per_tube", "ns"},
    {"cnt.trace_share", "ratio"},
    {"cnt.index_build_us", "us"},
    {"cnt.effects_per_trial", "count"},
    {"cnt.allocs_per_trial", "count"},
    {"gds.export_s", "s"},
    {"gds.write_s", "s"},
    {"gds.bytes", "bytes"},
    {"serve.compile.p50_ms", "ms"},
    {"serve.sta.p50_ms", "ms"},
    {"serve.monte_carlo.p50_ms", "ms"},
    {"serve.gen.p50_ms", "ms"},
    {"serve.ping.p50_ms", "ms"},
    {"serve.direct.compile_p50_ms", "ms"},
    {"serve.rejected_overload", "count"},
    {"serve.requests_error", "count"},
    {"serve.in_flight_max", "count"},
    {"bench.latency_p99_ms.rung1", "ms"},
    {"bench.latency_p99_ms.rung2", "ms"},
    {"bench.latency_p99_ms.rung3", "ms"},
    {"bench.generator_lag_p99_ms.rung1", "ms"},
    {"bench.generator_lag_p99_ms.rung2", "ms"},
    {"bench.generator_lag_p99_ms.rung3", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.traced_compile_s", "s"},
    {"bench.untraced_compile_s", "s"},
    {"bench.sign_off_coverage", "ratio"},
    {"bench.sign_off_parts_s", "s"},
};

const std::vector<std::string> kWorkloads = {"routed_rca10k", "opt_rand5k",
                                             "mc_tier1", "serve_mix"};

int usage(const std::string& message) {
  std::fprintf(stderr,
               "cnfet_perfbench: %s\n"
               "usage: cnfet_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--commit ID] "
               "[--source-digest HEX]\n"
               "       cnfet_perfbench --self-check [--seed N]\n"
               "       cnfet_perfbench --mc-setup-probe   (one process of "
               "mc_tier1's setup_s)\n"
               "workloads: routed_rca10k opt_rand5k mc_tier1 serve_mix\n",
               message.c_str());
  return 2;
}

/// Runs one workload; an escaping exception counts as a failed operation.
bool run_workload(const RunOptions& options, Tracer& tracer,
                  WorkloadResult& result) {
  try {
    if (options.workload == "mc_tier1") {
      run_mc_workload(options, tracer, result);
    } else if (options.workload == "serve_mix") {
      run_serve_workload(options, tracer, result);
    } else {
      run_compile_workload(options, tracer, result);
    }
    return true;
  } catch (const std::exception& e) {
    result.tally.record(false, std::string("workload aborted: ") + e.what());
    return false;
  }
}

const char* fault_name(Fault fault) {
  switch (fault) {
    case Fault::kNone:
      return "none";
    case Fault::kFlipGdsByte:
      return "flip-gds-byte";
    case Fault::kSwapGate:
      return "swap-gate";
    case Fault::kPerturbTally:
      return "perturb-tally";
    case Fault::kRefuseRequest:
      return "refuse-request";
  }
  return "?";
}

int self_check(std::uint64_t seed) {
  struct Case {
    std::string workload;
    bool trace;
    Fault fault;
  };
  std::vector<Case> cases;
  for (const auto& workload : kWorkloads) {
    cases.push_back({workload, false, Fault::kNone});
    cases.push_back({workload, true, Fault::kNone});
  }
  cases.push_back({"routed_rca10k", false, Fault::kFlipGdsByte});
  cases.push_back({"opt_rand5k", false, Fault::kSwapGate});
  cases.push_back({"mc_tier1", false, Fault::kPerturbTally});
  cases.push_back({"serve_mix", false, Fault::kRefuseRequest});

  bool all_pass = true;
  for (const Case& c : cases) {
    RunOptions options;
    options.workload = c.workload;
    options.seed = seed;
    options.seconds = 0.5;
    options.trace = c.trace;
    options.tiny = true;
    options.fault = c.fault;
    Tracer tracer(c.trace);
    WorkloadResult result;
    (void)run_workload(options, tracer, result);
    const bool expect_failure = c.fault != Fault::kNone;
    const bool pass = result.tally.attempted() > 0 &&
                      (expect_failure ? result.tally.failed() > 0
                                      : result.tally.failed() == 0);
    all_pass = all_pass && pass;
    std::printf("self-check %-14s trace=%d fault=%-14s attempted %lld "
                "failed %lld -> %s\n",
                c.workload.c_str(), c.trace ? 1 : 0, fault_name(c.fault),
                static_cast<long long>(result.tally.attempted()),
                static_cast<long long>(result.tally.failed()),
                pass ? "PASS" : "FAIL");
    if (!pass || expect_failure) {
      for (const auto& reason : result.tally.reasons()) {
        std::printf("    %s\n", reason.c_str());
      }
    }
  }
  std::printf("self-check %s\n", all_pass ? "passed" : "FAILED");
  return all_pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool self_check_mode = false;
  std::string commit = "unknown", source_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      self_check_mode = true;
      continue;
    }
    if (flag == "--mc-setup-probe") {  // one process of mc_tier1's setup_s
      std::printf("%.9e\n", mc_setup_probe_s());
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--source-digest") {
        source_digest = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (self_check_mode) return self_check(options.seed);
  bool known = false;
  for (const auto& w : kWorkloads) known = known || w == options.workload;
  if (!known) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Tracer tracer(options.trace);
  WorkloadResult result;
  const bool finished = run_workload(options, tracer, result);

  for (const auto& reason : result.tally.reasons()) {
    std::printf("FAILED: %s\n", reason.c_str());
  }
  if (options.trace) {
    tracer.print_self_times();
    if (!tracer.write_json(options.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.trace_out.c_str());
    }
  }

  const auto attempted = result.tally.attempted();
  const auto failed = result.tally.failed();
  json::Value provenance = json::Value::object();
  provenance.set("workload", options.workload);
  provenance.set("seed", std::to_string(options.seed));
  provenance.set("seconds", options.seconds);
  provenance.set("trace", options.trace);
  provenance.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  provenance.set("load_cap", load_cap());
  provenance.set("build_type", CNFET_PERFBENCH_BUILD_TYPE);
  provenance.set("commit", commit);
  provenance.set("source_digest", source_digest);
  provenance.set("error_rate",
                 attempted > 0 ? static_cast<double>(failed) /
                                     static_cast<double>(attempted)
                               : 1.0);
  json::Value info = json::Value::object();
  info.set("provenance", std::move(provenance));
  std::printf("%s\n", json::dump(info).c_str());

  json::Value metrics = json::Value::object();
  for (const MetricSpec& spec : options.trace ? kPerLayer : kEndToEnd) {
    json::Value metric = json::Value::object();
    metric.set("value", result.metrics.get(spec.name));
    metric.set("unit", spec.unit);
    metrics.set(spec.name, std::move(metric));
  }
  json::Value line = json::Value::object();
  line.set("correct", finished && failed == 0 && attempted > 0);
  line.set("attempted", attempted);
  line.set("failed", failed);
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", json::dump(line).c_str());
  std::fflush(stdout);
  return finished ? 0 : 1;
}
