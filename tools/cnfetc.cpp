// cnfetc — the shell driver for persistent compiler sessions.
//
// Every paper table is reproducible without writing C++:
//
//   cnfetc compile --cell NAND3 --tech cnfet65 --out sessions/nand3/
//   cnfetc batch jobs.json --threads 8 --report report.json
//   cnfetc resume sessions/nand3/ --to exported
//
// The flow verbs (compile, gen, resume, monte-carlo, batch) read their
// flags (util::Args) into a request envelope (serve::make_request) and run
// it through serve::execute in this process, or (all but batch) on a
// running cnfetd with --server HOST:PORT. One response writer turns the
// response into the session dir (flow.json, design.gds), the --out or
// --report file and the summary lines, so local and served runs write the
// same bytes. `serve` runs cnfetd in-process; `ping`/`stop` check and stop it.
//
// Exit codes: 0 success, 1 a flow/job failed, 2 usage error.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/batch.hpp"
#include "api/serialize.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/execute.hpp"
#include "util/args.hpp"

namespace {

using namespace cnfet;
using util::Args;

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage:\n"
      "  cnfetc compile --cell NAME --out DIR [--tech cnfet65|cmos65]\n"
      "                 [--to STAGE] [--drive D] [--output-drive D]\n"
      "                 [--optimize] [--route] [--top NAME]\n"
      "                 [--cache-dir DIR] [--server HOST:PORT]\n"
      "  cnfetc gen --family rca|cla|mul|rand --out DIR [--width N]\n"
      "                 [--gates N] [--inputs N] [--seed S] [--drive D]\n"
      "                 [--tech cnfet65|cmos65] [--to STAGE] [--optimize]\n"
      "                 [--route] [--top NAME] [--cache-dir DIR]\n"
      "                 [--server HOST:PORT]\n"
      "  cnfetc batch JOBS.json [--threads N] [--report REPORT.json]\n"
      "                 [--fail-fast] [--cache-dir DIR]\n"
      "  cnfetc resume DIR [--to STAGE] [--route] [--cache-dir DIR]\n"
      "                 [--server HOST:PORT]\n"
      "  cnfetc jobs --out JOBS.json [--tech T]... [--to STAGE]\n"
      "  cnfetc monte-carlo --cell NAME [--trials N] [--seed S]\n"
      "                 [--threads N] [--histogram] [--out FILE]\n"
      "                 [--server HOST:PORT]\n"
      "  cnfetc serve [cnfetd flags: --host H --port P --threads N ...]\n"
      "  cnfetc ping --server HOST:PORT\n"
      "  cnfetc stop --server HOST:PORT\n"
      "\n"
      "`jobs` writes the paper's Table-1 cell family as a jobs.json (one\n"
      "job per cell per --tech; default cnfet65) for `cnfetc batch`.\n"
      "STAGE is one of: created mapped timed optimized placed signed-off\n"
      "exported (default: exported).\n"
      "--route adds wire-aware signoff: the placed design is routed on the\n"
      "metal2/metal3 grid, Elmore RC is extracted and timed on top of the\n"
      "ideal model, the wire DRC deck runs, and the routed metal lands in\n"
      "design.gds (resume --route enables it on a session saved without).\n"
      "--cache-dir (or CNFET_LIBRARY_CACHE_DIR) keeps characterized\n"
      "libraries on disk as versioned JSON, so only the first run pays the\n"
      "characterization transients.\n"
      "`gen` builds a deterministic at-scale benchmark design (ripple-carry\n"
      "or carry-lookahead adder of --width bits, --width x --width array\n"
      "multiplier, or a seeded random DAG of --gates gates over --inputs\n"
      "primary inputs) and runs it through the flow like `compile` does.\n"
      "The GDS top is named after the design unless --top names another\n"
      "(the default name TOP means \"name it after the design\").\n"
      "`monte-carlo` samples mispositioned-CNT trials against one paper\n"
      "cell (Figure 2's experiment at arbitrary scale, at most 10000000\n"
      "trials): per-trial stray short/chain histograms with --histogram,\n"
      "the full serialized result as JSON with --out.\n"
      "`serve` starts the compile daemon (cnfetd in-process, `cnfetd\n"
      "--help` lists its flags) until SIGINT/SIGTERM or `cnfetc stop`.\n"
      "compile, gen, resume and monte-carlo run in this process, or with\n"
      "--server on a running daemon; the files they write (flow.json,\n"
      "design.gds, --out) are byte-identical either way.\n");
}

int usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "cnfetc: %s\n\n", error.c_str());
  print_usage(stderr);
  return 2;
}

void apply_cache_dir(Args& args) {
  if (const auto* dir = args.value_of("--cache-dir")) {
    api::LibraryCache::global().set_cache_dir(*dir);
  }
}

/// The flow flags compile and gen share.
void read_flow_flags(Args& args, api::FlowOptions* options) {
  apply_cache_dir(args);
  args.read("--tech", &options->tech, api::tech_from_string);
  args.read("--drive", &options->drive);
  options->optimize = args.has_switch("--optimize");
  options->route = args.has_switch("--route");
  args.read("--top", &options->top_name);
}

/// Reports a failure on stderr; returns exit code 1.
int fail(const std::string& message) {
  std::fprintf(stderr, "cnfetc: %s\n", message.c_str());
  return 1;
}

/// Writes `bytes` to `path` and says so; returns the exit code.
int write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  if (!out) return fail("cannot write " + path);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Prints the disk-tier notices (loads, stores, fallbacks) once at exit.
void print_cache_notes() {
  const auto diags = api::LibraryCache::global().diagnostics();
  if (!diags.empty()) std::printf("%s", diags.to_string().c_str());
}

/// Runs one request envelope: on the daemon at `server` when given, else
/// through serve::execute in this process. Both return the same response
/// document; only transport and envelope faults are errors.
util::Result<util::json::Value> run_request(const std::string* server,
                                            util::json::Value request) {
  if (server == nullptr) {
    const auto kind =
        serve::request_kind_from_string(request.get_string("kind"));
    return serve::execute({kind.value(), "", std::move(request)});
  }
  auto client = serve::Client::connect(*server);
  if (!client.ok()) return client.error();
  return client.value().call(request);
}

/// Prints a response's diagnostics and returns it; nullptr, with the
/// transport error printed, when there is none.
util::json::Value* checked(util::Result<util::json::Value>& response) {
  if (!response.ok()) {
    fail(response.error().to_string());
    return nullptr;
  }
  std::printf("%s", serve::response_diagnostics(response.value())
                        .to_string()
                        .c_str());
  return &response.value();
}

/// The result member `key` of a successful response; nullptr, with the
/// reason printed, when the request failed.
const util::json::Value* result_of(util::Result<util::json::Value>& response,
                                   const char* key) {
  const util::json::Value* doc = checked(response);
  if (doc == nullptr || !doc->get_bool("ok")) return nullptr;
  const util::json::Value* result = doc->find("result");
  const util::json::Value* member =
      result != nullptr ? result->find(key) : nullptr;
  if (member == nullptr) {
    fail("response carries no " + std::string(key) + " result");
  }
  return member;
}

/// Writes a compile/gen/resume response into the session dir: flow.json
/// (the session payload in its artifact envelope), design.gds (decoded
/// from gds_hex), and the one-line metrics summary.
int finish_flow(util::Result<util::json::Value> response,
                const std::string& dir) {
  util::json::Value* doc = checked(response);
  if (doc == nullptr) return 1;
  const util::json::Value* found = doc->find("result");
  if (found == nullptr || !found->is_object()) {
    return fail("response carries no result object");
  }
  // Moved out, not copied: a 10k-gate session payload is tens of MB.
  util::json::Value result = doc->take("result");
  const bool has_session = result.find("session") != nullptr;
  const bool has_gds = result.find("gds_hex") != nullptr;
  if (has_session || has_gds) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  if (has_session) {
    const auto path = (std::filesystem::path(dir) / "flow.json").string();
    const auto saved =
        api::write_artifact(result.take("session"), "flow", path);
    if (!saved.ok()) {
      return fail("save failed: " + saved.error().to_string());
    }
    std::printf("session saved to %s\n", saved.value().c_str());
  }
  if (has_gds) {
    auto bytes = serve::from_hex(result.get_string("gds_hex"));
    if (!bytes.ok()) return fail(bytes.error().to_string());
    const auto path = (std::filesystem::path(dir) / "design.gds").string();
    if (write_bytes(path, bytes.value()) != 0) return 1;
  }
  if (const util::json::Value* metrics = result.find("metrics")) {
    const auto m = api::flow_metrics_from_json(*metrics);
    std::printf("%s @ %s: stage %s, %d gates, delay %.3gps, "
                "area %.0f lambda^2, %d DRC violations\n",
                m.name.c_str(), layout::to_string(m.tech),
                api::to_string(m.stage), m.gates, m.worst_arrival_s * 1e12,
                m.placed_area_lambda2, m.drc_violations);
    if (m.routed) {
      std::printf("routed: %.0f lambda wire, %.3f fF wire cap, "
                  "wire delay +%.3gps, %d wire DRC violations\n",
                  m.total_wirelength, m.wire_cap_ff, m.wire_delay_ps,
                  m.wire_drc_violations);
    }
  }
  print_cache_notes();
  return doc->get_bool("ok") ? 0 : 1;
}

int cmd_compile(Args& args) {
  api::FlowJob job;
  read_flow_flags(args, &job.options);
  args.read("--output-drive", &job.options.output_drive);
  args.read("--to", &job.target, api::stage_from_string);
  const auto* cell = args.required("--cell", "compile");
  const auto* out_dir = args.required("--out", "compile");
  const auto* server = args.value_of("--server");
  if (const auto error = args.error(); !error.empty()) return usage(error);
  job.cell = *cell;
  auto request = serve::make_request(serve::RequestKind::kCompile);
  request.set("job", api::to_json(job));
  return finish_flow(run_request(server, std::move(request)), *out_dir);
}

int cmd_gen(Args& args) {
  std::optional<gen::Family> family;
  args.read("--family", &family, gen::family_from_string);
  gen::GenOptions gopt;
  args.read("--width", &gopt.width, 1);
  args.read("--gates", &gopt.target_gates, 1);
  args.read("--inputs", &gopt.num_inputs, 1);
  args.read("--seed", &gopt.seed);
  api::FlowOptions options;
  read_flow_flags(args, &options);
  gopt.drive = options.drive;
  api::Stage target = api::Stage::kExported;
  args.read("--to", &target, api::stage_from_string);
  const auto* out_dir = args.required("--out", "gen");
  const auto* server = args.value_of("--server");
  if (const auto error = args.error(); !error.empty()) return usage(error);
  if (!family) return usage("gen requires --family");
  gopt.family = *family;
  auto request = serve::make_request(serve::RequestKind::kGen);
  request.set("gen", api::to_json(gopt));
  request.set("options", api::to_json(options));
  request.set("target", api::to_string(target));
  return finish_flow(run_request(server, std::move(request)), *out_dir);
}

int cmd_resume(Args& args) {
  apply_cache_dir(args);
  api::Stage target = api::Stage::kExported;
  args.read("--to", &target, api::stage_from_string);
  const bool route = args.has_switch("--route");
  const auto* server = args.value_of("--server");
  if (const auto error = args.error(); !error.empty()) return usage(error);
  const std::string dir = args.positional();
  if (dir.empty()) return usage("resume requires a session directory");
  auto session = api::read_artifact(
      (std::filesystem::path(dir) / "flow.json").string(), "flow");
  if (!session.ok()) return fail(session.error().to_string());
  auto request = serve::make_request(serve::RequestKind::kResume);
  request.set("session", std::move(session).value());
  request.set("target", api::to_string(target));
  if (route) request.set("route", true);
  return finish_flow(run_request(server, std::move(request)), dir);
}

int cmd_jobs(Args& args) {
  std::vector<layout::Tech> techs = {layout::Tech::kCnfet65};
  args.read_all("--tech", &techs, api::tech_from_string);
  api::Stage target = api::Stage::kExported;
  args.read("--to", &target, api::stage_from_string);
  const auto* out = args.required("--out", "jobs");
  if (const auto error = args.error(); !error.empty()) return usage(error);
  auto jobs = api::family_jobs(techs);
  for (auto& job : jobs) job.target = target;
  const auto saved = api::save_jobs(jobs, *out);
  if (!saved.ok()) return fail(saved.error().to_string());
  std::printf("wrote %zu jobs to %s\n", jobs.size(), saved.value().c_str());
  return 0;
}

int cmd_batch(Args& args) {
  apply_cache_dir(args);
  int threads = 1;
  args.read("--threads", &threads, 0);
  const bool fail_fast = args.has_switch("--fail-fast");
  const auto* report_path = args.value_of("--report");
  if (const auto error = args.error(); !error.empty()) return usage(error);
  const std::string jobs_path = args.positional();
  if (jobs_path.empty()) return usage("batch requires a jobs.json path");
  auto jobs = api::load_jobs(jobs_path);
  if (!jobs.ok()) return fail(jobs.error().to_string());
  auto request = serve::make_request(serve::RequestKind::kBatch);
  util::json::Value jobs_json = util::json::Value::array();
  for (const auto& job : jobs.value()) jobs_json.push_back(api::to_json(job));
  request.set("jobs", std::move(jobs_json));
  request.set("num_threads", threads);
  if (fail_fast) request.set("fail_fast", true);
  auto response = run_request(nullptr, std::move(request));
  const util::json::Value* report_json = result_of(response, "report");
  if (report_json == nullptr) return 1;
  const auto report = api::flow_report_from_json(*report_json);
  std::printf("%s", report.to_string().c_str());
  if (report_path != nullptr) {
    const auto saved = api::save_report(report, *report_path);
    if (!saved.ok()) return fail(saved.error().to_string());
    std::printf("wrote %s\n", saved.value().c_str());
  }
  print_cache_notes();
  return report.num_failed() == 0 ? 0 : 1;
}

int cmd_monte_carlo(Args& args) {
  int trials = 100000, threads = 1;
  std::uint64_t seed = 1;
  args.read("--trials", &trials, 1);
  args.read("--seed", &seed);
  args.read("--threads", &threads, 0);
  const bool histogram = args.has_switch("--histogram");
  const auto* cell = args.required("--cell", "monte-carlo");
  const auto* out_file = args.value_of("--out");
  const auto* server = args.value_of("--server");
  if (const auto error = args.error(); !error.empty()) return usage(error);

  auto request = serve::make_request(serve::RequestKind::kMonteCarlo);
  request.set("cell", *cell);
  request.set("trials", trials);
  // A decimal string: a JSON number would round seeds above 2^53.
  request.set("seed", std::to_string(seed));
  request.set("threads", threads);
  auto response = run_request(server, std::move(request));
  const util::json::Value* mc_json = result_of(response, "mc");
  if (mc_json == nullptr) return 1;
  const auto mc = api::monte_carlo_result_from_json(*mc_json);
  std::printf("%s: %d trials, %d failing (yield %.6f), "
              "%lld tubes, %lld stray shorts, %lld stray chains\n",
              cell->c_str(), mc.trials, mc.failing_trials, mc.yield(),
              static_cast<long long>(mc.tubes_sampled),
              static_cast<long long>(mc.stray_shorts),
              static_cast<long long>(mc.stray_chains));
  if (histogram) {
    std::printf("per-trial effect-count histograms "
                "(last bucket saturates):\n");
    std::printf("%8s %12s %12s\n", "count", "shorts", "chains");
    for (std::size_t b = 0; b < mc.shorts_histogram.size(); ++b) {
      const long long shorts = mc.shorts_histogram[b];
      const long long chains =
          b < mc.chains_histogram.size() ? mc.chains_histogram[b] : 0;
      if (shorts == 0 && chains == 0) continue;
      std::printf("%7zu%s %12lld %12lld\n", b,
                  b + 1 == mc.shorts_histogram.size() ? "+" : " ", shorts,
                  chains);
    }
  }
  return out_file != nullptr
             ? write_bytes(*out_file, util::json::dump(*mc_json, 2))
             : 0;
}

int cmd_ping(const std::string& server) {
  auto client = serve::Client::connect(server);
  if (!client.ok() || !client.value().ping()) {
    return fail("no pong from " + server);
  }
  std::printf("pong from %s\n", server.c_str());
  return 0;
}

int cmd_stop(const std::string& server) {
  auto client = serve::Client::connect(server);
  if (!client.ok()) return fail(client.error().to_string());
  auto response =
      client.value().call(serve::make_request(serve::RequestKind::kShutdown));
  if (!response.ok() || !response.value().get_bool("ok")) {
    return fail("shutdown request to " + server + " failed");
  }
  std::printf("%s is draining and will stop\n", server.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Args args(argc, argv, 2);
  if (command == "compile") return cmd_compile(args);
  if (command == "gen") return cmd_gen(args);
  if (command == "batch") return cmd_batch(args);
  if (command == "resume") return cmd_resume(args);
  if (command == "jobs") return cmd_jobs(args);
  if (command == "monte-carlo") return cmd_monte_carlo(args);
  if (command == "serve") return serve::daemon_main(argc - 1, argv + 1);
  if (command == "ping" || command == "stop") {
    const auto* server = args.required("--server", command);
    if (const auto error = args.error(); !error.empty()) return usage(error);
    return command == "ping" ? cmd_ping(*server) : cmd_stop(*server);
  }
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  return usage("unknown command \"" + command + "\"");
}
