// cnfetc — the shell driver for persistent compiler sessions.
//
// Every paper table is reproducible without writing C++:
//
//   cnfetc compile --cell NAND3 --tech cnfet65 --out sessions/nand3/
//   cnfetc batch jobs.json --threads 8 --report report.json
//   cnfetc resume sessions/nand3/ --to exported
//
// The flow verbs (compile, gen, resume, monte-carlo) only parse their
// flags into a request envelope (serve::make_request). The request then
// runs through serve::execute in this process, or goes to a running
// cnfetd with --server HOST:PORT; either way one response writer turns
// the response into the session dir (flow.json, design.gds), the --out
// file and the summary lines, so local and served runs write the same
// bytes. `batch` executes a serialized std::vector<FlowJob> (jobs.json)
// through api::run_batch and writes the serialized FlowReport
// (report.json). --cache-dir enables the LibraryCache disk tier so
// repeated invocations skip characterization.
//
// `serve` runs the cnfetd compile server in-process (same flags as
// cnfetd); `ping`/`stop` are the matching health check and graceful stop.
//
// Exit codes: 0 success, 1 a flow/job failed, 2 usage error.
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/batch.hpp"
#include "api/serialize.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/execute.hpp"

namespace {

using namespace cnfet;

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

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "cnfetc: %s\n\n", error);
  print_usage(stderr);
  return 2;
}

/// Tiny flag cursor: --name value pairs plus boolean switches.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// Positional arguments are whatever never matched a flag lookup.
  [[nodiscard]] const std::vector<std::string>& raw() const { return args_; }

  [[nodiscard]] bool has_switch(const std::string& name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == name) {
        consumed_[i] = true;
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] const std::string* value_of(const std::string& name) {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) {
        consumed_[i] = true;
        consumed_[i + 1] = true;
        return &args_[i + 1];
      }
    }
    return nullptr;
  }

  /// Every value of a repeatable flag (`--tech cnfet65 --tech cmos65`).
  [[nodiscard]] std::vector<std::string> values_of(const std::string& name) {
    std::vector<std::string> values;
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) {
        consumed_[i] = true;
        consumed_[i + 1] = true;
        values.push_back(args_[i + 1]);
      }
    }
    return values;
  }

  /// First argument not consumed by a flag ("" when there is none).
  [[nodiscard]] std::string positional() const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (consumed_.count(i) == 0 && args_[i].rfind("--", 0) != 0) {
        return args_[i];
      }
    }
    return {};
  }

  /// An unconsumed --flag nobody asked for (typo detection).
  [[nodiscard]] std::string unknown_flag() const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (consumed_.count(i) == 0 && args_[i].rfind("--", 0) == 0) {
        return args_[i];
      }
    }
    return {};
  }

 private:
  std::vector<std::string> args_;
  std::map<std::size_t, bool> consumed_;
};

void apply_cache_dir(Args& args) {
  if (const auto* dir = args.value_of("--cache-dir")) {
    api::LibraryCache::global().set_cache_dir(*dir);
  }
}

/// Parses a whole numeric flag with std::from_chars: integers are digits
/// only (no sign, no space), doubles must be finite. A malformed flag is
/// a usage error, not a SIGABRT or a value nobody typed.
template <typename T>
bool parse_number(const std::string& text, T* out) {
  if constexpr (std::is_integral_v<T>) {
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
      return false;
    }
  }
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, *out);
  if (error != std::errc() || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(*out);
  return true;
}

/// Prints the disk-tier notices (loads, stores, fallbacks) once at exit.
void print_cache_notes() {
  const auto diags = api::LibraryCache::global().diagnostics();
  if (!diags.empty()) std::printf("%s", diags.to_string().c_str());
}

util::Result<api::Stage> target_stage(Args& args) {
  if (const auto* name = args.value_of("--to")) {
    return api::stage_from_string(*name);
  }
  return api::Stage::kExported;
}

/// The flow flags compile and gen share. Returns a usage error message, or
/// "" when every flag parsed.
std::string parse_flow_options(Args& args, api::FlowOptions* options) {
  if (const auto* tech = args.value_of("--tech")) {
    auto parsed = api::tech_from_string(*tech);
    if (!parsed.ok()) return parsed.error().message;
    options->tech = parsed.value();
  }
  if (const auto* drive = args.value_of("--drive")) {
    if (!parse_number(*drive, &options->drive)) {
      return "--drive is not a number: " + *drive;
    }
  }
  options->optimize = args.has_switch("--optimize");
  options->route = args.has_switch("--route");
  if (const auto* top = args.value_of("--top")) options->top_name = *top;
  return {};
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

/// Writes a compile/gen/resume response into the session dir: flow.json
/// (the session payload in its artifact envelope), design.gds (decoded
/// from gds_hex), and the one-line metrics summary.
int finish_flow(util::Result<util::json::Value> response,
                const std::string& dir) {
  if (!response.ok()) {
    std::fprintf(stderr, "cnfetc: %s\n", response.error().to_string().c_str());
    return 1;
  }
  util::json::Value& doc = response.value();
  std::printf("%s", serve::response_diagnostics(doc).to_string().c_str());
  const util::json::Value* found = doc.find("result");
  if (found == nullptr || !found->is_object()) {
    std::fprintf(stderr, "cnfetc: response carries no result object\n");
    return 1;
  }
  // Moved out, not copied: a 10k-gate session payload is tens of MB.
  util::json::Value result = doc.take("result");
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
      std::fprintf(stderr, "cnfetc: save failed: %s\n",
                   saved.error().to_string().c_str());
      return 1;
    }
    std::printf("session saved to %s\n", saved.value().c_str());
  }
  if (has_gds) {
    auto bytes = serve::from_hex(result.get_string("gds_hex"));
    if (!bytes.ok()) {
      std::fprintf(stderr, "cnfetc: %s\n", bytes.error().to_string().c_str());
      return 1;
    }
    const auto path = (std::filesystem::path(dir) / "design.gds").string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.value().data(),
              static_cast<std::streamsize>(bytes.value().size()));
    if (!out) {
      std::fprintf(stderr, "cnfetc: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
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
  return doc.get_bool("ok") ? 0 : 1;
}

int cmd_compile(Args& args) {
  apply_cache_dir(args);
  const auto* cell = args.value_of("--cell");
  const auto* out_dir = args.value_of("--out");
  if (cell == nullptr) return usage("compile requires --cell");
  if (out_dir == nullptr) return usage("compile requires --out");
  api::FlowJob job;
  job.cell = *cell;
  if (const auto error = parse_flow_options(args, &job.options);
      !error.empty()) {
    return usage(error.c_str());
  }
  if (const auto* drive = args.value_of("--output-drive")) {
    if (!parse_number(*drive, &job.options.output_drive)) {
      return usage(("--output-drive is not a number: " + *drive).c_str());
    }
  }
  const auto target = target_stage(args);
  if (!target.ok()) return usage(target.error().message.c_str());
  job.target = target.value();
  const auto* server = args.value_of("--server");
  if (const auto flag = args.unknown_flag(); !flag.empty()) {
    return usage(("unknown flag " + flag).c_str());
  }
  auto request = serve::make_request(serve::RequestKind::kCompile);
  request.set("job", api::to_json(job));
  return finish_flow(run_request(server, std::move(request)), *out_dir);
}

int cmd_gen(Args& args) {
  apply_cache_dir(args);
  const auto* family_name = args.value_of("--family");
  const auto* out_dir = args.value_of("--out");
  if (family_name == nullptr) return usage("gen requires --family");
  if (out_dir == nullptr) return usage("gen requires --out");
  gen::GenOptions gopt;
  const auto family = gen::family_from_string(*family_name);
  if (!family.ok()) return usage(family.error().message.c_str());
  gopt.family = family.value();
  for (const auto& [flag, field] :
       {std::pair{"--width", &gopt.width},
        std::pair{"--gates", &gopt.target_gates},
        std::pair{"--inputs", &gopt.num_inputs}}) {
    if (const auto* value = args.value_of(flag)) {
      if (!parse_number(*value, field) || *field < 1) {
        return usage((std::string(flag) + " is not a positive integer: " +
                      *value)
                         .c_str());
      }
    }
  }
  if (const auto* seed = args.value_of("--seed")) {
    if (!parse_number(*seed, &gopt.seed)) {
      return usage(("--seed is not a uint64: " + *seed).c_str());
    }
  }
  api::FlowOptions options;
  if (const auto error = parse_flow_options(args, &options); !error.empty()) {
    return usage(error.c_str());
  }
  gopt.drive = options.drive;
  const auto target = target_stage(args);
  if (!target.ok()) return usage(target.error().message.c_str());
  const auto* server = args.value_of("--server");
  if (const auto flag = args.unknown_flag(); !flag.empty()) {
    return usage(("unknown flag " + flag).c_str());
  }
  auto request = serve::make_request(serve::RequestKind::kGen);
  request.set("gen", api::to_json(gopt));
  request.set("options", api::to_json(options));
  request.set("target", api::to_string(target.value()));
  return finish_flow(run_request(server, std::move(request)), *out_dir);
}

int cmd_resume(Args& args) {
  apply_cache_dir(args);
  // Flags first: positional() only knows a token is a flag *value* (not
  // the positional) once the flag lookups have consumed it.
  const auto target = target_stage(args);
  if (!target.ok()) return usage(target.error().message.c_str());
  const bool route = args.has_switch("--route");
  const auto* server = args.value_of("--server");
  if (const auto flag = args.unknown_flag(); !flag.empty()) {
    return usage(("unknown flag " + flag).c_str());
  }
  const std::string dir = args.positional();
  if (dir.empty()) return usage("resume requires a session directory");
  auto session = api::read_artifact(
      (std::filesystem::path(dir) / "flow.json").string(), "flow");
  if (!session.ok()) {
    std::fprintf(stderr, "cnfetc: %s\n", session.error().to_string().c_str());
    return 1;
  }
  auto request = serve::make_request(serve::RequestKind::kResume);
  request.set("session", std::move(session).value());
  request.set("target", api::to_string(target.value()));
  if (route) request.set("route", true);
  return finish_flow(run_request(server, std::move(request)), dir);
}

int cmd_jobs(Args& args) {
  const auto* out = args.value_of("--out");
  if (out == nullptr) return usage("jobs requires --out");
  std::vector<layout::Tech> techs;
  for (const auto& name : args.values_of("--tech")) {
    auto parsed = api::tech_from_string(name);
    if (!parsed.ok()) return usage(parsed.error().message.c_str());
    techs.push_back(parsed.value());
  }
  if (techs.empty()) techs.push_back(layout::Tech::kCnfet65);
  auto jobs = api::family_jobs(techs);
  if (const auto* target = args.value_of("--to")) {
    auto stage = api::stage_from_string(*target);
    if (!stage.ok()) return usage(stage.error().message.c_str());
    for (auto& job : jobs) job.target = stage.value();
  }
  if (const auto flag = args.unknown_flag(); !flag.empty()) {
    return usage(("unknown flag " + flag).c_str());
  }
  const auto saved = api::save_jobs(jobs, *out);
  if (!saved.ok()) {
    std::fprintf(stderr, "cnfetc: %s\n", saved.error().to_string().c_str());
    return 1;
  }
  std::printf("wrote %zu jobs to %s\n", jobs.size(), saved.value().c_str());
  return 0;
}

int cmd_batch(Args& args) {
  apply_cache_dir(args);
  // Flags first — see cmd_resume.
  api::BatchOptions options;
  if (const auto* threads = args.value_of("--threads")) {
    if (!parse_number(*threads, &options.num_threads)) {
      return usage(("--threads is not an integer: " + *threads).c_str());
    }
  }
  if (args.has_switch("--fail-fast")) options.fail_fast = true;
  const auto* report_path = args.value_of("--report");
  if (const auto flag = args.unknown_flag(); !flag.empty()) {
    return usage(("unknown flag " + flag).c_str());
  }
  const std::string jobs_path = args.positional();
  if (jobs_path.empty()) return usage("batch requires a jobs.json path");
  auto jobs = api::load_jobs(jobs_path);
  if (!jobs.ok()) {
    std::fprintf(stderr, "cnfetc: %s\n", jobs.error().to_string().c_str());
    return 1;
  }
  const auto report = api::run_batch(jobs.value(), options);
  std::printf("%s", report.to_string().c_str());
  if (report_path != nullptr) {
    const auto saved = api::save_report(report, *report_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "cnfetc: %s\n", saved.error().to_string().c_str());
      return 1;
    }
    std::printf("wrote %s\n", saved.value().c_str());
  }
  print_cache_notes();
  return report.num_failed() == 0 ? 0 : 1;
}

int cmd_monte_carlo(Args& args) {
  const auto* cell = args.value_of("--cell");
  if (cell == nullptr) return usage("monte-carlo requires --cell");
  int trials = 100000;
  if (const auto* t = args.value_of("--trials")) {
    if (!parse_number(*t, &trials) || trials <= 0) {
      return usage(("--trials is not a positive integer: " + *t).c_str());
    }
  }
  std::uint64_t seed = 1;
  if (const auto* s = args.value_of("--seed")) {
    if (!parse_number(*s, &seed)) {
      return usage(("--seed is not a uint64: " + *s).c_str());
    }
  }
  int threads = 1;
  if (const auto* t = args.value_of("--threads")) {
    if (!parse_number(*t, &threads)) {
      return usage(("--threads is not an integer: " + *t).c_str());
    }
  }
  const bool histogram = args.has_switch("--histogram");
  const auto* out_file = args.value_of("--out");
  const auto* server = args.value_of("--server");
  if (const auto flag = args.unknown_flag(); !flag.empty()) {
    return usage(("unknown flag " + flag).c_str());
  }

  auto request = serve::make_request(serve::RequestKind::kMonteCarlo);
  request.set("cell", *cell);
  request.set("trials", trials);
  request.set("seed", static_cast<std::int64_t>(seed));
  request.set("threads", threads);
  const auto response = run_request(server, std::move(request));
  if (!response.ok()) {
    std::fprintf(stderr, "cnfetc: %s\n", response.error().to_string().c_str());
    return 1;
  }
  std::printf("%s", serve::response_diagnostics(response.value())
                        .to_string()
                        .c_str());
  if (!response.value().get_bool("ok")) return 1;
  const util::json::Value* result = response.value().find("result");
  const util::json::Value* mc_json =
      result != nullptr ? result->find("mc") : nullptr;
  if (mc_json == nullptr) {
    std::fprintf(stderr, "cnfetc: response carries no mc result\n");
    return 1;
  }
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
  if (out_file != nullptr) {
    std::ofstream out(*out_file, std::ios::binary | std::ios::trunc);
    out << util::json::dump(*mc_json, 2);
    if (!out.good()) {
      std::fprintf(stderr, "cnfetc: cannot write %s\n", out_file->c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_file->c_str());
  }
  return 0;
}

int cmd_ping(Args& args) {
  const auto* server = args.value_of("--server");
  if (server == nullptr) return usage("ping requires --server HOST:PORT");
  if (const auto flag = args.unknown_flag(); !flag.empty()) {
    return usage(("unknown flag " + flag).c_str());
  }
  auto client = serve::Client::connect(*server);
  if (!client.ok() || !client.value().ping()) {
    std::fprintf(stderr, "cnfetc: no pong from %s\n", server->c_str());
    return 1;
  }
  std::printf("pong from %s\n", server->c_str());
  return 0;
}

int cmd_stop(Args& args) {
  const auto* server = args.value_of("--server");
  if (server == nullptr) return usage("stop requires --server HOST:PORT");
  if (const auto flag = args.unknown_flag(); !flag.empty()) {
    return usage(("unknown flag " + flag).c_str());
  }
  auto client = serve::Client::connect(*server);
  if (!client.ok()) {
    std::fprintf(stderr, "cnfetc: %s\n", client.error().to_string().c_str());
    return 1;
  }
  auto response =
      client.value().call(serve::make_request(serve::RequestKind::kShutdown));
  if (!response.ok() || !response.value().get_bool("ok")) {
    std::fprintf(stderr, "cnfetc: shutdown request to %s failed\n",
                 server->c_str());
    return 1;
  }
  std::printf("%s is draining and will stop\n", server->c_str());
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
  if (command == "ping") return cmd_ping(args);
  if (command == "stop") return cmd_stop(args);
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(stdout);
    return 0;
  }
  return usage(("unknown command \"" + command + "\"").c_str());
}
