#include "serve/execute.hpp"

#include <sstream>
#include <utility>

#include "api/batch.hpp"
#include "api/serialize.hpp"
#include "cnt/analyzer.hpp"
#include "gds/gds.hpp"
#include "layout/cells.hpp"
#include "util/args.hpp"

namespace cnfet::serve {

namespace json = util::json;

namespace {

/// The api:: boundary contract — no exception escapes a request; anything
/// thrown becomes an error response for THIS request, and the caller (a
/// server connection or a cnfetc process) lives on.
template <typename Fn>
json::Value guarded(const Request& request, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return error_response(to_string(request.kind), request.id, "serve",
                          e.what());
  }
}

/// An error response carrying the one Diagnostic that stopped the request.
json::Value failure(const Request& request, const util::Diagnostic& error) {
  util::Diagnostics diags;
  diags.add(error);
  return error_response(to_string(request.kind), request.id, diags);
}

/// The GDS stream as bytes in memory — the same gds::write a local
/// Flow::write_gds performs, minus the file.
std::string gds_bytes(const api::Flow& flow) {
  std::ostringstream out(std::ios::binary);
  gds::write(flow.exported()->gds, out);
  return out.str();
}

/// Shared tail of compile/resume/gen: run to `target`, package stage,
/// metrics, session payload and (when exported) the GDS stream.
json::Value finish_flow_request(const Request& request, api::Flow& flow,
                                api::Stage target) {
  const auto reached = flow.run(target);
  json::Value result = json::Value::object();
  result.set("reached", api::to_string(flow.stage()));
  result.set("metrics", api::to_json(flow.metrics()));
  auto session = flow.session_json();
  if (session.ok()) {
    result.set("session", std::move(session).value());
  }
  if (flow.exported() != nullptr) {
    result.set("gds_hex", to_hex(gds_bytes(flow)));
  }
  if (!reached.ok() || !session.ok()) {
    util::Diagnostics diags = flow.diagnostics();
    if (!session.ok()) diags.add(session.error());
    json::Value response = error_response(to_string(request.kind), request.id,
                                          diags);
    response.set("result", std::move(result));
    return response;
  }
  return ok_response(request, std::move(result), flow.diagnostics());
}

api::Stage target_from(const json::Value& payload) {
  const json::Value* target = payload.find("target");
  if (target == nullptr) return api::Stage::kExported;
  auto stage = api::stage_from_string(target->as_string());
  if (!stage.ok()) throw util::Error(stage.error().message);
  return stage.value();
}

/// Refuses a generator size beyond RequestLimits before generate()
/// allocates anything.
void check_gen_limits(const gen::GenOptions& gopt) {
  const auto cap = [&](const char* field, int value, int limit) {
    if (value > limit) {
      throw util::Error(std::string("gen ") + field + " " +
                        std::to_string(value) + " exceeds the limit of " +
                        std::to_string(limit) + " for family " +
                        gen::to_string(gopt.family));
    }
  };
  switch (gopt.family) {
    case gen::Family::kRippleCarryAdder:
    case gen::Family::kCarryLookaheadAdder:
      return cap("width", gopt.width, RequestLimits::kMaxAdderWidth);
    case gen::Family::kArrayMultiplier:
      return cap("width", gopt.width, RequestLimits::kMaxMultiplierWidth);
    case gen::Family::kRandomDag:
      cap("target_gates", gopt.target_gates, RequestLimits::kMaxRandomGates);
      return cap("num_inputs", gopt.num_inputs,
                 RequestLimits::kMaxRandomInputs);
  }
}

/// Refuses a request field outside [lo, hi], naming the field and range.
int require_in_range(const char* field, int value, int lo, int hi) {
  if (value < lo || value > hi) {
    throw util::Error(std::string(field) + " must be in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) +
                      "], got " + std::to_string(value));
  }
  return value;
}

/// An optional thread-count field (0 = every hardware thread), refused
/// beyond RequestLimits::kMaxThreads.
int threads_field(const json::Value& payload, const char* field) {
  const json::Value* t = payload.find(field);
  if (t == nullptr) return 1;
  return require_in_range(field, t->as_int(), 0, RequestLimits::kMaxThreads);
}

json::Value compile(const Request& request) {
  const api::FlowJob job = api::flow_job_from_json(request.payload.at("job"));
  auto flow = api::Flow::from_job(job);
  if (!flow.ok()) return failure(request, flow.error());
  return finish_flow_request(request, flow.value(), job.target);
}

json::Value resume(const Request& request) {
  auto flow =
      api::Flow::resume_json(request.payload.at("session"), "<request>");
  if (!flow.ok()) return failure(request, flow.error());
  // Optional routing override (cnfetc resume --route): flips the knob
  // before the remaining stages run.
  if (const json::Value* r = request.payload.find("route")) {
    flow.value().set_route(r->as_bool());
  }
  return finish_flow_request(request, flow.value(),
                             target_from(request.payload));
}

json::Value generate(const Request& request) {
  const gen::GenOptions gopt =
      api::gen_options_from_json(request.payload.at("gen"));
  check_gen_limits(gopt);
  api::FlowOptions options;
  if (const json::Value* o = request.payload.find("options")) {
    options = api::flow_options_from_json(*o);
  }
  // The generator needs the characterized library up front (the flow
  // would otherwise resolve it itself inside from_netlist).
  auto library = api::LibraryCache::global().get(options.tech);
  if (!library.ok()) return failure(request, library.error());
  options.library = library.value();
  gen::Generated design = gen::generate(*options.library, gopt);
  // Flow::from_cell's rule: the default "TOP" names the top after the
  // design, any other name is kept.
  if (options.top_name == "TOP") options.top_name = design.name;
  auto flow = api::Flow::from_netlist(std::move(design.netlist), options);
  if (!flow.ok()) return failure(request, flow.error());
  return finish_flow_request(request, flow.value(),
                             target_from(request.payload));
}

json::Value sta(const Request& request) {
  const api::FlowJob job = api::flow_job_from_json(request.payload.at("job"));
  auto flow = api::Flow::from_job(job);
  if (!flow.ok()) return failure(request, flow.error());
  auto& f = flow.value();
  if (!f.run(api::Stage::kTimed).ok()) {
    return error_response(to_string(request.kind), request.id,
                          f.diagnostics());
  }
  json::Value result = json::Value::object();
  result.set("metrics", api::to_json(f.metrics()));
  result.set("sta", api::to_json(f.timed()->timing));
  return ok_response(request, std::move(result), f.diagnostics());
}

json::Value monte_carlo(const Request& request) {
  const std::string& cell = request.payload.get_string("cell");
  const int trials = require_in_range("trials",
                                      request.payload.get_int("trials"), 1,
                                      RequestLimits::kMaxTrials);
  // A decimal string carries every uint64 seed (`cnfetc` sends that); a
  // JSON number is exact only up to 2^53.
  std::uint64_t seed = 1;
  if (const json::Value* s = request.payload.find("seed")) {
    if (!s->is_string()) {
      seed = static_cast<std::uint64_t>(s->as_int64());
    } else if (!util::parse_whole(s->as_string(), &seed)) {
      throw util::Error("seed is not a uint64: \"" + s->as_string() + "\"");
    }
  }
  const int threads = threads_field(request.payload, "threads");
  const auto built = layout::build_cell(layout::find_cell_spec(cell));
  const auto mc = cnt::monte_carlo(built.layout, built.netlist, built.function,
                                   cnt::TubeModel{}, trials, seed, threads);
  json::Value result = json::Value::object();
  result.set("cell", cell);
  result.set("trials", mc.trials);
  result.set("failing_trials", mc.failing_trials);
  result.set("tubes_sampled", mc.tubes_sampled);
  result.set("stray_shorts", mc.stray_shorts);
  result.set("stray_chains", mc.stray_chains);
  result.set("yield", mc.yield());
  // The full serialized result, histograms included: what `cnfetc
  // monte-carlo --out` writes.
  result.set("mc", api::to_json(mc));
  return ok_response(request, std::move(result), {});
}

json::Value batch(const Request& request) {
  const auto& items = request.payload.at("jobs").items();
  if (items.size() > static_cast<std::size_t>(RequestLimits::kMaxBatchJobs)) {
    throw util::Error("batch of " + std::to_string(items.size()) +
                      " jobs exceeds the limit of " +
                      std::to_string(RequestLimits::kMaxBatchJobs));
  }
  std::vector<api::FlowJob> jobs;
  for (const auto& job : items) {
    jobs.push_back(api::flow_job_from_json(job));
  }
  api::BatchOptions options;
  options.num_threads = threads_field(request.payload, "num_threads");
  if (const json::Value* f = request.payload.find("fail_fast")) {
    options.fail_fast = f->as_bool();
  }
  const api::FlowReport report = api::run_batch(jobs, options);
  json::Value result = json::Value::object();
  result.set("report", api::to_json(report));
  result.set("num_ok", report.num_ok());
  result.set("num_failed", report.num_failed());
  return ok_response(request, std::move(result), {});
}

}  // namespace

json::Value execute(const Request& request) {
  return guarded(request, [&] {
    switch (request.kind) {
      case RequestKind::kCompile:
        return compile(request);
      case RequestKind::kResume:
        return resume(request);
      case RequestKind::kGen:
        return generate(request);
      case RequestKind::kSta:
        return sta(request);
      case RequestKind::kMonteCarlo:
        return monte_carlo(request);
      case RequestKind::kBatch:
        return batch(request);
      default:
        return error_response(to_string(request.kind), request.id, "serve",
                              "request kind is answered by the server, not "
                              "the request engine");
    }
  });
}

}  // namespace cnfet::serve
