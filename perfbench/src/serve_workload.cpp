// serve_mix: load against an in-process serve::Server on loopback. A
// seeded schedule mixes warm cell compiles across the Table-1 family on
// both techs, sta, small monte_carlo, small routed gen and ping, offered
// open loop at a ladder of fixed rates and then closed loop.
//
// Open loop: each request is due at its scheduled time whether or not
// earlier ones finished. load_cap() client connections (each one request
// at a time, as serve::Client is synchronous) take the next due
// request as they free up, so a stall delays later sends; latency is
// measured from the due time, and the generator's lateness (send - due)
// is reported per rung. Closed loop: every connection sends its next
// request as soon as the last one returns, so the server runs at its
// capacity. Every response is checked against the direct in-process api::
// path for the same request.
//
// End-to-end: setup (cold characterization of both techs, server start
// and warm), p50/p99 latency at the nominal (first) rung, and the
// closed-loop capacity in requests/s.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "api/batch.hpp"
#include "api/flow.hpp"
#include "api/library_cache.hpp"
#include "api/serialize.hpp"
#include "cnt/analyzer.hpp"
#include "common.hpp"
#include "drc/drc.hpp"
#include "gds/gds.hpp"
#include "layout/cells.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace cnfet;
namespace json = util::json;

enum class Kind { kCompile, kSta, kMonteCarlo, kGen, kPing };
constexpr int kKinds = 5;

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCompile:
      return "compile";
    case Kind::kSta:
      return "sta";
    case Kind::kMonteCarlo:
      return "monte_carlo";
    case Kind::kGen:
      return "gen";
    case Kind::kPing:
      return "ping";
  }
  return "?";
}

/// Requests of each kind in one round of the mix, in Kind order: one
/// round of the scripted mix in bench/bench_serve.cpp (six compiles across
/// the Table-1 family, one sta, one monte_carlo, one ping) plus one routed
/// gen, the path that script leaves out.
constexpr int kPerRound[kKinds] = {6, 1, 1, 1, 1};

/// The open-loop ladder's offered rates (requests/s); the first is
/// nominal. They are 25%, 50% and 75% of the mix's closed-loop capacity
/// at the commit that added the benchmark (kReferenceCapacity, 4 hardware
/// threads), fixed so every commit is offered the same load.
constexpr double kReferenceCapacity = 550.0;
constexpr double kRates[] = {0.25 * kReferenceCapacity,
                             0.5 * kReferenceCapacity,
                             0.75 * kReferenceCapacity};
constexpr int kOpenRungs = 3;
/// Share of the run's seconds per open rung, then for the closed-loop
/// rung. In a 15 s run the nominal rung gets about 930 requests, so its
/// tail with ten samples beyond it sits near p99.
constexpr double kRungShare[] = {0.45, 0.15, 0.15, 0.25};

const std::vector<layout::Tech> kTechs = {layout::Tech::kCnfet65,
                                          layout::Tech::kCmos65};

/// One distinct request of the mix, prebuilt, with the digest of the
/// answer the direct api:: path gives for it.
struct Template {
  Kind kind = Kind::kPing;
  json::Value request;
  std::uint64_t answer = 0;
};

/// The part of a response's result that must equal the direct path, as
/// one digest: GDS stream and metrics for compiles, the timing for sta,
/// the full Monte Carlo result (histograms included), pong for ping.
std::uint64_t answer_digest(Kind kind, const json::Value& result) {
  switch (kind) {
    case Kind::kCompile:
    case Kind::kGen:
      return json::fnv1a64(result.get_string("gds_hex") + "|" +
                           json::dump(result.at("metrics")));
    case Kind::kSta:
      return json::fnv1a64(json::dump(result.at("sta")));
    case Kind::kMonteCarlo:
      return json::fnv1a64(json::dump(result.at("mc")));
    case Kind::kPing:
      return result.get_bool("pong") ? 1 : 0;
  }
  return 0;
}

std::string gds_bytes(const api::Flow& flow) {
  std::ostringstream out(std::ios::binary);
  gds::write(flow.exported()->gds, out);
  return out.str();
}

/// The result object a correct compile or gen response carries, built on
/// the direct api::Flow path.
json::Value direct_flow_result(api::Flow& flow) {
  if (!flow.run(api::Stage::kExported).ok()) {
    throw util::Error("direct flow failed: " + flow.diagnostics().to_string());
  }
  json::Value result = json::Value::object();
  result.set("metrics", api::to_json(flow.metrics()));
  result.set("gds_hex", serve::to_hex(gds_bytes(flow)));
  return result;
}

std::vector<Template> build_templates(bool tiny) {
  std::vector<Template> templates;
  for (const api::FlowJob& job : api::family_jobs(kTechs)) {
    Template t;
    t.kind = Kind::kCompile;
    t.request = serve::make_request(serve::RequestKind::kCompile);
    t.request.set("job", api::to_json(job));
    auto flow = api::Flow::from_cell(job.cell, job.options);
    if (!flow.ok()) throw util::Error(flow.error().to_string());
    t.answer = answer_digest(t.kind, direct_flow_result(flow.value()));
    templates.push_back(std::move(t));

    if (job.options.tech != layout::Tech::kCnfet65) continue;
    Template sta;
    sta.kind = Kind::kSta;
    sta.request = serve::make_request(serve::RequestKind::kSta);
    sta.request.set("job", api::to_json(job));
    auto timed = api::Flow::from_cell(job.cell, job.options);
    if (!timed.ok() || !timed.value().run(api::Stage::kTimed).ok()) {
      throw util::Error("direct sta failed for " + job.cell);
    }
    json::Value result = json::Value::object();
    result.set("sta", api::to_json(timed.value().timed()->timing));
    sta.answer = answer_digest(sta.kind, result);
    templates.push_back(std::move(sta));
  }
  // A served monte_carlo stays small, like every request of the mix: 2,000
  // trials, a tenth of an mc_tier1 call and ten times bench_serve's 200,
  // so its cnt work still outweighs the request's fixed costs.
  const int trials = tiny ? 100 : 2000;
  for (const char* cell : {"NAND2", "NAND3", "AOI21", "AOI22"}) {
    const auto built = layout::build_cell(layout::find_cell_spec(cell));
    for (std::int64_t seed = 1; seed <= 4; ++seed) {
      Template t;
      t.kind = Kind::kMonteCarlo;
      t.request = serve::make_request(serve::RequestKind::kMonteCarlo);
      t.request.set("cell", cell);
      t.request.set("trials", trials);
      t.request.set("seed", seed);
      const auto mc = cnt::monte_carlo(
          built.layout, built.netlist, built.function, cnt::TubeModel{},
          trials, static_cast<std::uint64_t>(seed), 1);
      json::Value result = json::Value::object();
      result.set("mc", api::to_json(mc));
      t.answer = answer_digest(t.kind, result);
      templates.push_back(std::move(t));
    }
  }
  // The RCA family routed_rca10k routes at scale, at 24 bits (216 gates):
  // the size of the served gen in the serve tests (200 gates). One size,
  // so the mix's tail sits on one latency level instead of hopping
  // between sizes from seed to seed.
  for (const int width : {24}) {
    gen::GenOptions gopt;
    gopt.family = gen::Family::kRippleCarryAdder;
    gopt.width = width;
    api::FlowOptions options;
    options.route = true;
    Template t;
    t.kind = Kind::kGen;
    t.request = serve::make_request(serve::RequestKind::kGen);
    t.request.set("gen", api::to_json(gopt));
    t.request.set("options", api::to_json(options));
    // The direct path of a gen request: generate over the cached library,
    // name the top after the design, adopt, run.
    auto library = api::LibraryCache::global().get(options.tech);
    if (!library.ok()) throw util::Error(library.error().to_string());
    options.library = library.value();
    gen::Generated design = gen::generate(*options.library, gopt);
    options.top_name = design.name;
    auto flow = api::Flow::from_netlist(std::move(design.netlist), options);
    if (!flow.ok()) throw util::Error(flow.error().to_string());
    t.answer = answer_digest(t.kind, direct_flow_result(flow.value()));
    templates.push_back(std::move(t));
  }
  Template ping;
  ping.kind = Kind::kPing;
  ping.request = serve::make_request(serve::RequestKind::kPing);
  ping.answer = 1;
  templates.push_back(std::move(ping));
  return templates;
}

struct Arrival {
  double due_s = 0.0;  ///< offset from the rung's start
  int templ = 0;
};

template <typename T>
void shuffle(std::vector<T>& items, util::Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.below(i))]);
  }
}

/// Poisson arrivals at `rate` over `duration_s`. Kinds follow kPerRound
/// exactly within every round of arrivals (in seeded order), and each
/// kind cycles through its templates in a seeded order, so the mix a rung
/// offers does not drift from seed to seed; only its order and timing do.
std::vector<Arrival> make_schedule(double rate, double duration_s,
                                   const std::vector<Template>& templates,
                                   util::Xoshiro256& rng) {
  std::vector<std::vector<int>> by_kind(kKinds);
  for (std::size_t i = 0; i < templates.size(); ++i) {
    by_kind[static_cast<std::size_t>(templates[i].kind)].push_back(
        static_cast<int>(i));
  }
  for (auto& pool : by_kind) shuffle(pool, rng);
  std::vector<std::size_t> next_in_kind(kKinds, 0);
  std::vector<int> block;
  std::vector<Arrival> schedule;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    if (block.empty()) {
      for (int k = 0; k < kKinds; ++k) {
        block.insert(block.end(), static_cast<std::size_t>(kPerRound[k]), k);
      }
      shuffle(block, rng);
    }
    const auto kind = static_cast<std::size_t>(block.back());
    block.pop_back();
    const auto& pool = by_kind[kind];
    schedule.push_back({t, pool[next_in_kind[kind]++ % pool.size()]});
  }
  return schedule;
}

struct Outcome {
  Kind kind = Kind::kPing;
  bool served = false;     ///< false: left unsent when a closed loop ended
  double latency_s = 0.0;  ///< due -> response
  double lag_s = 0.0;      ///< due -> send
  Clock::time_point done;
};

struct Rung {
  double rate = 0.0;  ///< offered requests/s; 0 for the closed loop
  std::vector<Outcome> outcomes;
  std::size_t served = 0;
  double p50_ms = 0.0, p99_ms = 0.0, lag_p99_ms = 0.0;
  double achieved_rps = 0.0;
};

/// Sends `request` and checks the response against `t`'s direct answer;
/// returns what was wrong, or "" when nothing was.
std::string call_and_check(util::Result<serve::Client>& client,
                           const json::Value& request, const Template& t) {
  if (!client.ok()) return "connect: " + client.error().to_string();
  const auto response = client.value().call(request);
  if (!response.ok()) return "transport: " + response.error().to_string();
  if (!response.value().get_bool("ok")) {
    return "refused: " +
           serve::response_diagnostics(response.value()).to_string();
  }
  if (answer_digest(t.kind, response.value().at("result")) != t.answer) {
    return "answer differs from the direct api:: path";
  }
  return {};
}

/// Sends `schedule` to the server over load_cap() connections and checks
/// every response. Open loop (`closed_loop_s` 0) sends each request at its
/// due time. Closed loop ignores the due times: each connection sends its
/// next request as soon as the last one returns, for `closed_loop_s`
/// seconds, and the rest of the schedule stays unsent (latency then runs
/// from the send). With `refuse_first`, the first request is replaced by
/// one the server must refuse (the injected fault).
Rung run_rung(double rate, double closed_loop_s,
              const std::vector<Arrival>& schedule,
              const std::vector<Template>& templates, serve::Server& server,
              bool refuse_first, Tracer& tracer, Tally& tally,
              std::int64_t* in_flight_max) {
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());
  json::Value refused = serve::make_request(serve::RequestKind::kMonteCarlo);
  refused.set("cell", "NAND2");
  refused.set("trials", -1);  // outside the protocol's trial range

  Rung rung;
  rung.rate = rate;
  rung.outcomes.resize(schedule.size());
  const int parent = tracer.current();
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const bool closed_loop = closed_loop_s > 0.0;
  const auto deadline =
      closed_loop ? start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(closed_loop_s))
                  : Clock::time_point::max();
  std::atomic<std::size_t> next{0};
  std::atomic<bool> finished{false};
  std::thread monitor([&] {
    while (!finished.load()) {
      *in_flight_max = std::max(*in_flight_max, server.stats().in_flight);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < load_cap(); ++c) {
    clients.emplace_back([&] {
      auto client = serve::Client::connect(endpoint);
      std::this_thread::sleep_until(start);
      for (std::size_t i = next.fetch_add(1);
           i < schedule.size() && Clock::now() < deadline;
           i = next.fetch_add(1)) {
        const Template& t =
            templates[static_cast<std::size_t>(schedule[i].templ)];
        const auto due =
            closed_loop ? Clock::now()
                        : start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          schedule[i].due_s));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        std::string problem;
        try {
          problem = call_and_check(
              client, refuse_first && i == 0 ? refused : t.request, t);
        } catch (const std::exception& e) {  // e.g. a malformed result
          problem = e.what();
        }
        const auto done = Clock::now();
        rung.outcomes[i] = {t.kind, true, seconds_between(due, done),
                            seconds_between(due, sent), done};
        tracer.record(std::string("serve.") + kind_name(t.kind), sent, done,
                      parent);
        tally.record(problem.empty(),
                     std::string(kind_name(t.kind)) + ": " + problem);
      }
    });
  }
  for (auto& client : clients) client.join();
  finished.store(true);
  monitor.join();

  std::vector<double> latency, lag;
  Clock::time_point last = start;
  for (const auto& o : rung.outcomes) {
    if (!o.served) continue;
    latency.push_back(o.latency_s * 1e3);
    lag.push_back(o.lag_s * 1e3);
    last = std::max(last, o.done);
  }
  rung.served = latency.size();
  rung.p50_ms = median(latency);
  rung.p99_ms = tail_latency(latency);
  rung.lag_p99_ms = tail_latency(lag);
  const double wall = seconds_between(start, last);
  rung.achieved_rps =
      wall > 0.0 ? static_cast<double>(rung.served) / wall : 0.0;
  return rung;
}

std::unique_ptr<serve::Server> start_server() {
  serve::ServerOptions options;
  options.num_threads = load_cap();
  options.warm = kTechs;
  auto server = std::make_unique<serve::Server>(std::move(options));
  auto port = server->start();
  if (!port.ok()) throw util::Error(port.error().to_string());
  // One warm compile per tech, so the first measured request finds the
  // server's paths as warm as the rest.
  auto client = serve::Client::connect("127.0.0.1:" +
                                       std::to_string(port.value()));
  if (!client.ok()) throw util::Error(client.error().to_string());
  for (const layout::Tech tech : kTechs) {
    api::FlowJob job;
    job.cell = "NAND2";
    job.options.tech = tech;
    json::Value request = serve::make_request(serve::RequestKind::kCompile);
    request.set("job", api::to_json(job));
    const auto response = client.value().call(request);
    if (!response.ok() || !response.value().get_bool("ok")) {
      throw util::Error("warm-up compile failed");
    }
  }
  return server;
}

/// Cold characterization of both techs, server start and warm-up.
std::unique_ptr<serve::Server> cold_start(Tracer& tracer) {
  auto& cache = api::LibraryCache::global();
  cache.clear();
  cache.set_cache_dir("");  // no disk tier: characterize for real
  timed_span(tracer, "liberty.characterize", [&] {
    for (const layout::Tech tech : kTechs) {
      const auto library = cache.get(tech);
      if (!library.ok()) throw util::Error(library.error().to_string());
    }
  });
  std::unique_ptr<serve::Server> server;
  timed_span(tracer, "serve.start", [&] { server = start_server(); });
  return server;
}

/// In-process compile of every compile template's job: the same work a
/// served compile does, without socket, JSON framing or the pool.
double direct_compile_p50_ms(const std::vector<Template>& templates,
                             int reps) {
  std::vector<double> ms;
  for (int rep = 0; rep < reps; ++rep) {
    for (const Template& t : templates) {
      if (t.kind != Kind::kCompile) continue;
      const api::FlowJob job = api::flow_job_from_json(t.request.at("job"));
      const auto start = Clock::now();
      auto flow = api::Flow::from_cell(job.cell, job.options);
      if (!flow.ok() || !flow.value().run(job.target).ok()) continue;
      const std::string hex = serve::to_hex(gds_bytes(flow.value()));
      const auto session = flow.value().session_json();
      ms.push_back(seconds_between(start, Clock::now()) * 1e3);
    }
  }
  return median(ms);
}

}  // namespace

void run_serve_workload(const RunOptions& options, Tracer& tracer,
                        WorkloadResult& result) {
  Metrics& metrics = result.metrics;
  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  const int reps = options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    if (server) server->stop();
    server.reset();
    const auto start = Clock::now();
    server = cold_start(tracer);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }
  metrics.set("liberty.characterize_s",
              tracer.total_seconds("liberty.characterize"));

  const std::vector<Template> templates = build_templates(options.tiny);
  util::Xoshiro256 rng(util::derive_stream(options.seed, 0));
  std::int64_t in_flight_max = 0;
  std::vector<Rung> rungs;
  for (int r = 0; r <= kOpenRungs; ++r) {
    const bool closed = r == kOpenRungs;
    const double seconds = options.seconds * kRungShare[r];
    // The closed loop draws from a schedule long enough for twenty times
    // the reference capacity; its due times go unused.
    const double rate = (options.tiny ? 0.25 : 1.0) *
                        (closed ? 20 * kReferenceCapacity : kRates[r]);
    const auto schedule = make_schedule(rate, seconds, templates, rng);
    ScopedSpan span(tracer, "serve.rung" + std::to_string(r + 1));
    rungs.push_back(run_rung(closed ? 0.0 : rate, closed ? seconds : 0.0,
                             schedule, templates, *server,
                             options.fault == Fault::kRefuseRequest && r == 0,
                             tracer, result.tally, &in_flight_max));
  }
  const serve::ServerStats stats = server->stats();
  server->stop();

  for (int r = 0; r <= kOpenRungs; ++r) {
    const Rung& rung = rungs[static_cast<std::size_t>(r)];
    const std::string load =
        rung.rate > 0.0 ? "offered " +
                              std::to_string(std::lround(rung.rate)) + " req/s"
                        : std::string("closed loop");
    std::printf("serve_mix rung %d: %s, %zu requests, achieved %.1f req/s, "
                "p50 %.3f ms, p99 %.3f ms, generator lag p99 %.3f ms\n",
                r + 1, load.c_str(), rung.served, rung.achieved_rps, rung.p50_ms, rung.p99_ms,
                rung.lag_p99_ms);
    if (r == kOpenRungs) break;
    const std::string suffix = ".rung" + std::to_string(r + 1);
    metrics.set("bench.latency_p99_ms" + suffix, rung.p99_ms);
    metrics.set("bench.generator_lag_p99_ms" + suffix, rung.lag_p99_ms);
  }

  if (!options.trace) {
    metrics.set("setup_s", median(setup_s));
    metrics.set("latency_p50_ms", rungs.front().p50_ms);
    metrics.set("latency_p99_ms", rungs.front().p99_ms);
    metrics.set("throughput_per_s", rungs.back().achieved_rps);
    metrics.set("peak_rss_mb", peak_rss_mb());
    return;
  }

  // Per-kind latency at the nominal rate.
  for (int k = 0; k < kKinds; ++k) {
    std::vector<double> ms;
    for (const auto& o : rungs.front().outcomes) {
      if (static_cast<int>(o.kind) == k) ms.push_back(o.latency_s * 1e3);
    }
    metrics.set(std::string("serve.") + kind_name(static_cast<Kind>(k)) +
                    ".p50_ms",
                median(ms));
  }
  double direct_ms = 0.0;
  timed_span(tracer, "serve.direct", [&] {
    direct_ms = direct_compile_p50_ms(templates, options.tiny ? 1 : 10);
  });
  metrics.set("serve.direct.compile_p50_ms", direct_ms);
  metrics.set("serve.rejected_overload",
              static_cast<double>(stats.rejected_overload));
  metrics.set("serve.requests_error", static_cast<double>(stats.requests_error));
  metrics.set("serve.in_flight_max", static_cast<double>(in_flight_max));

  // Fixed per-request signoff costs: cell DRC over both libraries and the
  // straight-tube proof over the CNFET one.
  for (const layout::Tech tech : kTechs) {
    const auto library = api::LibraryCache::global().get(tech);
    if (!library.ok()) continue;
    for (const auto& cell : library.value()->cells()) {
      timed_span(tracer, "drc.check_cells",
                 [&] { (void)drc::check(cell.built.layout); });
      if (tech != layout::Tech::kCnfet65) continue;
      timed_span(tracer, "cnt.check_exact", [&] {
        (void)cnt::check_exact(cell.built.layout, cell.built.netlist,
                               cell.built.function);
      });
    }
  }
  metrics.set("drc.check_cells_s", tracer.total_seconds("drc.check_cells"));
  metrics.set("cnt.check_exact_s", tracer.total_seconds("cnt.check_exact"));
}

}  // namespace perfbench
