// Load-test harness for the cnfetd compile server.
//
// Measures, against an in-process serve::Server on a loopback socket:
//   * warm-vs-cold: p50 latency of a served compile against the daemon's
//     warm library cache vs a cold local `cnfetc compile` (library cache
//     cleared before every cold run). The acceptance floor — served warm
//     must beat cold by >= 5x — is gated in scripts/check_perf.py.
//   * a deterministic scripted request mix (compiles across the cell
//     family, sta, monte_carlo with a fixed seed, ping) over 4 concurrent
//     client connections: throughput plus p50/p95/p99 latency.
//   * the byte-identity contract: served GDS bytes and FlowMetrics equal
//     the direct api::Flow path for both technologies (exit 1 on any
//     mismatch — identity is a hard requirement, speed is gated later).
//
// Results merge into BENCH_perf.json as the "serve" section
// (bench_common.hpp: sections written by other benches are kept).
//
//   $ ./bench_serve           # ~10 s; updates ./BENCH_perf.json
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "api/library_cache.hpp"
#include "api/serialize.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace {

using namespace cnfet;
namespace json = util::json;
using bench::ms_since;

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

json::Value compile_request(const std::string& cell, layout::Tech tech) {
  api::FlowJob job;
  job.cell = cell;
  job.options.tech = tech;
  json::Value request = serve::make_request(serve::RequestKind::kCompile);
  request.set("job", api::to_json(job));
  return request;
}

/// One cold `cnfetc compile`-equivalent: characterization + flow + GDS.
/// The disk tier is off for the call (CNFET_LIBRARY_CACHE_DIR may name a
/// populated one), so the library is characterized, not loaded.
double cold_compile_ms() {
  auto& cache = api::LibraryCache::global();
  const std::string disk_dir = cache.cache_dir();
  cache.set_cache_dir("");
  cache.clear();
  const auto start = std::chrono::steady_clock::now();
  auto flow = api::Flow::from_cell("NAND3", {});
  if (!flow.ok() || !flow.value().run(api::Stage::kExported).ok()) {
    std::fprintf(stderr, "cold compile failed\n");
    std::exit(1);
  }
  const double ms = ms_since(start);
  cache.set_cache_dir(disk_dir);
  return ms;
}

/// GDS bytes through the file path Flow::write_gds takes — the reference
/// the served bytes must match exactly.
std::string direct_gds_bytes(const std::string& cell, layout::Tech tech,
                             std::string* metrics_dump) {
  api::FlowOptions options;
  options.tech = tech;
  auto flow = api::Flow::from_cell(cell, options);
  if (!flow.ok() || !flow.value().run(api::Stage::kExported).ok()) return {};
  *metrics_dump = json::dump(api::to_json(flow.value().metrics()));
  const auto path = std::filesystem::temp_directory_path() /
                    ("bench_serve_" + cell + std::to_string(int(tech)) + ".gds");
  if (!flow.value().write_gds(path.string()).ok()) return {};
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove(path);
  return bytes.str();
}

}  // namespace

int main() {
  std::printf("== serve: cnfetd daemon load test ==\n\n");

  // --- cold baseline (what every daemon-less invocation pays) -------------
  double cold_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    cold_ms = std::min(cold_ms, cold_compile_ms());
  }
  std::printf("cold local compile (cache cleared): %8.1f ms\n", cold_ms);

  // --- the warm server -----------------------------------------------------
  api::LibraryCache::global().clear();
  serve::ServerOptions options;
  options.warm = {layout::Tech::kCnfet65, layout::Tech::kCmos65};
  serve::Server server(std::move(options));
  auto port = server.start();
  if (!port.ok()) {
    std::fprintf(stderr, "server failed to start: %s\n",
                 port.error().to_string().c_str());
    return 1;
  }
  const std::string endpoint = "127.0.0.1:" + std::to_string(port.value());

  // --- identity: served bytes == direct bytes, both technologies ----------
  bool gds_identical = true;
  bool metrics_identical = true;
  for (const layout::Tech tech :
       {layout::Tech::kCnfet65, layout::Tech::kCmos65}) {
    auto client = serve::Client::connect(endpoint);
    if (!client.ok()) return 1;
    auto response = client.value().call(compile_request("NAND3", tech));
    if (!response.ok() || !response.value().get_bool("ok")) {
      std::fprintf(stderr, "served compile failed (%s)\n",
                   layout::to_string(tech));
      return 1;
    }
    const json::Value& result = response.value().at("result");
    auto served = serve::from_hex(result.get_string("gds_hex"));
    std::string direct_metrics;
    const std::string direct = direct_gds_bytes("NAND3", tech,
                                                &direct_metrics);
    gds_identical = gds_identical && served.ok() && !direct.empty() &&
                    served.value() == direct;
    metrics_identical = metrics_identical &&
                        json::dump(result.at("metrics")) == direct_metrics;
  }
  std::printf("served GDS identical to direct: %s | metrics identical: %s\n",
              gds_identical ? "yes" : "NO", metrics_identical ? "yes" : "NO");

  // --- warm served latency (sequential, one connection) -------------------
  constexpr int kWarmReps = 50;
  std::vector<double> warm_ms;
  {
    auto client = serve::Client::connect(endpoint);
    if (!client.ok()) return 1;
    for (int i = 0; i < kWarmReps; ++i) {
      const auto start = std::chrono::steady_clock::now();
      auto response = client.value().call(
          compile_request("NAND3", layout::Tech::kCnfet65));
      if (!response.ok() || !response.value().get_bool("ok")) return 1;
      warm_ms.push_back(ms_since(start));
    }
  }
  const double warm_p50 = percentile(warm_ms, 0.50);
  const double speedup = warm_p50 > 0.0 ? cold_ms / warm_p50 : 0.0;
  std::printf("warm served compile p50 over %d reps: %8.3f ms | "
              "warm-vs-cold speedup %.1fx\n",
              kWarmReps, warm_p50, speedup);

  // --- scripted mix over 4 concurrent connections --------------------------
  // Every connection runs the same fixed script, so the load is
  // reproducible run to run (modulo scheduling).
  const std::vector<std::string> family = {"INV",   "NAND2", "NOR2",
                                           "NAND3", "AOI21", "OAI21"};
  constexpr int kConnections = 4;
  constexpr int kRounds = 4;
  std::vector<std::vector<double>> per_connection(kConnections);
  std::vector<bool> connection_ok(kConnections, false);
  const auto mix_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kConnections; ++t) {
    threads.emplace_back([&, t] {
      auto client = serve::Client::connect(endpoint);
      if (!client.ok()) return;
      auto timed_call = [&](json::Value request) {
        const auto start = std::chrono::steady_clock::now();
        auto response = client.value().call(std::move(request));
        if (!response.ok() || !response.value().get_bool("ok")) return false;
        per_connection[t].push_back(ms_since(start));
        return true;
      };
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& cell : family) {
          const layout::Tech tech = (round % 2 == 0)
                                        ? layout::Tech::kCnfet65
                                        : layout::Tech::kCmos65;
          if (!timed_call(compile_request(cell, tech))) return;
        }
        json::Value sta = serve::make_request(serve::RequestKind::kSta);
        api::FlowJob job;
        job.cell = "AOI21";
        sta.set("job", api::to_json(job));
        if (!timed_call(std::move(sta))) return;
        json::Value mc = serve::make_request(serve::RequestKind::kMonteCarlo);
        mc.set("cell", "NAND2");
        mc.set("trials", 200);
        mc.set("seed", 42);
        if (!timed_call(std::move(mc))) return;
        if (!timed_call(serve::make_request(serve::RequestKind::kPing))) {
          return;
        }
      }
      connection_ok[t] = true;
    });
  }
  for (auto& thread : threads) thread.join();
  const double mix_wall_ms = ms_since(mix_start);
  std::vector<double> mix_ms;
  for (const auto& latencies : per_connection) {
    mix_ms.insert(mix_ms.end(), latencies.begin(), latencies.end());
  }
  bool mix_ok = true;
  for (const bool ok : connection_ok) mix_ok = mix_ok && ok;
  if (!mix_ok) {
    std::fprintf(stderr, "a mix connection failed\n");
    return 1;
  }
  const double p50 = percentile(mix_ms, 0.50);
  const double p95 = percentile(mix_ms, 0.95);
  const double p99 = percentile(mix_ms, 0.99);
  const double throughput =
      mix_wall_ms > 0.0 ? 1000.0 * static_cast<double>(mix_ms.size()) /
                              mix_wall_ms
                        : 0.0;
  std::printf("mixed load: %zu requests over %d connections in %8.1f ms | "
              "%.0f req/s | p50 %.3f ms p95 %.3f ms p99 %.3f ms\n",
              mix_ms.size(), kConnections, mix_wall_ms, throughput, p50, p95,
              p99);

  server.stop();
  const auto stats = server.stats();
  std::printf("server counters: %lld requests (%lld ok, %lld error)\n",
              static_cast<long long>(stats.requests_total),
              static_cast<long long>(stats.requests_ok),
              static_cast<long long>(stats.requests_error));

  // --- merge the "serve" section into BENCH_perf.json ----------------------
  json::Value serve_section = json::Value::object();
  serve_section.set("cold_compile_ms", cold_ms);
  serve_section.set("warm_served_p50_ms", warm_p50);
  serve_section.set("warm_vs_cold_speedup", speedup);
  serve_section.set("mix_connections", kConnections);
  serve_section.set("mix_requests", static_cast<int>(mix_ms.size()));
  serve_section.set("mix_wall_ms", mix_wall_ms);
  serve_section.set("throughput_req_per_sec", throughput);
  serve_section.set("p50_ms", p50);
  serve_section.set("p95_ms", p95);
  serve_section.set("p99_ms", p99);
  serve_section.set("gds_identical", gds_identical);
  serve_section.set("metrics_identical", metrics_identical);
  if (!bench::merge_perf_json(bench::object({{"serve", serve_section}}))) {
    return 1;
  }

  // Identity is the hard in-run requirement; the 5x warm-vs-cold floor is
  // host-sensitive, so scripts/check_perf.py gates it (and the identity
  // flags again) from the JSON.
  return (gds_identical && metrics_identical) ? 0 : 1;
}
