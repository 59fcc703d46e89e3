#include "serve/daemon.hpp"

#include <csignal>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "api/library_cache.hpp"
#include "api/serialize.hpp"
#include "layout/rules.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"

namespace cnfet::serve {

namespace {

std::atomic<int> g_signal{0};

extern "C" void on_signal(int sig) { g_signal.store(sig); }

void install_signal_handlers() {
  struct sigaction action = {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: accept's poll() must see EINTR
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: cnfetd [--host H] [--port P] [--threads N]\n"
      "              [--max-pending N] [--max-connections N]\n"
      "              [--idle-timeout-ms MS] [--warm cnfet65|cmos65]...\n"
      "              [--no-warm] [--cache-dir DIR] [--port-file FILE]\n"
      "       (`cnfetc serve` takes the same flags)\n"
      "\n"
      "Defaults: 127.0.0.1, an ephemeral port (printed on startup, and\n"
      "written to --port-file when given), one pool worker per hardware\n"
      "thread, every technology library warmed before accepting.\n"
      "--cache-dir (or CNFET_LIBRARY_CACHE_DIR) backs the warm cache with\n"
      "the versioned on-disk library tier.\n");
}

int usage(const std::string& error) {
  std::fprintf(stderr, "cnfetd: %s\n\n", error.c_str());
  print_usage(stderr);
  return 2;
}

/// Serves until a signal or a shutdown request, then drains. When
/// `port_file` is non-empty, the bound port is written there (one decimal
/// line) once the server accepts, so scripts find an ephemeral port.
int run(const ServerOptions& options, const std::string& port_file) {
  g_signal.store(0);
  install_signal_handlers();

  Server server(options);
  auto started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "cnfetd: %s\n", started.error().to_string().c_str());
    return 1;
  }
  const int port = started.value();
  std::printf("cnfetd listening on %s:%d (%zu warm librar%s)\n",
              options.host.c_str(), port, options.warm.size(),
              options.warm.size() == 1 ? "y" : "ies");
  std::fflush(stdout);

  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << port << "\n";
    if (!out) {
      std::fprintf(stderr, "cnfetd: cannot write port file %s\n",
                   port_file.c_str());
      server.stop();
      return 1;
    }
  }

  while (g_signal.load() == 0 && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int sig = g_signal.load();
  std::printf("cnfetd: %s, draining in-flight requests...\n",
              sig == SIGINT    ? "SIGINT"
              : sig == SIGTERM ? "SIGTERM"
                               : "shutdown requested");
  std::fflush(stdout);

  server.stop();

  const ServerStats stats = server.stats();
  std::printf(
      "cnfetd: stopped after %lld connection(s), %lld request(s) "
      "(%lld ok, %lld error, %lld rejected overloaded, %lld malformed)\n",
      static_cast<long long>(stats.connections_accepted),
      static_cast<long long>(stats.requests_total),
      static_cast<long long>(stats.requests_ok),
      static_cast<long long>(stats.requests_error),
      static_cast<long long>(stats.rejected_overload),
      static_cast<long long>(stats.malformed_requests));
  return 0;
}

}  // namespace

int daemon_main(int argc, char** argv) {
  util::Args args(argc, argv, 1);
  if (args.has_switch("--help") || args.has_switch("-h")) {
    print_usage(stdout);
    return 0;
  }
  ServerOptions server;
  std::string port_file;
  server.warm = {layout::Tech::kCnfet65, layout::Tech::kCmos65};
  // --warm lists replace the default set; --no-warm alone empties it.
  if (args.has_switch("--no-warm")) server.warm.clear();
  args.read_all("--warm", &server.warm, api::tech_from_string);
  args.read("--host", &server.host);
  int port = server.port;
  args.read("--port", &port, 0, 65535);
  server.port = static_cast<std::uint16_t>(port);
  args.read("--threads", &server.num_threads, 0, RequestLimits::kMaxThreads);
  args.read("--max-pending", &server.max_pending, 0);
  args.read("--max-connections", &server.max_connections, 0);
  // The one signed flag: ServerOptions reads < 0 as "never time out".
  args.read("--idle-timeout-ms", &server.idle_timeout_ms, INT_MIN);
  args.read("--port-file", &port_file);
  const auto* cache_dir = args.value_of("--cache-dir");
  if (const auto error = args.error(); !error.empty()) return usage(error);
  if (const auto extra = args.positional(); !extra.empty()) {
    return usage("unknown argument \"" + extra + "\"");
  }
  if (cache_dir != nullptr) {
    api::LibraryCache::global().set_cache_dir(*cache_dir);
  }
  return run(server, port_file);
}

}  // namespace cnfet::serve
