#include "serve/daemon.hpp"

#include <csignal>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "api/library_cache.hpp"
#include "api/serialize.hpp"
#include "layout/rules.hpp"

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

bool parse_int(const std::string& text, int* out) {
  try {
    std::size_t used = 0;
    *out = std::stoi(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int daemon_main(int argc, char** argv) {
  DaemonOptions options;
  options.server.warm = {layout::Tech::kCnfet65, layout::Tech::kCmos65};
  bool warm_overridden = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    }
    if (arg == "--no-warm") {
      options.server.warm.clear();
      warm_overridden = true;
      continue;
    }
    int* int_option = arg == "--threads"       ? &options.server.num_threads
                      : arg == "--max-pending" ? &options.server.max_pending
                      : arg == "--max-connections"
                          ? &options.server.max_connections
                      : arg == "--idle-timeout-ms"
                          ? &options.server.idle_timeout_ms
                          : nullptr;
    if (int_option == nullptr && arg != "--host" && arg != "--port" &&
        arg != "--warm" && arg != "--cache-dir" && arg != "--port-file") {
      return usage("unknown argument \"" + arg + "\"");
    }
    if (i + 1 >= argc) return usage(arg + " needs a value");
    const std::string value = argv[++i];
    if (int_option != nullptr) {
      if (!parse_int(value, int_option)) {
        return usage(arg + " needs an integer, got \"" + value + "\"");
      }
    } else if (arg == "--host") {
      options.server.host = value;
    } else if (arg == "--port") {
      int port = 0;
      if (!parse_int(value, &port) || port < 0 || port > 65535) {
        return usage("--port needs a port number, got \"" + value + "\"");
      }
      options.server.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--warm") {
      auto tech = api::tech_from_string(value);
      if (!tech.ok()) return usage(tech.error().message);
      if (!warm_overridden) {
        options.server.warm.clear();
        warm_overridden = true;
      }
      options.server.warm.push_back(tech.value());
    } else if (arg == "--cache-dir") {
      api::LibraryCache::global().set_cache_dir(value);
    } else {
      options.port_file = value;
    }
  }
  return run_daemon(options);
}

int run_daemon(const DaemonOptions& options) {
  g_signal.store(0);
  install_signal_handlers();

  Server server(options.server);
  auto started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "cnfetd: %s\n", started.error().to_string().c_str());
    return 1;
  }
  const int port = started.value();
  std::printf("cnfetd listening on %s:%d (%zu warm librar%s)\n",
              options.server.host.c_str(), port, options.server.warm.size(),
              options.server.warm.size() == 1 ? "y" : "ies");
  std::fflush(stdout);

  if (!options.port_file.empty()) {
    std::ofstream out(options.port_file, std::ios::trunc);
    out << port << "\n";
    if (!out) {
      std::fprintf(stderr, "cnfetd: cannot write port file %s\n",
                   options.port_file.c_str());
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

}  // namespace cnfet::serve
