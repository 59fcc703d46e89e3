// The cnfetd process wrapper around serve::Server: the command line,
// signal handling, startup banner, and the wait loop that turns SIGINT/SIGTERM (or a
// client "shutdown" request) into a graceful Server::stop().
#pragma once

#include <string>

#include "serve/server.hpp"

namespace cnfet::serve {

struct DaemonOptions {
  ServerOptions server;
  /// When non-empty, the bound port is written here (as a single decimal
  /// line) once the server is accepting — lets scripts using an ephemeral
  /// port discover where the daemon landed.
  std::string port_file;
};

/// Runs the daemon until a signal or a shutdown request, then drains.
/// Returns a process exit code (0 = clean shutdown, 1 = failed to start).
[[nodiscard]] int run_daemon(const DaemonOptions& options);

/// The daemon's command line: parses the flags after argv[0] into
/// DaemonOptions (every technology warmed by default) and runs the daemon.
/// The one parser behind both `cnfetd` and `cnfetc serve`. Returns a
/// process exit code: run_daemon's, or 2 for a usage error (0 after
/// --help).
[[nodiscard]] int daemon_main(int argc, char** argv);

}  // namespace cnfet::serve
