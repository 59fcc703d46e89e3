// The cnfetd process wrapper around serve::Server: the command line,
// signal handling, startup banner, and the wait loop that turns SIGINT/SIGTERM (or a
// client "shutdown" request) into a graceful Server::stop().
#pragma once

namespace cnfet::serve {

/// The daemon's command line: reads the flags after argv[0] (every
/// technology warmed by default) and runs the daemon until a signal or a
/// shutdown request, then drains. The one entry behind both `cnfetd` and
/// `cnfetc serve`. Returns a process exit code: 0 after a clean shutdown
/// (or --help), 1 when the server failed to start, 2 for a usage error.
[[nodiscard]] int daemon_main(int argc, char** argv);

}  // namespace cnfet::serve
