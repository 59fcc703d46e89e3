// cnfetd — the standalone compile-server daemon.
//
// One process holds one warm api::LibraryCache and serves
// compile/resume/gen/sta/monte_carlo/batch requests over a line-delimited
// JSON protocol (see docs/api_guide.md, "The compile server"). Repeated
// `cnfetc compile` invocations each pay library characterization from a
// cold process; pointing them at a daemon with --server amortizes that
// cost down to a socket round-trip.
//
//   cnfetd --port 7455 --cache-dir ~/.cache/cnfet &
//   cnfetc ping --server 127.0.0.1:7455
//   cnfetc compile --cell NAND3 --out s/ --server 127.0.0.1:7455
//   cnfetc stop --server 127.0.0.1:7455
//
// SIGINT/SIGTERM (or a client "shutdown" request) drains in-flight flows
// before exiting; nothing accepted is dropped. The flags are parsed by
// serve::daemon_main, which `cnfetc serve` shares.
//
// Exit codes: 0 clean shutdown, 1 failed to start, 2 usage error.
#include "serve/daemon.hpp"

int main(int argc, char** argv) { return cnfet::serve::daemon_main(argc, argv); }
