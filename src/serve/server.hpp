// The cnfetd compile server: one process, one warm api::LibraryCache,
// many concurrent clients.
//
// One engine, two transports. serve::execute (serve/execute.hpp) is the
// only implementation of the flow requests; `cnfetc` calls it in-process
// when run without --server, and this Server is the other transport: it
// owns sockets, framing, admission and drain, and nothing else.
//
// Architecture (the ActiveObject per-connection shape):
//
//   accept thread ──> one reader thread per connection
//                         │  parses request lines (WireLimits-bounded)
//                         │  answers ping/stats/shutdown inline
//                         └─ hands the parsed Request to serve::execute
//                            on the shared util::ThreadPool, waits for
//                            the result, writes the response — so
//                            requests on ONE connection are answered in
//                            order while connections compete for pool
//                            workers.
//
// Backpressure: flow requests (compile/resume/gen/sta/monte_carlo/batch)
// are admitted only while fewer than `max_pending` are queued or running;
// beyond that the server answers an immediate structured "overloaded"
// error instead of buffering unbounded work. ping/stats/shutdown bypass
// admission so health checks and graceful stops still answer under load.
//
// Graceful lifecycle: stop() (or a client "shutdown" request followed by
// the owner calling stop()) closes the listener, half-closes every
// connection's read side so no NEW requests arrive, lets every in-flight
// request finish and write its response, joins all threads, and drains
// the pool. Nothing accepted is ever dropped.
//
// Determinism contract: a served request runs the same serve::execute
// against the same LibraryCache::global() library as a local `cnfetc`
// run, so the response — GDS bytes, session, FlowMetrics — is
// byte-identical to the local one (tests/test_serve.cpp, gated in CI).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "layout/rules.hpp"
#include "serve/protocol.hpp"
#include "util/net.hpp"
#include "util/parallel.hpp"

namespace cnfet::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (read it back from Server::port()).
  std::uint16_t port = 0;
  /// Pool workers executing flow requests (0 = one per hardware thread).
  int num_threads = 0;
  /// Flow requests queued or running before new ones get "overloaded".
  int max_pending = 64;
  /// Simultaneous client connections before accept answers "overloaded".
  int max_connections = 128;
  /// Per-connection read idle timeout; a silent client is disconnected
  /// after this long (< 0 = never).
  int idle_timeout_ms = 300000;
  WireLimits limits;
  /// Technologies whose libraries start() characterizes up front, so the
  /// first client request hits a warm cache.
  std::vector<layout::Tech> warm;
};

/// Monotonic counters since start(). `connections_open` and `in_flight`
/// are instantaneous.
struct ServerStats {
  std::int64_t connections_accepted = 0;
  std::int64_t connections_open = 0;
  std::int64_t requests_total = 0;
  std::int64_t requests_ok = 0;
  std::int64_t requests_error = 0;
  std::int64_t rejected_overload = 0;
  std::int64_t malformed_requests = 0;
  std::int64_t in_flight = 0;
};

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  ///< stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, warms the requested libraries, spawns the accept loop.
  /// Returns the bound port.
  [[nodiscard]] util::Result<int> start();

  /// Graceful drain (see file comment). Idempotent, safe from any thread
  /// except a connection reader's own (a "shutdown" request therefore only
  /// sets stop_requested() and lets the owner call stop()).
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  /// True once a client's "shutdown" request was honored; the owner (the
  /// daemon loop, or a test) reacts by calling stop().
  [[nodiscard]] bool stop_requested() const { return stop_requested_.load(); }
  /// Bound port; valid after start().
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] ServerStats stats() const;

 private:
  struct Connection {
    util::net::Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(Connection* connection);
  /// One request line -> one response line (written by the caller).
  [[nodiscard]] std::string handle_line(const std::string& line);
  /// Runs a flow-kind request through serve::execute on the pool
  /// (admission + draining checks).
  [[nodiscard]] util::json::Value dispatch_flow_request(const Request& request);
  [[nodiscard]] util::json::Value handle_stats(const Request& request);

  /// Joins finished connection threads (called from the accept loop's
  /// timeout tick and from stop()).
  void reap_connections(bool all);

  ServerOptions options_;
  util::net::Socket listener_;
  int port_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread accept_thread_;

  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stop_requested_{false};

  std::atomic<std::int64_t> connections_accepted_{0};
  std::atomic<std::int64_t> connections_open_{0};
  std::atomic<std::int64_t> requests_total_{0};
  std::atomic<std::int64_t> requests_ok_{0};
  std::atomic<std::int64_t> requests_error_{0};
  std::atomic<std::int64_t> rejected_overload_{0};
  std::atomic<std::int64_t> malformed_requests_{0};
  std::atomic<std::int64_t> in_flight_{0};
};

}  // namespace cnfet::serve
