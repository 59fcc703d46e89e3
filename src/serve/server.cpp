#include "serve/server.hpp"

#include <future>
#include <utility>

#include "api/library_cache.hpp"
#include "serve/execute.hpp"

namespace cnfet::serve {

namespace json = util::json;

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(); }

util::Result<int> Server::start() {
  CNFET_REQUIRE_MSG(!running_.load() && !stopping_.load(),
                    "Server::start() called twice");
  auto listener = util::net::listen_tcp(options_.host, options_.port);
  if (!listener.ok()) return listener.error();
  listener_ = std::move(listener).value();
  auto port = util::net::local_port(listener_);
  if (!port.ok()) return port.error();
  port_ = port.value();

  // Warm the shared cache before accepting: the first client must not pay
  // characterization latency — that is the daemon's reason to exist.
  for (const layout::Tech tech : options_.warm) {
    auto lib = api::LibraryCache::global().get(tech);
    if (!lib.ok()) return lib.error();
  }

  pool_ = std::make_unique<util::ThreadPool>(options_.num_threads);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return port_;
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Kick the accept loop out of poll/accept (Linux wakes accept() with
  // EINVAL on a read-shut listener); close only after the join so the fd
  // cannot be reused under the accept thread. Then stop new requests from
  // arriving on existing connections while letting in-flight responses
  // write (read side only).
  listener_.shutdown_read();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) connection->socket.shutdown_read();
  }
  reap_connections(/*all=*/true);
  // Every reader is gone, so nothing can submit; finish whatever is queued.
  if (pool_ != nullptr) pool_->drain();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_open = connections_open_.load();
  s.requests_total = requests_total_.load();
  s.requests_ok = requests_ok_.load();
  s.requests_error = requests_error_.load();
  s.rejected_overload = rejected_overload_.load();
  s.malformed_requests = malformed_requests_.load();
  s.in_flight = in_flight_.load();
  return s;
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    // Short poll so the loop notices stop() and reaps finished readers.
    auto accepted = util::net::accept_tcp(listener_, 200);
    if (!accepted.ok()) break;  // listener is gone (stop() closed it)
    if (!accepted.value().valid()) {
      reap_connections(/*all=*/false);
      continue;
    }
    if (stopping_.load()) break;
    if (connections_open_.load() >= options_.max_connections) {
      rejected_overload_.fetch_add(1);
      const std::string line =
          json::dump(error_response(
              "error", "", "serve",
              "server at its connection limit (" +
                  std::to_string(options_.max_connections) + ")")) +
          "\n";
      (void)util::net::send_all(accepted.value(), line);
      continue;  // Socket destructor closes
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(accepted).value();
    Connection* raw = connection.get();
    connections_accepted_.fetch_add(1);
    connections_open_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { serve_connection(raw); });
  }
}

void Server::reap_connections(bool all) {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (all || (*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : finished) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void Server::serve_connection(Connection* connection) {
  util::net::LineReader reader(connection->socket,
                               options_.limits.max_request_bytes);
  for (;;) {
    auto read = reader.read_line(options_.idle_timeout_ms);
    if (!read.ok()) {
      // Truncated frame or socket fault: report once if the peer can still
      // hear us, then drop the connection.
      malformed_requests_.fetch_add(1);
      const std::string line =
          json::dump(error_response("error", "", "serve",
                                    read.error().message)) +
          "\n";
      (void)util::net::send_all(connection->socket, line);
      break;
    }
    const auto& frame = read.value();
    if (frame.status == util::net::ReadStatus::kClosed) break;
    if (frame.status == util::net::ReadStatus::kTimeout) {
      const std::string line =
          json::dump(error_response(
              "error", "", "serve",
              "idle timeout after " +
                  std::to_string(options_.idle_timeout_ms) +
                  " ms; closing connection")) +
          "\n";
      (void)util::net::send_all(connection->socket, line);
      break;
    }
    if (frame.status == util::net::ReadStatus::kOverflow) {
      malformed_requests_.fetch_add(1);
      requests_total_.fetch_add(1);
      requests_error_.fetch_add(1);
      const std::string line =
          json::dump(error_response(
              "error", "", "serve",
              "request exceeds the " +
                  std::to_string(options_.limits.max_request_bytes) +
                  "-byte limit")) +
          "\n";
      if (!util::net::send_all(connection->socket, line).ok()) break;
      continue;  // frame boundary was recovered; connection stays usable
    }
    const std::string response = handle_line(frame.line);
    if (!util::net::send_all(connection->socket, response).ok()) break;
  }
  connections_open_.fetch_sub(1);
  connection->done.store(true);
}

std::string Server::handle_line(const std::string& line) {
  requests_total_.fetch_add(1);
  auto request = parse_request(line, options_.limits);
  json::Value response;
  if (!request.ok()) {
    malformed_requests_.fetch_add(1);
    util::Diagnostics diags;
    diags.add(request.error());
    response = error_response("error", "", diags);
  } else {
    switch (request.value().kind) {
      // Cheap control requests answer inline on the reader thread, exempt
      // from admission — health checks and graceful stops must work on an
      // overloaded server.
      case RequestKind::kPing: {
        json::Value result = json::Value::object();
        result.set("pong", true);
        response = ok_response(request.value(), std::move(result), {});
        break;
      }
      case RequestKind::kStats:
        response = handle_stats(request.value());
        break;
      case RequestKind::kShutdown: {
        stop_requested_.store(true);
        json::Value result = json::Value::object();
        result.set("stopping", true);
        response = ok_response(request.value(), std::move(result), {});
        break;
      }
      default:
        response = dispatch_flow_request(request.value());
    }
  }
  const bool ok = response.get_bool("ok");
  (ok ? requests_ok_ : requests_error_).fetch_add(1);
  return json::dump(response) + "\n";
}

json::Value Server::dispatch_flow_request(const Request& request) {
  // Admission control: bounded request backlog, immediate structured
  // rejection beyond it. fetch_add-then-check keeps the bound exact under
  // concurrent readers.
  if (in_flight_.fetch_add(1) >= options_.max_pending) {
    in_flight_.fetch_sub(1);
    rejected_overload_.fetch_add(1);
    return error_response(
        to_string(request.kind), request.id, "serve",
        "server overloaded: " + std::to_string(options_.max_pending) +
            " requests already queued or running; retry later");
  }
  std::promise<json::Value> promise;
  std::future<json::Value> future = promise.get_future();
  const bool submitted = pool_->try_submit([this, &request, &promise] {
    promise.set_value(execute(request));
  });
  if (!submitted) {
    in_flight_.fetch_sub(1);
    return error_response(to_string(request.kind), request.id, "serve",
                          "server is shutting down; request rejected");
  }
  json::Value response = future.get();
  in_flight_.fetch_sub(1);
  return response;
}

json::Value Server::handle_stats(const Request& request) {
  const ServerStats s = stats();
  json::Value result = json::Value::object();
  result.set("connections_accepted", s.connections_accepted);
  result.set("connections_open", s.connections_open);
  result.set("requests_total", s.requests_total);
  result.set("requests_ok", s.requests_ok);
  result.set("requests_error", s.requests_error);
  result.set("rejected_overload", s.rejected_overload);
  result.set("malformed_requests", s.malformed_requests);
  result.set("in_flight", s.in_flight);
  result.set("warm_libraries", api::LibraryCache::global().size());
  result.set("pool_threads", pool_ != nullptr ? pool_->size() : 0);
  return ok_response(request, std::move(result), {});
}

}  // namespace cnfet::serve
