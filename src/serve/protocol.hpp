// Wire protocol of the cnfetd compile server.
//
// Framing: one compact JSON document per '\n'-terminated line, both
// directions (util::json's deterministic writer never emits a raw newline,
// so the delimiter is unambiguous). Every request and response carries a
// versioned envelope:
//
//   request:  { "proto_version": 1, "kind": "<kind>", "id": "<echoed>",
//               ...kind-specific fields }
//   response: { "proto_version": 1, "kind": "<kind>", "id": "<echoed>",
//               "ok": true|false, "result": {...},
//               "diagnostics": [ {severity, stage, message}, ... ] }
//
// Request kinds and their fields (value shapes are the api::serialize
// converters, so the wire speaks the same JSON as the artifact files):
//
//   ping         -> result {pong}
//   stats        -> result {counters..., warm_libraries}
//   compile      {job: <FlowJob>}            -> result {reached, metrics,
//                 session: <flow.json payload>, gds_hex}
//   resume       {session: <flow.json payload>, target: "<stage>"}
//                                            -> result like compile
//   sta          {job: <FlowJob>}            -> result {metrics, sta}
//   monte_carlo  {cell, trials, seed, threads} -> result {trials, ...,
//                 mc: <MonteCarloResult>}, "mc" the full serialized result
//                 with histograms; trials in [1, RequestLimits::kMaxTrials],
//                 threads in [0, RequestLimits::kMaxThreads], seed a uint64
//                 as a decimal string (or an integer, exact up to 2^53)
//   batch        {jobs: [<FlowJob>...], num_threads, fail_fast}
//                                            -> result {report}
//   gen          {gen: <GenOptions>, options: <FlowOptions>?,
//                 target: "<stage>"?}        -> result like compile (the
//                 generated reference netlist is adopted at Mapped). The
//                 top name follows Flow::from_cell's rule: "TOP" (the
//                 default) names the GDS top after the design ("rca16"),
//                 any other name is kept. Sizes are capped by
//                 RequestLimits before the generator allocates
//   shutdown     -> result {stopping}; the daemon then drains and exits
//
// serve::execute (serve/execute.hpp) is the one implementation of the flow
// kinds; ping, stats and shutdown are answered by the server itself.
//
// Error responses (ok=false) carry the structured util::Diagnostics that
// explain the failure; a malformed or hostile request line gets an error
// response, never a dropped connection or a crash. Requests are parsed
// under WireLimits (document size + nesting depth) because socket input is
// untrusted.
#pragma once

#include <string>

#include "util/json.hpp"
#include "util/result.hpp"

namespace cnfet::serve {

/// Version stamped into (and required of) every request and response.
inline constexpr int kProtoVersion = 1;

/// Resource bounds applied to untrusted request lines before and during
/// parsing. Responses from a trusted server get looser client-side caps.
struct WireLimits {
  /// Maximum request line length in bytes (also the LineReader frame cap).
  std::size_t max_request_bytes = 8 * 1024 * 1024;
  /// Maximum JSON nesting depth of a request document.
  int max_json_depth = 64;

  [[nodiscard]] util::json::ParseLimits parse_limits() const {
    return {max_json_depth, max_request_bytes};
  }
};

/// Ceilings on the work one request may ask for, checked by serve::execute
/// before anything is allocated. Constants, not options: they bound hostile
/// input rather than tune the server. Each admits the largest tiers the
/// repository runs (`gen --family rca --width 1112` is 10,008 gates, the
/// README's `--family rand --gates 10000`) with room to spare.
struct RequestLimits {
  /// Monte Carlo trials per request.
  static constexpr int kMaxTrials = 10'000'000;
  /// Monte Carlo `threads` and batch `num_threads` (0 = every hardware
  /// thread): more than any host the repository targets has.
  static constexpr int kMaxThreads = 256;
  /// Operand width of the adder families (rca, cla).
  static constexpr int kMaxAdderWidth = 4096;
  /// Operand width of the array multiplier (~11 N^2 gates).
  static constexpr int kMaxMultiplierWidth = 64;
  /// Gate and primary-input counts of a random DAG.
  static constexpr int kMaxRandomGates = 50'000;
  static constexpr int kMaxRandomInputs = 4096;
  /// Jobs in one batch request: far above the Table-1 family's count.
  static constexpr int kMaxBatchJobs = 1024;
};

enum class RequestKind {
  kPing,
  kStats,
  kCompile,
  kResume,
  kSta,
  kMonteCarlo,
  kBatch,
  kGen,
  kShutdown,
};

[[nodiscard]] const char* to_string(RequestKind kind);
[[nodiscard]] util::Result<RequestKind> request_kind_from_string(
    const std::string& name);

/// A validated request envelope. `payload` is the whole request object;
/// handlers read their kind-specific fields from it.
struct Request {
  RequestKind kind = RequestKind::kPing;
  std::string id;  ///< client-chosen correlation token, echoed verbatim
  util::json::Value payload;
};

/// Parses one request line under `limits`: well-formed JSON object, matching
/// proto_version, known kind. Failures name the byte offset (parse errors)
/// or the offending field, and never throw.
[[nodiscard]] util::Result<Request> parse_request(const std::string& line,
                                                  const WireLimits& limits);

/// Client-side: a fresh request envelope for `kind` (callers add the
/// kind-specific fields before sending).
[[nodiscard]] util::json::Value make_request(RequestKind kind,
                                             const std::string& id = "");

/// Server-side response constructors. `kind`/`id` echo the request's (an
/// unparseable request echoes kind "error" and an empty id).
[[nodiscard]] util::json::Value ok_response(const Request& request,
                                            util::json::Value result,
                                            const util::Diagnostics& diags);
[[nodiscard]] util::json::Value error_response(const std::string& kind,
                                               const std::string& id,
                                               const util::Diagnostics& diags);
[[nodiscard]] util::json::Value error_response(const std::string& kind,
                                               const std::string& id,
                                               const std::string& stage,
                                               const std::string& message);

/// Client-side: validates a response line's envelope (JSON object, matching
/// proto_version, `ok` present) and returns the whole response object.
[[nodiscard]] util::Result<util::json::Value> parse_response(
    const std::string& line);

/// The diagnostics array of a response, read by api::diagnostics_from_json
/// (empty when the field is absent). A malformed array yields one error
/// Diagnostic naming the failure, never a silent partial list.
[[nodiscard]] util::Diagnostics response_diagnostics(
    const util::json::Value& response);

/// Lowercase-hex codec for binary payloads (GDS streams). JSON strings
/// pass UTF-8 through untouched but raw GDS bytes are not UTF-8, so the
/// wire carries them hex-encoded; 2N bytes on the wire for N bytes of
/// stream is an acceptable tax at cell-library sizes.
[[nodiscard]] std::string to_hex(const std::string& bytes);
[[nodiscard]] util::Result<std::string> from_hex(const std::string& hex);

}  // namespace cnfet::serve
