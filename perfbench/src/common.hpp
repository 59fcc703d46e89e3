// Shared pieces of the repository benchmark: run options, the outcome
// tally, the metric sink, order statistics, peak RSS and the in-memory span
// tracer the traced runs use.
//
// The benchmark measures two ways. Untraced runs time whole user-visible
// operations (a compile, a Monte Carlo batch, a served request) with plain
// steady_clock pairs and report the end-to-end metrics. Traced runs call
// each layer's public functions one at a time from this benchmark's own
// code, record a span around every call (name, start, end, parent), keep
// the spans in memory, and report per-layer metrics plus each span's self
// time when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One deliberately injected output fault. The self-check runs every
/// workload once per fault and expects the workload's output checks to
/// count at least one failed operation; kNone is a normal run.
enum class Fault {
  kNone,
  kFlipGdsByte,     ///< a compile's GDS stream differs by one byte
  kSwapGate,        ///< one gate of the optimized netlist changes function
  kPerturbTally,    ///< a Monte Carlo result's failing-trial tally is off by one
  kRefuseRequest,   ///< one served request is replaced by one the server refuses
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check sizes: every path runs, on inputs small enough to finish
  /// in a second or two.
  bool tiny = false;
  Fault fault = Fault::kNone;
  /// Where the traced run writes its spans (empty: not written).
  std::string trace_out;
};

/// Operations attempted and failed. An operation fails when it errors, is
/// refused, or produces output its check rejects; the first few reasons
/// are kept for the log.
class Tally {
 public:
  void record(bool ok, const std::string& what);
  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  std::mutex mutex_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Metrics by name. set() on an existing name overwrites it.
class Metrics {
 public:
  void set(const std::string& name, double value);
  /// The value set under `name`, or 0 when none was.
  [[nodiscard]] double get(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted values; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The latency tail the benchmark reports: the highest percentile, up to
/// p99, that has at least ten samples beyond it. Below 20 samples no
/// percentile above the median qualifies, and the median is returned.
[[nodiscard]] double tail_latency(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// In-memory span recorder. Spans opened with open()/close() nest on the
/// main thread's stack; record() adds a finished span from any thread.
/// A disabled tracer records nothing.
///
/// Some library calls are opaque to the benchmark (a Flow stage runs many
/// layers inside one call). The traced run replays the layers such a call
/// runs, one public function at a time, and marks each replayed span as
/// explaining the opaque one: the opaque span's self time then excludes
/// what its replay accounts for.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int explains = -1;  ///< opaque span this replayed span accounts for
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span as a child of the innermost open one; returns its id
  /// (-1 when disabled).
  int open(const std::string& name);
  void close(int id);
  /// Adds a finished span under `parent`; thread-safe.
  int record(const std::string& name, Clock::time_point start,
             Clock::time_point end, int parent);
  /// Marks span `replay` as accounting for part of opaque span `opaque`.
  void explain(int replay, int opaque);
  /// Id of the innermost open span, or -1.
  [[nodiscard]] int current() const;

  /// Summed duration of every span with this name, in seconds.
  [[nodiscard]] double total_seconds(const std::string& name) const;

  /// Prints self time per span name, largest first. Self time is a
  /// span's duration minus the union of its children's intervals, minus
  /// the spans that replay it.
  void print_self_times() const;
  /// Writes every span as JSON: name, start/end ns, parent, self ns.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t to_ns(Clock::time_point t) const;
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on a tracer's main stack. stop() reads its duration, also
/// with tracing disabled, so callers can time with it either way.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name);
  ~ScopedSpan() { stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_ = -1;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

/// Times one call as a span and returns its duration in seconds.
template <typename Fn>
double timed_span(Tracer& tracer, const std::string& name, Fn&& fn) {
  ScopedSpan span(tracer, name);
  fn();
  return span.stop();
}

/// What a workload hands back to main(): outcome and metrics.
struct WorkloadResult {
  Tally tally;
  Metrics metrics;
};

/// Workload entry points (one translation unit each).
void run_compile_workload(const RunOptions& options, Tracer& tracer,
                          WorkloadResult& result);
void run_mc_workload(const RunOptions& options, Tracer& tracer,
                     WorkloadResult& result);
/// One process's part of mc_tier1's setup: the median of 100 builds of
/// its two cells, as the server's monte_carlo handler builds a cell before
/// it samples, once per request in a warm process.
[[nodiscard]] double mc_setup_probe_s();
void run_serve_workload(const RunOptions& options, Tracer& tracer,
                        WorkloadResult& result);

/// Threads, connections and pool workers any workload may use: the
/// hardware thread count, capped at 4.
[[nodiscard]] int load_cap();

/// Setup repetitions whose median becomes setup_s.
inline constexpr int kSetupReps = 5;

}  // namespace perfbench
