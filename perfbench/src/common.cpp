#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "util/json.hpp"

namespace perfbench {

namespace json = cnfet::util::json;

void Tally::record(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(what);
}

void Metrics::set(const std::string& name, double value) {
  for (auto& [key, stored] : values_) {
    if (key == name) {
      stored = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

double Metrics::get(const std::string& name) const {
  for (const auto& [key, value] : values_) {
    if (key == name) return value;
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double tail_latency(const std::vector<double>& values) {
  const auto n = static_cast<double>(values.size());
  if (n >= 1000) return quantile(values, 0.99);
  return quantile(values, std::max(0.5, 1.0 - 10.0 / n));
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

int load_cap() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hardware, 1u, 4u));
}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  const std::int64_t now = to_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now, now, stack_.empty() ? -1 : stack_.back(), -1});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  const std::int64_t now = to_ns(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int Tracer::record(const std::string& name, Clock::time_point start,
                   Clock::time_point end, int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, to_ns(start), to_ns(end), parent, -1});
  return id;
}

void Tracer::explain(int replay, int opaque) {
  if (replay < 0 || opaque < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(replay)].explains = opaque;
}

int Tracer::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stack_.empty() ? -1 : stack_.back();
}

double Tracer::total_seconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t total = 0;
  for (const auto& span : spans_) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  const std::size_t n = spans_.size();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(n);
  std::vector<std::int64_t> replayed(n, 0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
    if (span.explains >= 0) {
      replayed[static_cast<std::size_t>(span.explains)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::vector<std::int64_t> self(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's: children
    // recorded from several threads (served requests) overlap.
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, reach);
      const std::int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, span.end_ns));
    }
    self[i] = std::max<std::int64_t>(
        0, span.end_ns - span.start_ns - covered - replayed[i]);
  }
  return self;
}

void Tracer::print_self_times() const {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto self = self_ns();
  struct Row {
    std::int64_t count = 0, total_ns = 0, self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    row.self_ns += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::printf("%-32s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, row] : sorted) {
    std::printf("%-32s %8lld %12.6f %12.6f\n", name.c_str(),
                static_cast<long long>(row.count),
                static_cast<double>(row.total_ns) * 1e-9,
                static_cast<double>(row.self_ns) * 1e-9);
  }
}

bool Tracer::write_json(const std::string& path) const {
  if (!enabled_ || path.empty()) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto self = self_ns();
  json::Value spans = json::Value::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    json::Value span = json::Value::object();
    span.set("id", static_cast<std::int64_t>(i));
    span.set("name", spans_[i].name);
    span.set("start_ns", spans_[i].start_ns);
    span.set("end_ns", spans_[i].end_ns);
    span.set("parent", spans_[i].parent);
    span.set("explains", spans_[i].explains);
    span.set("self_ns", self[i]);
    spans.push_back(std::move(span));
  }
  std::error_code ignored;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ignored);
  std::ofstream out(path, std::ios::trunc);
  out << json::dump(spans) << "\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer& tracer, const std::string& name)
    : tracer_(tracer), id_(tracer.open(name)), start_(Clock::now()) {}

double ScopedSpan::stop() {
  if (seconds_ < 0.0) {
    seconds_ = seconds_between(start_, Clock::now());
    tracer_.close(id_);
  }
  return seconds_;
}

}  // namespace perfbench
