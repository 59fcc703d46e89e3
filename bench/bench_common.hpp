// Shared harness of the timed benches: wall-clock helpers, the bitwise
// identity checks of libraries and Monte Carlo results, and the one writer
// of BENCH_perf.json.
//
// Every timed bench owns one or more top-level sections of
// ./BENCH_perf.json and merges them in with merge_perf_json; sections
// written by other benches are kept, so the benches run in any order.
#pragma once

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "cnt/analyzer.hpp"
#include "liberty/library.hpp"
#include "util/json.hpp"

namespace cnfet::bench {

inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Best-of-`reps` wall time of fn, in milliseconds.
template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double elapsed = ms_since(start);
    if (elapsed < best) best = elapsed;
  }
  return best;
}

/// A JSON object holding `members` in order.
inline util::json::Value object(
    std::initializer_list<std::pair<const char*, util::json::Value>> members) {
  auto v = util::json::Value::object();
  for (const auto& [key, value] : members) v.set(key, value);
  return v;
}

/// True when two libraries hold the same cells with bitwise-equal input
/// caps, areas and NLDM delay/slew/energy tables.
inline bool libraries_identical(const liberty::Library& a,
                                const liberty::Library& b) {
  if (a.cells().size() != b.cells().size()) return false;
  for (std::size_t c = 0; c < a.cells().size(); ++c) {
    const auto& ca = a.cells()[c];
    const auto& cb = b.cells()[c];
    if (ca.name != cb.name || ca.input_cap != cb.input_cap ||
        ca.area_lambda2 != cb.area_lambda2 ||
        ca.arcs.size() != cb.arcs.size()) {
      return false;
    }
    for (std::size_t arc = 0; arc < ca.arcs.size(); ++arc) {
      const auto& x = ca.arcs[arc];
      const auto& y = cb.arcs[arc];
      for (std::size_t si = 0; si < x.delay.slews().size(); ++si) {
        for (std::size_t li = 0; li < x.delay.loads().size(); ++li) {
          if (x.delay.at(si, li) != y.delay.at(si, li) ||
              x.out_slew.at(si, li) != y.out_slew.at(si, li) ||
              x.energy.at(si, li) != y.energy.at(si, li)) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

/// Full Monte Carlo result comparison: every tally and histogram bucket.
inline bool results_identical(const cnt::MonteCarloResult& a,
                              const cnt::MonteCarloResult& b) {
  return a.trials == b.trials && a.failing_trials == b.failing_trials &&
         a.tubes_sampled == b.tubes_sampled &&
         a.stray_shorts == b.stray_shorts &&
         a.stray_chains == b.stray_chains &&
         a.shorts_histogram == b.shorts_histogram &&
         a.chains_histogram == b.chains_histogram;
}

/// Sets each top-level member of `sections` into the root object of
/// ./BENCH_perf.json, leaving every other key as it was. A file that does
/// not parse to an object is reported on stderr and rewritten. Returns
/// false, after a message on stderr, when the file cannot be written.
inline bool merge_perf_json(const util::json::Value& sections) {
  namespace json = util::json;
  const char* path = "BENCH_perf.json";
  json::Value root = json::Value::object();
  if (std::ifstream in(path); in) {
    std::ostringstream text;
    text << in.rdbuf();
    try {
      root = json::parse(text.str());
      if (!root.is_object()) throw std::runtime_error("root is not an object");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "existing %s is unparseable (%s); rewriting\n",
                   path, e.what());
      root = json::Value::object();
    }
  }
  std::string names;
  for (const auto& [key, value] : sections.members()) {
    root.set(key, value);
    names += (names.empty() ? "\"" : ", \"") + key + "\"";
  }
  std::ofstream out(path, std::ios::trunc);
  out << json::dump(root, 2) << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::printf("\nmerged %s into %s\n", names.c_str(), path);
  return true;
}

}  // namespace cnfet::bench
