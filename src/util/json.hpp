// Dependency-free JSON for the versioned artifact files the api:: layer
// persists (library caches, flow sessions, job lists, batch reports).
//
// The surface is deliberately small: one Value type (null, bool, number,
// string, array, object), a deterministic writer and a strict parser.
// Determinism matters more than features here — object members keep their
// insertion order and the writer formats every value the same way on every
// host, so a checksum over dump() is stable and a parse()+dump() of a file
// we wrote reproduces it byte for byte.
//
// Numbers are IEEE doubles. The writer emits integral values as integers
// and everything else with 17 significant digits, which round-trips every
// finite double exactly through strtod. NaN and infinity have no JSON
// representation and are rejected at write time (util::Error) — artifact
// files must never contain values a reader cannot reproduce.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace cnfet::util::json {

/// One JSON value. Arrays and objects own their children; objects preserve
/// insertion order (no sorting, no dedup — set() replaces in place).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT(google-explicit-*)
  Value(double d) : kind_(Kind::kNumber), num_(d) {}       // NOLINT
  Value(int i) : Value(static_cast<double>(i)) {}          // NOLINT
  Value(std::int64_t i) : Value(static_cast<double>(i)) {} // NOLINT
  Value(std::size_t i) : Value(static_cast<double>(i)) {}  // NOLINT
  Value(std::string s)                                     // NOLINT
      : kind_(Kind::kString), str_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}          // NOLINT

  [[nodiscard]] static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  [[nodiscard]] static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors throw util::Error on a kind mismatch — artifact
  /// readers convert that into a Diagnostic at the api:: boundary.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// as_double, plus a check that the value is an exact integer in range.
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] int as_int() const;
  [[nodiscard]] const std::string& as_string() const;

  // --- arrays ---
  void push_back(Value v);
  [[nodiscard]] const std::vector<Value>& items() const;
  [[nodiscard]] std::size_t size() const { return items().size(); }
  [[nodiscard]] const Value& at(std::size_t index) const;

  // --- objects ---
  /// Inserts or replaces (replacement keeps the member's position).
  void set(const std::string& key, Value v);
  /// Null when absent.
  [[nodiscard]] const Value* find(const std::string& key) const;
  /// Throws util::Error naming the missing key.
  [[nodiscard]] const Value& at(const std::string& key) const;
  /// Moves the member's value out (the member remains, holding null).
  /// For large payloads where a copy would be wasteful.
  [[nodiscard]] Value take(const std::string& key);
  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& members()
      const;

  // Checked convenience getters for object members (error names the key).
  [[nodiscard]] bool get_bool(const std::string& key) const;
  [[nodiscard]] int get_int(const std::string& key) const;
  [[nodiscard]] const std::string& get_string(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Serializes deterministically. `indent` > 0 pretty-prints with that many
/// spaces per level; 0 writes the compact single-line form (the form the
/// checksums are computed over). Throws util::Error on NaN or infinity.
[[nodiscard]] std::string dump(const Value& value, int indent = 0);

/// Formats one double exactly as dump() would (integral values as
/// integers, otherwise 17 significant digits). Exposed so checksums and
/// tests can reason about the representation directly.
[[nodiscard]] std::string format_number(double value);

/// Resource bounds for parse(). The defaults suit trusted artifact files;
/// code parsing untrusted bytes (the cnfetd socket protocol) passes
/// tighter limits so a hostile document can neither stack-overflow the
/// parser (nesting) nor balloon memory (size). Violations surface as the
/// same offset-bearing util::Error every other malformed input gets.
struct ParseLimits {
  /// Maximum container nesting depth before the parser refuses.
  int max_depth = 200;
  /// Maximum document size in bytes; 0 means unlimited.
  std::size_t max_bytes = 0;
};

/// Strict parse of a complete JSON document: one top-level value, nothing
/// but whitespace after it. Throws util::Error with the byte offset on
/// malformed or truncated input, and enforces `limits` on untrusted text.
[[nodiscard]] Value parse(const std::string& text,
                          const ParseLimits& limits = {});

/// FNV-1a 64-bit over a byte string — the checksum the versioned artifact
/// files embed (hex-encoded). Not cryptographic; it guards against
/// truncation and accidental edits, not adversaries.
[[nodiscard]] std::uint64_t fnv1a64(const std::string& bytes);
[[nodiscard]] std::string fnv1a64_hex(const std::string& bytes);

}  // namespace cnfet::util::json
