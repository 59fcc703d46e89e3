// The command-line reader behind `cnfetc` and `cnfetd`: `--name value`
// pairs and boolean switches in any order, repeatable flags, one
// positional argument, and typed reads. A typed read records the first
// malformed value instead of returning it, so a command states each flag
// once, as one line, and checks one error at the end.
#pragma once

#include <charconv>
#include <climits>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cnfet::util {

/// Parses all of `text` as a base-10 integer: digits only, with a leading
/// '-' for a signed T and never a '+' or a space. The one digits-only
/// reader of the CLI flags and of the decimal-string seeds in requests.
/// Leaves *out unchanged on failure.
template <std::integral T>
[[nodiscard]] bool parse_whole(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) return false;
  *out = value;
  return true;
}

class Args {
 public:
  /// Reads argv[start..argc).
  Args(int argc, char** argv, int start)
      : args_(argv + start, argv + argc), consumed_(args_.size()) {}

  [[nodiscard]] bool has_switch(const std::string& name) {
    const std::size_t i = find(name);
    if (i == args_.size()) return false;
    consumed_[i] = true;
    return true;
  }

  /// The value after the first unread `name`, or nullptr when there is
  /// none; a repeated flag yields its values in order, one per call.
  [[nodiscard]] const std::string* value_of(const std::string& name) {
    const std::size_t i = find(name);
    if (i + 1 >= args_.size()) return nullptr;
    consumed_[i] = consumed_[i + 1] = true;
    return &args_[i + 1];
  }

  /// value_of for a flag `command` cannot run without: records the usage
  /// error "<command> requires <name>" when it is absent.
  const std::string* required(const std::string& name,
                              const std::string& command) {
    const std::string* value = value_of(name);
    if (value == nullptr) fail(command + " requires " + name);
    return value;
  }

  /// First argument no lookup consumed ("" when there is none): read the
  /// flags first, so a flag's value is not taken for the positional.
  [[nodiscard]] std::string positional() const { return unconsumed(false); }

  // Typed reads. An absent flag leaves *out as it is; a malformed value
  // leaves it too and records the usage error.
  void read(const std::string& name, std::string* out) {
    if (const std::string* text = value_of(name)) *out = *text;
  }

  /// A finite double.
  void read(const std::string& name, double* out) {
    const std::string* text = value_of(name);
    if (text == nullptr) return;
    double value = 0.0;
    const char* end = text->data() + text->size();
    const auto [stop, error] = std::from_chars(text->data(), end, value);
    if (error != std::errc() || stop != end || !std::isfinite(value)) {
      return fail(name + " is not a number: " + *text);
    }
    *out = value;
  }

  /// An integer in [lo, hi]; digits only unless lo < 0.
  void read(const std::string& name, int* out, int lo, int hi = INT_MAX) {
    const std::string* text = value_of(name);
    int value = 0;
    if (text == nullptr) return;
    if ((lo < 0 || text->rfind('-', 0) != 0) && parse_whole(*text, &value) &&
        value >= lo && value <= hi) {
      *out = value;
      return;
    }
    fail(name + " is not " +
         (hi != INT_MAX ? "an integer in [" + std::to_string(lo) + ", " +
                              std::to_string(hi) + "]"
          : lo == 1     ? "a positive integer"
                        : "an integer") +
         ": " + *text);
  }

  void read(const std::string& name, std::uint64_t* out) {
    const std::string* text = value_of(name);
    if (text != nullptr && !parse_whole(*text, out)) {
      fail(name + " is not a uint64: " + *text);
    }
  }

  /// An enum through its `*_from_string` (returns a util::Result).
  template <typename T, typename Parse>
  void read(const std::string& name, T* out, Parse parse) {
    const std::string* text = value_of(name);
    if (text == nullptr) return;
    const auto parsed = parse(*text);
    if (parsed.ok()) {
      *out = parsed.value();
    } else {
      fail(parsed.error().message);
    }
  }

  /// Every value of a repeatable enum flag (`--tech cnfet65 --tech
  /// cmos65`), in order; replaces *out when any is given.
  template <typename T, typename Parse>
  void read_all(const std::string& name, std::vector<T>* out, Parse parse) {
    std::vector<T> values;
    while (find(name) + 1 < args_.size()) {
      read(name, &values.emplace_back(), parse);
    }
    if (!values.empty()) *out = std::move(values);
  }

  /// The first usage error: a malformed value or missing required flag,
  /// else an unconsumed `--flag` ("unknown flag --x"); "" when the command
  /// line is clean. Call it after every read.
  [[nodiscard]] std::string error() const {
    if (!error_.empty()) return error_;
    const std::string flag = unconsumed(true);
    return flag.empty() ? flag : "unknown flag " + flag;
  }

 private:
  void fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
  }

  /// The index of the first unread `name` (args_.size() when none).
  [[nodiscard]] std::size_t find(const std::string& name) const {
    std::size_t i = 0;
    while (i < args_.size() && (consumed_[i] || args_[i] != name)) ++i;
    return i;
  }

  /// The first unconsumed `--flag` (flag) or other argument (!flag).
  [[nodiscard]] std::string unconsumed(bool flag) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!consumed_[i] && (args_[i].rfind("--", 0) == 0) == flag) {
        return args_[i];
      }
    }
    return {};
  }

  std::vector<std::string> args_;
  std::vector<bool> consumed_;
  std::string error_;
};

}  // namespace cnfet::util
