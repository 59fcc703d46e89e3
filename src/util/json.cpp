#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace cnfet::util::json {

namespace {

const char* kind_name(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kNull:
      return "null";
    case Value::Kind::kBool:
      return "bool";
    case Value::Kind::kNumber:
      return "number";
    case Value::Kind::kString:
      return "string";
    case Value::Kind::kArray:
      return "array";
    case Value::Kind::kObject:
      return "object";
  }
  return "?";
}

[[noreturn]] void kind_error(const char* wanted, Value::Kind got) {
  throw Error(std::string("json: expected ") + wanted + ", got " +
              kind_name(got));
}

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double Value::as_double() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return num_;
}

std::int64_t Value::as_int64() const {
  const double d = as_double();
  if (d != std::floor(d) || std::fabs(d) > 9.007199254740992e15) {
    throw Error("json: number " + format_number(d) + " is not an integer");
  }
  return static_cast<std::int64_t>(d);
}

int Value::as_int() const {
  const std::int64_t i = as_int64();
  if (i < std::numeric_limits<int>::min() ||
      i > std::numeric_limits<int>::max()) {
    throw Error("json: integer " + std::to_string(i) + " overflows int");
  }
  return static_cast<int>(i);
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return str_;
}

void Value::push_back(Value v) {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  array_.push_back(std::move(v));
}

const std::vector<Value>& Value::items() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return array_;
}

const Value& Value::at(std::size_t index) const {
  const auto& a = items();
  if (index >= a.size()) {
    throw Error("json: array index " + std::to_string(index) +
                " out of range (size " + std::to_string(a.size()) + ")");
  }
  return a[index];
}

void Value::set(const std::string& key, Value v) {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw Error("json: missing key \"" + key + "\"");
  return *v;
}

Value Value::take(const std::string& key) {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      Value out = std::move(v);
      v = Value();
      return out;
    }
  }
  throw Error("json: missing key \"" + key + "\"");
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return object_;
}

bool Value::get_bool(const std::string& key) const { return at(key).as_bool(); }
int Value::get_int(const std::string& key) const { return at(key).as_int(); }
const std::string& Value::get_string(const std::string& key) const {
  return at(key).as_string();
}

namespace {

/// Appends `value` as dump() writes it.
void append_number(double value, std::string* out) {
  if (!std::isfinite(value)) {
    throw Error("json: NaN/infinity cannot be serialized");
  }
  // Every number is written as printf's "%.17g" would write it: 17
  // significant digits, which strtod maps back to the identical bit
  // pattern. Integral doubles inside the exact-integer range (net ids,
  // counts, grid sizes) take the faster integer conversion, which gives
  // the same digits; to_chars in general format at precision 17 gives
  // "%.17g" for the rest.
  char buf[32];
  std::to_chars_result written{};
  if (value == std::floor(value) && std::fabs(value) <= 9.007199254740992e15) {
    // Preserve the sign of -0.0: "-0" parses back to the negative zero.
    if (value == 0.0 && std::signbit(value)) {
      out->append("-0");
      return;
    }
    written = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(value));
  } else {
    written = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 17);
  }
  out->append(buf, written.ptr);
}

}  // namespace

std::string format_number(double value) {
  std::string out;
  append_number(value, &out);
  return out;
}

namespace {

void escape_into(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);  // UTF-8 bytes pass through untouched
        }
    }
  }
  out->push_back('"');
}

void dump_into(const Value& v, int indent, int depth, std::string* out) {
  const auto newline_pad = [&](int levels) {
    if (indent <= 0) return;
    out->push_back('\n');
    out->append(static_cast<std::size_t>(indent * levels), ' ');
  };
  switch (v.kind()) {
    case Value::Kind::kNull:
      *out += "null";
      break;
    case Value::Kind::kBool:
      *out += v.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kNumber:
      append_number(v.as_double(), out);
      break;
    case Value::Kind::kString:
      escape_into(v.as_string(), out);
      break;
    case Value::Kind::kArray: {
      if (v.items().empty()) {
        *out += "[]";
        break;
      }
      out->push_back('[');
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) out->push_back(',');
        first = false;
        newline_pad(depth + 1);
        dump_into(item, indent, depth + 1, out);
      }
      newline_pad(depth);
      out->push_back(']');
      break;
    }
    case Value::Kind::kObject: {
      if (v.members().empty()) {
        *out += "{}";
        break;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, item] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        newline_pad(depth + 1);
        escape_into(key, out);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        dump_into(item, indent, depth + 1, out);
      }
      newline_pad(depth);
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& value, int indent) {
  std::string out;
  dump_into(value, indent, 0, &out);
  if (indent > 0) out.push_back('\n');
  return out;
}

namespace {

/// Recursive-descent parser over the whole input string; offsets feed the
/// error messages so a truncated artifact names where it broke off.
class Parser {
 public:
  Parser(const std::string& text, const ParseLimits& limits)
      : text_(text), limits_(limits) {}

  Value parse_document() {
    if (limits_.max_bytes != 0 && text_.size() > limits_.max_bytes) {
      // Report at the limit boundary: that is where a reader streaming the
      // document would have stopped accepting bytes.
      pos_ = limits_.max_bytes;
      fail("document size " + std::to_string(text_.size()) +
           " exceeds the " + std::to_string(limits_.max_bytes) +
           "-byte limit");
    }
    Value v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after the top-level value");
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json parse error at offset " + std::to_string(pos_) + ": " +
                what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Value parse_value(int depth) {
    if (depth > limits_.max_depth) {
      fail("nesting deeper than the limit of " +
           std::to_string(limits_.max_depth));
    }
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  Value parse_object(int depth) {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array(int depth) {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          const unsigned cp = parse_hex4();
          // Our writer only escapes ASCII control characters, but accept
          // any BMP code point (and surrogate pairs) as UTF-8.
          unsigned code = cp;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (!consume_literal("\\u")) fail("unpaired surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            code = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired surrogate");
          }
          append_utf8(code, &out);
          break;
        }
        default:
          fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid hex digit in \\u escape");
      }
    }
    return value;
  }

  static void append_utf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_digits = digits();
    if (int_digits == 0) fail("invalid number");
    // JSON forbids leading zeros ("01"); strtod would accept them.
    if (int_digits > 1 && text_[start + (text_[start] == '-' ? 1 : 0)] == '0') {
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("digits required in exponent");
    }
    const std::string token = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    if (!std::isfinite(value)) fail("number out of double range");
    return Value(value);
  }

  const std::string& text_;
  ParseLimits limits_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text, const ParseLimits& limits) {
  return Parser(text, limits).parse_document();
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string fnv1a64_hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return buf;
}

}  // namespace cnfet::util::json
