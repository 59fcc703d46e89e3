#include "gds/gds.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/error.hpp"

namespace cnfet::gds {
namespace {

// GDSII record types (high byte) and data types (low byte) we use.
enum RecordType : std::uint8_t {
  kHeader = 0x00,
  kBgnLib = 0x01,
  kLibName = 0x02,
  kUnits = 0x03,
  kEndLib = 0x04,
  kBgnStr = 0x05,
  kStrName = 0x06,
  kEndStr = 0x07,
  kBoundary = 0x08,
  kSref = 0x0A,
  kText = 0x0C,
  kLayer = 0x0D,
  kDatatype = 0x0E,
  kXy = 0x10,
  kEndEl = 0x11,
  kSname = 0x12,
  kTextType = 0x16,
  kString = 0x19,
};

enum DataType : std::uint8_t {
  kNoData = 0x00,
  kInt16 = 0x02,
  kInt32 = 0x03,
  kReal8 = 0x05,
  kAscii = 0x06,
};

void put_u16(std::string& buf, std::uint16_t v) {
  buf.push_back(static_cast<char>(v >> 8));
  buf.push_back(static_cast<char>(v & 0xFF));
}

void put_i32(std::string& buf, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  buf.push_back(static_cast<char>(u >> 24));
  buf.push_back(static_cast<char>((u >> 16) & 0xFF));
  buf.push_back(static_cast<char>((u >> 8) & 0xFF));
  buf.push_back(static_cast<char>(u & 0xFF));
}

/// Encodes an IEEE double as GDSII 8-byte excess-64 base-16 real.
void put_real8(std::string& buf, double value) {
  if (value == 0.0) {
    buf.append(8, '\0');
    return;
  }
  std::uint8_t sign = 0;
  if (value < 0) {
    sign = 0x80;
    value = -value;
  }
  int exponent = 64;
  // Normalize mantissa into [1/16, 1).
  while (value >= 1.0) {
    value /= 16.0;
    ++exponent;
  }
  while (value < 1.0 / 16.0) {
    value *= 16.0;
    --exponent;
  }
  CNFET_REQUIRE_MSG(exponent >= 0 && exponent <= 127,
                    "real8 exponent out of range");
  std::uint64_t mantissa = 0;
  for (int i = 0; i < 56; ++i) {
    value *= 2.0;
    mantissa <<= 1;
    if (value >= 1.0) {
      mantissa |= 1;
      value -= 1.0;
    }
  }
  buf.push_back(static_cast<char>(sign | static_cast<std::uint8_t>(exponent)));
  for (int shift = 48; shift >= 0; shift -= 8) {
    buf.push_back(static_cast<char>((mantissa >> shift) & 0xFF));
  }
}

double parse_real8(const std::string& data, std::size_t off) {
  CNFET_REQUIRE(off + 8 <= data.size());
  const auto b0 = static_cast<std::uint8_t>(data[off]);
  const bool negative = (b0 & 0x80) != 0;
  const int exponent = (b0 & 0x7F) - 64;
  std::uint64_t mantissa = 0;
  for (int i = 1; i < 8; ++i) {
    mantissa = (mantissa << 8) | static_cast<std::uint8_t>(data[off + i]);
  }
  double value =
      static_cast<double>(mantissa) / std::pow(2.0, 56) * std::pow(16.0, exponent);
  return negative ? -value : value;
}

void emit(std::ostream& out, RecordType rec, DataType dt,
          const std::string& payload) {
  const std::size_t total = payload.size() + 4;
  CNFET_REQUIRE_MSG(total <= 0xFFFF, "GDS record too long");
  std::string hdr;
  put_u16(hdr, static_cast<std::uint16_t>(total));
  hdr.push_back(static_cast<char>(rec));
  hdr.push_back(static_cast<char>(dt));
  out.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

void emit_ascii(std::ostream& out, RecordType rec, std::string s) {
  if (s.size() % 2 != 0) s.push_back('\0');  // records are 16-bit padded
  emit(out, rec, kAscii, s);
}

void emit_time_stub(std::string& buf) {
  // BGNLIB/BGNSTR carry creation+modification timestamps (6 int16 each).
  // We emit a fixed epoch so output is byte-reproducible.
  for (int i = 0; i < 12; ++i) put_u16(buf, 0);
}

std::int32_t check_coord(geom::Coord c) {
  CNFET_REQUIRE_MSG(c >= INT32_MIN && c <= INT32_MAX,
                    "coordinate exceeds GDS 32-bit range");
  return static_cast<std::int32_t>(c);
}

}  // namespace

Boundary Boundary::rect(std::int16_t layer, const geom::Rect& r,
                        std::int16_t datatype) {
  Boundary b;
  b.layer = layer;
  b.datatype = datatype;
  b.points = {r.lo(), {r.hi().x, r.lo().y}, r.hi(), {r.lo().x, r.hi().y}};
  return b;
}

const Structure* Library::find(const std::string& want) const {
  for (const auto& s : structures) {
    if (s.name == want) return &s;
  }
  return nullptr;
}

void write(const Library& lib, std::ostream& out) {
  {
    std::string v;
    put_u16(v, 600);  // stream version 6
    emit(out, kHeader, kInt16, v);
  }
  {
    std::string v;
    emit_time_stub(v);
    emit(out, kBgnLib, kInt16, v);
  }
  emit_ascii(out, kLibName, lib.name);
  {
    std::string v;
    put_real8(v, lib.user_unit_dbu);
    put_real8(v, lib.dbu_meters);
    emit(out, kUnits, kReal8, v);
  }
  for (const auto& s : lib.structures) {
    {
      std::string v;
      emit_time_stub(v);
      emit(out, kBgnStr, kInt16, v);
    }
    emit_ascii(out, kStrName, s.name);
    for (const auto& b : s.boundaries) {
      CNFET_REQUIRE_MSG(b.points.size() >= 3, "boundary needs >= 3 points");
      emit(out, kBoundary, kNoData, {});
      {
        std::string v;
        put_u16(v, static_cast<std::uint16_t>(b.layer));
        emit(out, kLayer, kInt16, v);
      }
      {
        std::string v;
        put_u16(v, static_cast<std::uint16_t>(b.datatype));
        emit(out, kDatatype, kInt16, v);
      }
      {
        std::string v;
        for (const auto& p : b.points) {
          put_i32(v, check_coord(p.x));
          put_i32(v, check_coord(p.y));
        }
        put_i32(v, check_coord(b.points.front().x));  // close the ring
        put_i32(v, check_coord(b.points.front().y));
        emit(out, kXy, kInt32, v);
      }
      emit(out, kEndEl, kNoData, {});
    }
    for (const auto& ref : s.srefs) {
      emit(out, kSref, kNoData, {});
      emit_ascii(out, kSname, ref.structure_name);
      {
        std::string v;
        put_i32(v, check_coord(ref.origin.x));
        put_i32(v, check_coord(ref.origin.y));
        emit(out, kXy, kInt32, v);
      }
      emit(out, kEndEl, kNoData, {});
    }
    for (const auto& t : s.texts) {
      emit(out, kText, kNoData, {});
      {
        std::string v;
        put_u16(v, static_cast<std::uint16_t>(t.layer));
        emit(out, kLayer, kInt16, v);
      }
      {
        std::string v;
        put_u16(v, static_cast<std::uint16_t>(t.texttype));
        emit(out, kTextType, kInt16, v);
      }
      {
        std::string v;
        put_i32(v, check_coord(t.position.x));
        put_i32(v, check_coord(t.position.y));
        emit(out, kXy, kInt32, v);
      }
      emit_ascii(out, kString, t.value);
      emit(out, kEndEl, kNoData, {});
    }
    emit(out, kEndStr, kNoData, {});
  }
  emit(out, kEndLib, kNoData, {});
}

void write_file(const Library& lib, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::Error("cannot open for write: " + path);
  write(lib, out);
  if (!out) throw util::Error("write failed: " + path);
}

namespace {

struct RawRecord {
  std::uint8_t type = 0;
  std::uint8_t datatype = 0;
  std::string data;
};

bool read_record(std::istream& in, RawRecord& rec) {
  std::array<char, 4> hdr{};
  if (!in.read(hdr.data(), 4)) return false;
  const auto len = static_cast<std::uint16_t>(
      (static_cast<std::uint8_t>(hdr[0]) << 8) |
      static_cast<std::uint8_t>(hdr[1]));
  if (len < 4) throw util::Error("malformed GDS record length");
  rec.type = static_cast<std::uint8_t>(hdr[2]);
  rec.datatype = static_cast<std::uint8_t>(hdr[3]);
  rec.data.resize(len - 4u);
  if (len > 4 && !in.read(rec.data.data(), len - 4)) {
    throw util::Error("truncated GDS record");
  }
  return true;
}

std::int16_t get_i16(const std::string& d, std::size_t off = 0) {
  CNFET_REQUIRE(off + 2 <= d.size());
  return static_cast<std::int16_t>((static_cast<std::uint8_t>(d[off]) << 8) |
                                   static_cast<std::uint8_t>(d[off + 1]));
}

std::int32_t get_i32(const std::string& d, std::size_t off) {
  CNFET_REQUIRE(off + 4 <= d.size());
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v = (v << 8) | static_cast<std::uint8_t>(d[off + static_cast<size_t>(i)]);
  }
  return static_cast<std::int32_t>(v);
}

std::string get_ascii(const std::string& d) {
  std::string s = d;
  while (!s.empty() && s.back() == '\0') s.pop_back();
  return s;
}

std::vector<geom::Vec2> get_points(const std::string& d) {
  CNFET_REQUIRE(d.size() % 8 == 0);
  std::vector<geom::Vec2> pts;
  for (std::size_t off = 0; off < d.size(); off += 8) {
    pts.push_back({get_i32(d, off), get_i32(d, off + 4)});
  }
  return pts;
}

}  // namespace

Library read(std::istream& in) {
  Library lib;
  lib.structures.clear();
  Structure* cur = nullptr;

  enum class El { kNone, kBoundary, kSref, kText };
  El el = El::kNone;
  Boundary bnd;
  Sref ref;
  Text txt;

  RawRecord rec;
  while (read_record(in, rec)) {
    switch (rec.type) {
      case kLibName:
        lib.name = get_ascii(rec.data);
        break;
      case kUnits:
        lib.user_unit_dbu = parse_real8(rec.data, 0);
        lib.dbu_meters = parse_real8(rec.data, 8);
        break;
      case kBgnStr:
        lib.structures.emplace_back();
        cur = &lib.structures.back();
        break;
      case kStrName:
        CNFET_REQUIRE(cur != nullptr);
        cur->name = get_ascii(rec.data);
        break;
      case kBoundary:
        el = El::kBoundary;
        bnd = Boundary{};
        break;
      case kSref:
        el = El::kSref;
        ref = Sref{};
        break;
      case kText:
        el = El::kText;
        txt = Text{};
        break;
      case kLayer:
        if (el == El::kBoundary) bnd.layer = get_i16(rec.data);
        if (el == El::kText) txt.layer = get_i16(rec.data);
        break;
      case kDatatype:
        if (el == El::kBoundary) bnd.datatype = get_i16(rec.data);
        break;
      case kTextType:
        if (el == El::kText) txt.texttype = get_i16(rec.data);
        break;
      case kSname:
        if (el == El::kSref) ref.structure_name = get_ascii(rec.data);
        break;
      case kString:
        if (el == El::kText) txt.value = get_ascii(rec.data);
        break;
      case kXy: {
        auto pts = get_points(rec.data);
        if (el == El::kBoundary) {
          if (pts.size() > 1 && pts.front() == pts.back()) pts.pop_back();
          bnd.points = std::move(pts);
        } else if (el == El::kSref) {
          CNFET_REQUIRE(!pts.empty());
          ref.origin = pts.front();
        } else if (el == El::kText) {
          CNFET_REQUIRE(!pts.empty());
          txt.position = pts.front();
        }
        break;
      }
      case kEndEl:
        CNFET_REQUIRE(cur != nullptr);
        if (el == El::kBoundary) cur->boundaries.push_back(bnd);
        if (el == El::kSref) cur->srefs.push_back(ref);
        if (el == El::kText) cur->texts.push_back(txt);
        el = El::kNone;
        break;
      case kEndStr:
        cur = nullptr;
        break;
      case kEndLib:
        return lib;
      default:
        break;  // unknown record: skipped
    }
  }
  throw util::Error("GDS stream ended without ENDLIB");
}

}  // namespace cnfet::gds
