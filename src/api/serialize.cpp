#include "api/serialize.hpp"

#include <cctype>
#include <charconv>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "flow/gds_export.hpp"
#include "layout/cells.hpp"
#include "logic/expr.hpp"

namespace cnfet::api {

namespace json = util::json;

namespace {

// --- enum <-> string ------------------------------------------------------
// Every enum travels as its printed to_string; every inverse scans the
// enumerators against it, so the JSON vocabulary can never drift.

const char* to_string(flow::MapCost cost) {
  return cost == flow::MapCost::kGateCount ? "gate_count" : "delay";
}

template <typename Enum>
Enum enum_from_string(const std::string& name,
                      std::initializer_list<Enum> values, const char* what) {
  for (const Enum value : values) {
    if (name == to_string(value)) return value;
  }
  throw util::Error(std::string("unknown ") + what + ": \"" + name + "\"");
}

template <typename T>
T value_or_throw(util::Result<T> result) {
  if (!result.ok()) throw util::Error(result.error().message);
  return std::move(result).value();
}

void parse(const std::string& name, layout::Tech& out) {
  out = value_or_throw(tech_from_string(name));
}
void parse(const std::string& name, Stage& out) {
  out = value_or_throw(stage_from_string(name));
}
void parse(const std::string& name, gen::Family& out) {
  out = value_or_throw(gen::family_from_string(name));
}
void parse(const std::string& name, layout::CellScheme& out) {
  out = enum_from_string(
      name, {layout::CellScheme::kScheme1, layout::CellScheme::kScheme2},
      "cell scheme");
}
void parse(const std::string& name, layout::LayoutStyle& out) {
  out = enum_from_string(name,
                         {layout::LayoutStyle::kNaiveVulnerable,
                          layout::LayoutStyle::kEtchedIsolatedBranches,
                          layout::LayoutStyle::kEtchedIsolatedFets,
                          layout::LayoutStyle::kCompactEuler},
                         "layout style");
}
void parse(const std::string& name, util::Severity& out) {
  out = enum_from_string(name,
                         {util::Severity::kInfo, util::Severity::kWarning,
                          util::Severity::kError},
                         "severity");
}
void parse(const std::string& name, flow::MapCost& out) {
  out = enum_from_string(
      name, {flow::MapCost::kGateCount, flow::MapCost::kDelay}, "map cost");
}

// --- the field lists ------------------------------------------------------
// Each serialized struct states its keys once, in file order:
// fields(s, f) calls f("key", s.member) per member. `s` is const when
// writing and mutable when reading, so one list drives both directions.
// Flat rows (row(s, f)) are the same idea without keys, for the shapes a
// large design repeats tens of thousands of times.

template <typename S, typename T>
concept either = std::is_same_v<std::remove_const_t<S>, T>;

/// Tag: the uint64 GenOptions::seed travels as a decimal string (JSON
/// numbers are doubles).
struct AsDecimal {};

/// geom::Rect's stored form.
struct Corners {
  geom::Coord lo_x = 0, lo_y = 0, hi_x = 0, hi_y = 0;
};

/// The head of a saved session: read first, so resume can bind the
/// characterized library before any cell name resolves through it.
struct SessionHeader {
  std::string name;
  Stage stage = Stage::kCreated;
  FlowOptions options;
  std::string library_checksum;
};

/// jobs.json's payload.
struct JobsFile {
  std::vector<FlowJob> jobs;
};

template <either<Corners> S, typename F>
void fields(S& c, F&& f) {
  f("lo_x", c.lo_x);
  f("lo_y", c.lo_y);
  f("hi_x", c.hi_x);
  f("hi_y", c.hi_y);
}

template <either<layout::DesignRules> S, typename F>
void fields(S& r, F&& f) {
  f("gate_len", r.gate_len);
  f("contact_len", r.contact_len);
  f("gate_contact_space", r.gate_contact_space);
  f("gate_gate_space", r.gate_gate_space);
  f("etch_len", r.etch_len);
  f("contact_contact_space", r.contact_contact_space);
  f("via_size", r.via_size);
  f("gate_overhang", r.gate_overhang);
  f("cnt_margin", r.cnt_margin);
  f("pin_width", r.pin_width);
  f("pun_pdn_gap", r.pun_pdn_gap);
  f("strip_lane", r.strip_lane);
  f("cell_margin", r.cell_margin);
  f("wire_width", r.wire_width);
  f("wire_spacing", r.wire_spacing);
  f("route_pitch", r.route_pitch);
  f("wire_sheet_res", r.wire_sheet_res);
  f("wire_cap_per_lambda", r.wire_cap_per_lambda);
  f("via_res", r.via_res);
  f("tech", r.tech);
}

template <either<liberty::TimingArc> S, typename F>
void fields(S& a, F&& f) {
  f("input", a.input);
  f("out_rising", a.out_rising);
  f("delay", a.delay);
  f("out_slew", a.out_slew);
  f("energy", a.energy);
}

/// A liberty::LibCell as read back: everything but the geometry, which
/// the reader rebuilds from the spec name (see the liberty::Library codec).
struct StoredCell {
  std::string name;
  std::string spec;
  double drive = 1.0;
  double area_lambda2 = 0.0;
  std::vector<double> input_cap;
  std::vector<liberty::TimingArc> arcs;
};

const std::string& spec_of(const liberty::LibCell& c) {
  return c.built.spec.name;
}
std::string& spec_of(StoredCell& c) { return c.spec; }

/// Only the characterization results travel, never the cell geometry.
template <typename S, typename F>
  requires either<S, liberty::LibCell> || either<S, StoredCell>
void fields(S& c, F&& f) {
  f("name", c.name);
  f("spec", spec_of(c));
  f("drive", c.drive);
  f("area_lambda2", c.area_lambda2);
  f("input_cap", c.input_cap);
  f("arcs", c.arcs);
}

template <either<gen::GenOptions> S, typename F>
void fields(S& o, F&& f) {
  f("family", o.family);
  f("width", o.width);
  f("target_gates", o.target_gates);
  f("num_inputs", o.num_inputs);
  f("seed", o.seed, AsDecimal{});
  f("drive", o.drive);
}

template <either<flow::Gate> S, typename F>
void fields(S& g, F&& f) {
  f("cell", g.cell);
  f("name", g.name);
  f("inputs", g.inputs);
  f("output", g.output);
}

template <either<flow::PlacedInstance> S, typename F>
void fields(S& i, F&& f) {
  f("gate", i.gate);
  f("x", i.origin.x);
  f("y", i.origin.y);
  f("width", i.width);
  f("height", i.height);
}

template <either<flow::PlacementResult> S, typename F>
void fields(S& p, F&& f) {
  f("scheme", p.scheme);
  f("instances", p.instances);
  f("bbox", p.bbox);
  f("natural_area_lambda2", p.natural_area_lambda2);
  f("placed_area_lambda2", p.placed_area_lambda2);
  f("hpwl_lambda", p.hpwl_lambda);
}

template <either<route::RoutedNet> S, typename F>
void fields(S& n, F&& f) {
  f("net", n.net);
  f("terminals", n.terminals);
  f("wires", n.wires);
  f("vias", n.vias);
  f("length_lambda", n.length_lambda);
}

template <either<route::RoutingResult> S, typename F>
void fields(S& r, F&& f) {
  f("nets", r.nets);
  f("pitch", r.pitch);
  f("grid_bbox", r.grid_bbox);
  f("total_wirelength_lambda", r.total_wirelength_lambda);
  f("failed_nets", r.failed_nets);
}

template <either<geom::Vec2> S, typename F>
void row(S& v, F&& f) {
  f(v.x);
  f(v.y);
}

template <either<route::Wire> S, typename F>
void row(S& w, F&& f) {
  f(w.layer);
  f(w.a.x);
  f(w.a.y);
  f(w.b.x);
  f(w.b.y);
  f(w.width);
}

template <either<route::Via> S, typename F>
void row(S& v, F&& f) {
  f(v.at.x);
  f(v.at.y);
  f(v.size);
}

template <either<sta::StaOptions> S, typename F>
void fields(S& o, F&& f) {
  f("input_slew", o.input_slew);
  f("wire_cap_per_fanout", o.wire_cap_per_fanout);
  f("output_load", o.output_load);
}

template <either<flow::PlaceOptions> S, typename F>
void fields(S& o, F&& f) {
  f("scheme", o.scheme);
  f("aspect_rows", o.aspect_rows);
  f("cell_spacing_lambda", o.cell_spacing_lambda);
  f("row_spacing_lambda", o.row_spacing_lambda);
}

template <either<drc::DrcOptions> S, typename F>
void fields(S& o, F&& f) {
  f("allow_vertical_gating", o.allow_vertical_gating);
  f("deck", o.deck);
}

template <either<route::RouteOptions> S, typename F>
void fields(S& o, F&& f) {
  f("window_halo_cells", o.window_halo_cells);
}

/// options.library is deliberately absent: resume resolves the handle
/// from LibraryCache::global(), and characterization is deterministic,
/// so the reconstruction is exact.
template <either<FlowOptions> S, typename F>
void fields(S& o, F&& f) {
  f("tech", o.tech);
  f("drive", o.drive);
  f("output_drive", o.output_drive);
  f("verify", o.verify);
  f("map_cost", o.map_cost);
  f("optimize", o.optimize);
  f("target_delay", o.target_delay);
  f("max_area_growth", o.max_area_growth);
  f("sta", o.sta);
  f("place", o.place);
  f("drc", o.drc);
  f("route", o.route);
  f("route_opts", o.route_opts);
  f("top_name", o.top_name);
}

template <either<FlowMetrics> S, typename F>
void fields(S& m, F&& f) {
  f("name", m.name);
  f("tech", m.tech);
  f("stage", m.stage);
  f("gates", m.gates);
  f("nand2", m.nand2);
  f("nor2", m.nor2);
  f("inv", m.inv);
  f("verified", m.verified);
  f("worst_arrival_s", m.worst_arrival_s);
  f("energy_per_cycle_j", m.energy_per_cycle_j);
  f("edp_js", m.edp_js);
  f("optimized", m.optimized);
  f("pre_opt_worst_arrival_s", m.pre_opt_worst_arrival_s);
  f("gates_resized", m.gates_resized);
  f("buffers_inserted", m.buffers_inserted);
  f("gates_removed", m.gates_removed);
  f("opt_area_growth", m.opt_area_growth);
  f("placed_area_lambda2", m.placed_area_lambda2);
  f("utilization", m.utilization);
  f("hpwl_lambda", m.hpwl_lambda);
  f("cells_signed_off", m.cells_signed_off);
  f("drc_violations", m.drc_violations);
  f("all_immune", m.all_immune);
  f("routed", m.routed);
  f("total_wirelength", m.total_wirelength);
  f("wire_cap_ff", m.wire_cap_ff);
  f("wire_delay_ps", m.wire_delay_ps);
  f("routed_worst_arrival_s", m.routed_worst_arrival_s);
  f("wire_drc_violations", m.wire_drc_violations);
  f("gds_structures", m.gds_structures);
}

template <either<util::Diagnostic> S, typename F>
void fields(S& d, F&& f) {
  f("severity", d.severity);
  f("stage", d.stage);
  f("message", d.message);
}

template <either<sta::StaResult> S, typename F>
void fields(S& r, F&& f) {
  f("worst_arrival", r.worst_arrival);
  f("critical_output", r.critical_output);
  f("critical_path", r.critical_path);
  f("energy_per_cycle", r.energy_per_cycle);
  f("arrival", r.arrival);
  f("slew", r.slew);
}

/// Only raw tallies travel (yield is derived).
template <either<cnt::MonteCarloResult> S, typename F>
void fields(S& r, F&& f) {
  f("trials", r.trials);
  f("failing_trials", r.failing_trials);
  f("tubes_sampled", r.tubes_sampled);
  f("stray_shorts", r.stray_shorts);
  f("stray_chains", r.stray_chains);
  f("shorts_histogram", r.shorts_histogram);
  f("chains_histogram", r.chains_histogram);
}

template <either<JobOutcome> S, typename F>
void fields(S& o, F&& f) {
  f("name", o.name);
  f("ok", o.ok);
  f("skipped", o.skipped);
  f("reached", o.reached);
  f("metrics", o.metrics);
  f("diagnostics", o.diagnostics);
}

template <either<FlowReport> S, typename F>
void fields(S& r, F&& f) {
  f("jobs", r.jobs);
  f("total_gates", r.total_gates);
  f("total_area_lambda2", r.total_area_lambda2);
  f("total_energy_per_cycle_j", r.total_energy_per_cycle_j);
  f("worst_arrival_s", r.worst_arrival_s);
  f("total_drc_violations", r.total_drc_violations);
  f("all_immune", r.all_immune);
}

template <either<flow::OutputSpec> S, typename F>
void fields(S& o, F&& f) {
  f("name", o.name);
  f("expr", o.expr);
  f("inverted", o.inverted);
}

template <either<FlowJob> S, typename F>
void fields(S& j, F&& f) {
  f("name", j.name);
  f("cell", j.cell);
  f("outputs", j.outputs);
  f("inputs", j.inputs);
  f("options", j.options);
  f("target", j.target);
}

template <either<JobsFile> S, typename F>
void fields(S& j, F&& f) {
  f("jobs", j.jobs);
}

template <either<SessionHeader> S, typename F>
void fields(S& h, F&& f) {
  f("name", h.name);
  f("stage", h.stage);
  f("options", h.options);
  f("library_checksum", h.library_checksum);
}

template <either<MappedArtifact> S, typename F>
void fields(S& m, F&& f) {
  f("netlist", m.map.netlist);
  f("nand_count", m.map.nand_count);
  f("nor_count", m.map.nor_count);
  f("inv_count", m.map.inv_count);
  f("num_inputs", m.num_inputs);
  f("verified", m.verified);
}

template <either<TimedArtifact> S, typename F>
void fields(S& t, F&& f) {
  f("timing", t.timing);
}

template <either<opt::PassStats> S, typename F>
void fields(S& s, F&& f) {
  f("gates_resized", s.gates_resized);
  f("buffers_inserted", s.buffers_inserted);
  f("gates_removed", s.gates_removed);
  f("function_verified", s.function_verified);
  f("delay_before", s.delay_before);
  f("delay_after", s.delay_after);
  f("area_before", s.area_before);
  f("area_after", s.area_after);
}

template <either<OptimizedArtifact> S, typename F>
void fields(S& o, F&& f) {
  f("enabled", o.enabled);
  f("stats", o.stats);
  f("timing", o.timing);
}

template <either<PlacedArtifact> S, typename F>
void fields(S& p, F&& f) {
  f("placement", p.placement);
}

template <either<CellSignOff> S, typename F>
void fields(S& c, F&& f) {
  f("cell", c.cell);
  f("drc_violations", c.drc_violations);
  f("immune", c.immune);
  f("immunity_checked", c.immunity_checked);
}

template <either<SignOffArtifact> S, typename F>
void fields(S& s, F&& f) {
  f("cells", s.cells);
  f("total_drc_violations", s.total_drc_violations);
  f("all_immune", s.all_immune);
}

/// The extraction is NOT stored: it is a cheap pure function of the
/// routing and the design rules, recomputed exactly on resume. The routed
/// timing travels so resume needs no STA re-run.
template <either<RoutedArtifact> S, typename F>
void fields(S& r, F&& f) {
  f("routing", r.routing);
  f("routed_timing", r.routed_timing);
  f("ideal_worst_arrival_s", r.ideal_worst_arrival_s);
  f("wire_drc_violations", r.wire_drc_violations);
}

// --- the two walkers ------------------------------------------------------

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
concept Row = requires(T& value) { row(value, [](auto&) {}); };

template <typename T>
constexpr bool kIsScalar = std::is_arithmetic_v<T> ||
                           std::is_same_v<T, std::string>;

/// Value -> JSON. `netlist` is what placed instances' gate pointers index
/// into (null when the value holds none).
struct Writer {
  const flow::GateNetlist* netlist = nullptr;

  template <typename T>
  json::Value operator()(const T& value) const {
    if constexpr (std::is_enum_v<T>) {
      return to_string(value);
    } else if constexpr (kIsScalar<T>) {
      return value;
    } else if constexpr (kIsVector<T>) {
      json::Value array = json::Value::array();
      for (const auto& item : value) array.push_back((*this)(item));
      return array;
    } else if constexpr (Row<T>) {
      json::Value array = json::Value::array();
      row(value, [&](const auto& cell) { array.push_back(cell); });
      return array;
    } else {
      json::Value object = json::Value::object();
      fields(value, Keyed{*this, object});
      return object;
    }
  }

  // The special shapes.
  json::Value operator()(const logic::Expr& expr) const;
  json::Value operator()(const liberty::NldmTable& table) const;
  json::Value operator()(const liberty::Library& library) const;
  json::Value operator()(const flow::GateNetlist& netlist) const;
  json::Value operator()(const util::Diagnostics& diagnostics) const {
    return (*this)(diagnostics.items());
  }
  json::Value operator()(const geom::Rect& r) const {
    return (*this)(Corners{r.lo().x, r.lo().y, r.hi().x, r.hi().y});
  }
  json::Value operator()(const liberty::LibCell* cell) const {
    return cell->name;
  }
  json::Value operator()(const flow::Gate* gate) const {
    const auto index =
        netlist == nullptr ? -1 : gate - netlist->gates().data();
    if (index < 0 ||
        index >= static_cast<std::ptrdiff_t>(netlist->gates().size())) {
      throw util::Error("placement instance references a foreign netlist");
    }
    return static_cast<std::int64_t>(index);
  }

  /// The field visitor fields() is instantiated with.
  struct Keyed {
    const Writer& write;
    json::Value& object;

    template <typename T>
    void operator()(const char* key, const T& member) const {
      object.set(key, write(member));
    }
    template <typename T>
    void operator()(const char* key, const std::optional<T>& member) const {
      if (member) object.set(key, write(*member));
    }
    void operator()(const char* key, std::uint64_t member, AsDecimal) const {
      object.set(key, std::to_string(member));
    }
  };
};

/// JSON -> value, throwing util::Error on a malformed shape. Gate cells
/// resolve by name against `library`, placed instances by index into
/// `netlist`.
struct Reader {
  const liberty::Library* library = nullptr;
  const flow::GateNetlist* netlist = nullptr;

  template <typename T>
  void operator()(const json::Value& v, T& out) const {
    if constexpr (std::is_enum_v<T>) {
      parse(v.as_string(), out);
    } else if constexpr (std::is_same_v<T, bool>) {
      out = v.as_bool();
    } else if constexpr (std::is_same_v<T, int>) {
      out = v.as_int();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      out = v.as_int64();
    } else if constexpr (std::is_same_v<T, std::size_t>) {
      out = static_cast<std::size_t>(v.as_int64());
    } else if constexpr (std::is_same_v<T, double>) {
      out = v.as_double();
    } else if constexpr (std::is_same_v<T, std::string>) {
      out = v.as_string();
    } else if constexpr (kIsVector<T>) {
      out.clear();
      out.reserve(v.size());
      for (const auto& item : v.items()) (*this)(item, out.emplace_back());
    } else if constexpr (Row<T>) {
      std::size_t i = 0;
      row(out, [&](auto& cell) { (*this)(v.at(i++), cell); });
    } else {
      fields(out, Keyed{*this, v});
    }
  }

  template <typename T>
  [[nodiscard]] T read(const json::Value& v) const {
    T out;
    (*this)(v, out);
    return out;
  }

  // The special shapes.
  void operator()(const json::Value& v, logic::Expr& out) const;
  void operator()(const json::Value& v, liberty::NldmTable& out) const;
  void operator()(const json::Value& v, liberty::Library& out) const;
  void operator()(const json::Value& v, flow::GateNetlist& out) const;
  void operator()(const json::Value& v, route::RoutingResult& out) const;
  void operator()(const json::Value& v, util::Diagnostics& out) const {
    out = util::Diagnostics();
    for (auto& d : read<std::vector<util::Diagnostic>>(v)) {
      out.add(std::move(d));
    }
  }
  void operator()(const json::Value& v, geom::Rect& out) const {
    const auto c = read<Corners>(v);
    out = geom::Rect({c.lo_x, c.lo_y}, {c.hi_x, c.hi_y});
  }
  void operator()(const json::Value& v, const liberty::LibCell*& out) const {
    out = &library->find(v.as_string());
  }
  void operator()(const json::Value& v, const flow::Gate*& out) const {
    if (netlist == nullptr) {
      throw util::Error("placed artifact without a mapped netlist");
    }
    const std::int64_t index = v.as_int64();
    if (index < 0 ||
        index >= static_cast<std::int64_t>(netlist->gates().size())) {
      throw util::Error("placement gate index " + std::to_string(index) +
                        " out of range");
    }
    out = &netlist->gates()[static_cast<std::size_t>(index)];
  }

  /// The field visitor fields() is instantiated with.
  struct Keyed {
    const Reader& read;
    const json::Value& object;

    template <typename T>
    void operator()(const char* key, T& member) const {
      read(object.at(key), member);
    }
    template <typename T>
    void operator()(const char* key, std::optional<T>& member) const {
      if (const json::Value* v = object.find(key)) read(*v, member.emplace());
    }
    void operator()(const char* key, std::uint64_t& member, AsDecimal) const {
      // Digits only: from_chars refuses the sign and the leading space
      // std::stoull would accept, so every accepted seed round-trips.
      const std::string& text = object.at(key).as_string();
      const char* end = text.data() + text.size();
      const auto [stop, error] = std::from_chars(text.data(), end, member);
      if (error != std::errc() || stop != end) {
        throw util::Error("gen options: " + std::string(key) +
                          " is not a uint64: \"" + text + "\"");
      }
    }
  };
};

// --- the special shapes -----------------------------------------------------

// logic::Expr is structural: Expr::to_string() names variables A.. by
// index while parse_expr numbers them by first appearance, so text would
// not round-trip expressions whose variables appear out of index order.
json::Value Writer::operator()(const logic::Expr& expr) const {
  json::Value v = json::Value::object();
  switch (expr.kind()) {
    case logic::Expr::Kind::kVar:
      v.set("var", expr.var_index());
      break;
    case logic::Expr::Kind::kAnd:
    case logic::Expr::Kind::kOr:
      v.set(expr.kind() == logic::Expr::Kind::kAnd ? "and" : "or",
            (*this)(expr.children()));
      break;
    case logic::Expr::Kind::kNot:
      v.set("not", (*this)(expr.children().front()));
      break;
  }
  return v;
}

logic::Expr expr_from_json(const json::Value& v) {
  if (const auto* var = v.find("var")) return logic::Expr::var(var->as_int());
  if (const auto* inner = v.find("not")) {
    return logic::Expr::make_not(expr_from_json(*inner));
  }
  const bool is_and = v.find("and") != nullptr;
  const json::Value& children = v.at(is_and ? "and" : "or");
  std::vector<logic::Expr> terms;
  terms.reserve(children.size());
  for (const auto& child : children.items()) {
    terms.push_back(expr_from_json(child));
  }
  return is_and ? logic::Expr::make_and(std::move(terms))
                : logic::Expr::make_or(std::move(terms));
}

void Reader::operator()(const json::Value& v, logic::Expr& out) const {
  out = expr_from_json(v);
}

// An NLDM table is its two axes plus the values flattened slew-major.
json::Value Writer::operator()(const liberty::NldmTable& table) const {
  json::Value v = json::Value::object();
  v.set("slews", (*this)(table.slews()));
  v.set("loads", (*this)(table.loads()));
  json::Value values = json::Value::array();
  for (std::size_t si = 0; si < table.slews().size(); ++si) {
    for (std::size_t li = 0; li < table.loads().size(); ++li) {
      values.push_back(table.at(si, li));
    }
  }
  v.set("values", std::move(values));
  return v;
}

void Reader::operator()(const json::Value& v, liberty::NldmTable& out) const {
  out = liberty::NldmTable(read<std::vector<double>>(v.at("slews")),
                           read<std::vector<double>>(v.at("loads")));
  const auto& values = v.at("values");
  const std::size_t n_slews = out.slews().size();
  const std::size_t n_loads = out.loads().size();
  if (values.size() != n_slews * n_loads) {
    throw util::Error("NLDM value count " + std::to_string(values.size()) +
                      " does not match the " + std::to_string(n_slews) + "x" +
                      std::to_string(n_loads) + " grid");
  }
  std::size_t j = 0;
  for (std::size_t si = 0; si < n_slews; ++si) {
    for (std::size_t li = 0; li < n_loads; ++li) {
      out.set(si, li, values.at(j++).as_double());
    }
  }
}

// A library is one geometry context (characterization builds every cell
// under the same options, read back from the first cell) plus its cells.
json::Value Writer::operator()(const liberty::Library& library) const {
  if (library.cells().empty()) {
    throw util::Error("refusing to serialize an empty library");
  }
  const auto& first = library.cells().front().built.layout;
  json::Value v = json::Value::object();
  v.set("tech", to_string(first.rules().tech));
  v.set("style", to_string(first.style()));
  v.set("scheme", to_string(first.scheme()));
  v.set("cells", (*this)(library.cells()));
  return v;
}

void Reader::operator()(const json::Value& v, liberty::Library& out) const {
  liberty::CharacterizeOptions copts;
  (*this)(v.at("tech"), copts.layout_tech);
  (*this)(v.at("style"), copts.style);
  (*this)(v.at("scheme"), copts.scheme);
  std::vector<liberty::LibCell> cells;
  for (auto& c : read<std::vector<StoredCell>>(v.at("cells"))) {
    cells.push_back({std::move(c.name),
                     layout::build_cell(
                         layout::find_cell_spec(c.spec),
                         liberty::cell_build_options(c.drive, copts)),
                     c.drive, std::move(c.input_cap), c.area_lambda2,
                     std::move(c.arcs)});
  }
  out = liberty::Library(std::move(cells));
}

// A gate netlist is its net names, its primary inputs and outputs (net
// ids) and its gates.
json::Value Writer::operator()(const flow::GateNetlist& netlist) const {
  json::Value nets = json::Value::array();
  for (int n = 0; n < netlist.num_nets(); ++n) {
    nets.push_back(netlist.net_name(n));
  }
  json::Value v = json::Value::object();
  v.set("nets", std::move(nets));
  v.set("inputs", (*this)(netlist.inputs()));
  v.set("outputs", (*this)(netlist.outputs()));
  v.set("gates", (*this)(netlist.gates()));
  return v;
}

void Reader::operator()(const json::Value& v, flow::GateNetlist& out) const {
  out = flow::GateNetlist();
  for (const auto& name : read<std::vector<std::string>>(v.at("nets"))) {
    (void)out.add_net(name);
  }
  for (const int net : read<std::vector<int>>(v.at("inputs"))) {
    out.mark_input(net);
  }
  for (const int net : read<std::vector<int>>(v.at("outputs"))) {
    out.mark_output(net);
  }
  for (auto& gate : read<std::vector<flow::Gate>>(v.at("gates"))) {
    out.add_gate(std::move(gate));
  }
}

// Stored routing is untrusted (a served resume carries it inline, with no
// checksum), and route::extract walks every wire in pitch steps: refuse a
// zero pitch, skewed wires and geometry off the grid before it gets there.
void Reader::operator()(const json::Value& v,
                        route::RoutingResult& out) const {
  fields(out, Keyed{*this, v});
  if (out.pitch <= 0) {
    throw util::Error("routing pitch " + std::to_string(out.pitch) +
                      " is not positive");
  }
  const geom::Rect& grid = out.grid_bbox;
  const auto on_grid = [&](geom::Vec2 p) {
    return p.x >= grid.lo().x && p.x <= grid.hi().x && p.y >= grid.lo().y &&
           p.y <= grid.hi().y;
  };
  for (const auto& rn : out.nets) {
    const auto refuse = [&](const std::string& what) {
      throw util::Error("routed net " + std::to_string(rn.net) + ": " + what);
    };
    for (const auto& w : rn.wires) {
      if (w.a.x != w.b.x && w.a.y != w.b.y) refuse("wire is not axis-aligned");
      if (!on_grid(w.a) || !on_grid(w.b)) refuse("wire leaves the grid");
    }
    for (const auto& via : rn.vias) {
      if (!on_grid(via.at)) refuse("via lies off the grid");
    }
  }
}

/// Fingerprint of a characterized library: what a session is bound to.
std::string library_checksum(const liberty::Library& library) {
  return json::fnv1a64_hex(json::dump(Writer{}(library)));
}

// --- whole files ------------------------------------------------------------

template <typename T>
util::Result<std::string> save(const T& value, const char* kind,
                               const std::string& path) {
  try {
    return write_artifact(Writer{}(value), kind, path);
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("serialize", e.what());
  }
}

template <typename T>
util::Result<T> load(const std::string& path, const char* kind) {
  auto payload = read_artifact(path, kind);
  if (!payload.ok()) return payload.error();
  try {
    return Reader{}.read<T>(payload.value());
  } catch (const std::exception& e) {
    return util::Result<T>::failure("serialize", path + ": " + e.what());
  }
}

}  // namespace

util::Result<layout::Tech> tech_from_string(const std::string& name) {
  std::string upper = name;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  for (const layout::Tech tech :
       {layout::Tech::kCnfet65, layout::Tech::kCmos65}) {
    if (upper == layout::to_string(tech)) return tech;
  }
  return util::Result<layout::Tech>::failure(
      "tech", "unknown technology: \"" + name +
                  "\" (expected CNFET65 or CMOS65)");
}

// --- the public value-level converters --------------------------------------

json::Value to_json(const liberty::Library& library) {
  return Writer{}(library);
}
liberty::Library library_from_json(const json::Value& v) {
  return Reader{}.read<liberty::Library>(v);
}

json::Value to_json(const gen::GenOptions& options) {
  return Writer{}(options);
}
gen::GenOptions gen_options_from_json(const json::Value& v) {
  return Reader{}.read<gen::GenOptions>(v);
}

json::Value to_json(const flow::GateNetlist& netlist) {
  return Writer{}(netlist);
}
flow::GateNetlist gate_netlist_from_json(const json::Value& v,
                                         const liberty::Library& library) {
  return Reader{&library}.read<flow::GateNetlist>(v);
}

json::Value to_json(const flow::PlacementResult& placement,
                    const flow::GateNetlist& netlist) {
  return Writer{&netlist}(placement);
}
flow::PlacementResult placement_from_json(const json::Value& v,
                                          const flow::GateNetlist& netlist) {
  return Reader{nullptr, &netlist}.read<flow::PlacementResult>(v);
}

json::Value to_json(const route::RoutingResult& routing) {
  return Writer{}(routing);
}
route::RoutingResult routing_result_from_json(const json::Value& v) {
  return Reader{}.read<route::RoutingResult>(v);
}

json::Value to_json(const FlowOptions& options) { return Writer{}(options); }
FlowOptions flow_options_from_json(const json::Value& v) {
  return Reader{}.read<FlowOptions>(v);
}

json::Value to_json(const FlowMetrics& metrics) { return Writer{}(metrics); }
FlowMetrics flow_metrics_from_json(const json::Value& v) {
  return Reader{}.read<FlowMetrics>(v);
}

json::Value to_json(const util::Diagnostics& diagnostics) {
  return Writer{}(diagnostics);
}
util::Diagnostics diagnostics_from_json(const json::Value& v) {
  return Reader{}.read<util::Diagnostics>(v);
}

json::Value to_json(const sta::StaResult& result) { return Writer{}(result); }
sta::StaResult sta_result_from_json(const json::Value& v) {
  return Reader{}.read<sta::StaResult>(v);
}

json::Value to_json(const cnt::MonteCarloResult& result) {
  return Writer{}(result);
}
cnt::MonteCarloResult monte_carlo_result_from_json(const json::Value& v) {
  return Reader{}.read<cnt::MonteCarloResult>(v);
}

json::Value to_json(const JobOutcome& outcome) { return Writer{}(outcome); }
JobOutcome job_outcome_from_json(const json::Value& v) {
  return Reader{}.read<JobOutcome>(v);
}

json::Value to_json(const FlowReport& report) { return Writer{}(report); }
FlowReport flow_report_from_json(const json::Value& v) {
  return Reader{}.read<FlowReport>(v);
}

json::Value to_json(const FlowJob& job) { return Writer{}(job); }
FlowJob flow_job_from_json(const json::Value& v) {
  return Reader{}.read<FlowJob>(v);
}

// --- the versioned file envelope --------------------------------------------

util::Result<std::string> write_artifact(json::Value payload,
                                         const std::string& kind,
                                         const std::string& path) {
  try {
    json::Value envelope = json::Value::object();
    envelope.set("schema_version", kSchemaVersion);
    envelope.set("kind", kind);
    envelope.set("checksum", json::fnv1a64_hex(json::dump(payload)));
    envelope.set("payload", std::move(payload));
    const std::string text = json::dump(envelope, 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::Result<std::string>::failure("serialize",
                                                "cannot open " + path);
    }
    out << text;
    out.flush();
    if (!out.good()) {
      return util::Result<std::string>::failure("serialize",
                                                "short write to " + path);
    }
    return path;
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("serialize", e.what());
  }
}

util::Result<util::json::Value> read_artifact(const std::string& path,
                                              const std::string& kind) {
  using R = util::Result<util::json::Value>;
  try {
    std::ifstream in(path, std::ios::binary);
    if (!in) return R::failure("serialize", "cannot open " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json::Value envelope = json::parse(buffer.str());
    const int version = envelope.get_int("schema_version");
    if (version != kSchemaVersion) {
      return R::failure(
          "serialize",
          path + " has schema_version " + std::to_string(version) +
              ", this build reads only version " +
              std::to_string(kSchemaVersion) +
              (version > kSchemaVersion ? " (file written by a newer build)"
                                        : ""));
    }
    const std::string& file_kind = envelope.get_string("kind");
    if (file_kind != kind) {
      return R::failure("serialize", path + " holds a \"" + file_kind +
                                         "\" artifact, expected \"" + kind +
                                         "\"");
    }
    json::Value payload = envelope.take("payload");
    const std::string checksum = json::fnv1a64_hex(json::dump(payload));
    if (checksum != envelope.get_string("checksum")) {
      return R::failure("serialize",
                        path + " checksum mismatch (file corrupt or edited: "
                               "expected " +
                            envelope.get_string("checksum") + ", computed " +
                            checksum + ")");
    }
    return payload;
  } catch (const std::exception& e) {
    return R::failure("serialize", path + ": " + e.what());
  }
}

// --- whole-file conveniences ------------------------------------------------

util::Result<std::string> save_library(const liberty::Library& library,
                                       const std::string& path) {
  return save(library, "library", path);
}

util::Result<LibraryHandle> load_library(const std::string& path) {
  auto library = load<liberty::Library>(path, "library");
  if (!library.ok()) return library.error();
  return LibraryHandle(
      std::make_shared<const liberty::Library>(std::move(library).value()));
}

util::Result<std::string> save_jobs(const std::vector<FlowJob>& jobs,
                                    const std::string& path) {
  return save(JobsFile{jobs}, "jobs", path);
}

util::Result<std::vector<FlowJob>> load_jobs(const std::string& path) {
  auto file = load<JobsFile>(path, "jobs");
  if (!file.ok()) return file.error();
  return std::move(file).value().jobs;
}

util::Result<std::string> save_report(const FlowReport& report,
                                      const std::string& path) {
  return save(report, "report", path);
}

util::Result<FlowReport> load_report(const std::string& path) {
  return load<FlowReport>(path, "report");
}

// --- Flow::save / Flow::resume ----------------------------------------------
// Member functions of api::Flow live here so the session format stays next
// to the other converters; flow.hpp declares them.

/// The session artifacts in file order, after the SessionHeader. The
/// Exported artifact is not stored: it is a pure function of the saved
/// placement and top name, and resume regenerates the identical GDS.
template <typename S, typename F>
void Flow::artifact_fields(S& flow, F&& f) {
  f("spec_outputs", flow.spec_outputs_);
  f("spec_inputs", flow.spec_inputs_);
  f("diagnostics", flow.diags_);
  f("mapped", flow.mapped_);
  f("timed", flow.timed_);
  f("optimized", flow.optimized_);
  f("placed", flow.placed_);
  f("signoff", flow.signoff_);
  f("routed", flow.routed_);
}

util::Result<std::string> Flow::save(const std::string& dir) const {
  auto payload = session_json();
  if (!payload.ok()) return payload.error();
  try {
    std::filesystem::create_directories(dir);
    return write_artifact(std::move(payload).value(), "flow",
                          (std::filesystem::path(dir) / "flow.json").string());
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("serialize", e.what());
  }
}

util::Result<util::json::Value> Flow::session_json() const {
  try {
    json::Value payload = json::Value::object();
    const Writer write{mapped_ ? &mapped_->map.netlist : nullptr};
    const Writer::Keyed f{write, payload};
    // The library checksum binds the session to its characterized library:
    // resume() re-resolves through LibraryCache::global() and refuses a
    // mismatch, so a session built against a custom FlowOptions::library
    // (non-default grid, style, scheme) never silently rebinds its gates
    // to cells with different NLDM tables.
    const SessionHeader header{name_, stage_, options_,
                               library_checksum(*library_)};
    fields(header, f);
    artifact_fields(*this, f);
    return payload;
  } catch (const std::exception& e) {
    return util::Result<util::json::Value>::failure("serialize", e.what());
  }
}

util::Result<Flow> Flow::resume(const std::string& dir) {
  const std::string path = (std::filesystem::path(dir) / "flow.json").string();
  auto payload_result = read_artifact(path, "flow");
  if (!payload_result.ok()) return payload_result.error();
  return resume_json(payload_result.value(), path);
}

util::Result<Flow> Flow::resume_json(const json::Value& payload,
                                     const std::string& path) {
  try {
    auto header = Reader{}.read<SessionHeader>(payload);
    auto library = LibraryCache::global().get(header.options.tech);
    if (!library.ok()) return library.error();
    const std::string checksum = library_checksum(*library.value());
    if (checksum != header.library_checksum) {
      return util::Result<Flow>::failure(
          "serialize",
          path + ": the session was saved against a different characterized "
                 "library than LibraryCache::global() provides for " +
              layout::to_string(header.options.tech) +
              " (saved " + header.library_checksum + ", cache " + checksum +
              "); sessions built with a custom FlowOptions::library cannot "
              "be resumed from the default cache");
    }
    header.options.library = library.value();
    Flow flow(std::move(header.name), std::move(header.options),
              library.value());
    flow.stage_ = header.stage;
    Reader read{flow.library_.get(), nullptr};
    const Reader::Keyed f{read, payload};
    artifact_fields(flow, [&](const char* key, auto& member) {
      f(key, member);
      // Placement gate indices resolve against the netlist just mapped.
      if (flow.mapped_) read.netlist = &flow.mapped_->map.netlist;
    });
    if (flow.routed_) {
      if (!flow.mapped_) {
        throw util::Error("routed artifact without a mapped netlist");
      }
      flow.routed_->extraction = route::extract(
          flow.mapped_->map.netlist, flow.routed_->routing,
          flow.library_->cells().front().built.layout.rules());
    }
    if (flow.stage_ == Stage::kExported) {
      if (!flow.placed_) {
        throw util::Error("exported flow without a placed artifact");
      }
      ExportedArtifact exported;
      exported.top_name = flow.options_.top_name;
      exported.gds =
          flow.routed_
              ? flow::export_gds(flow.placed_->placement, exported.top_name,
                                 flow.routed_->routing)
              : flow::export_gds(flow.placed_->placement, exported.top_name);
      flow.exported_ = std::move(exported);
    }
    // Cheap shape invariants: a resumed flow must have exactly the
    // artifacts its stage implies, or later advances would dereference
    // absent optionals.
    const int stage_index = index_of_stage(flow.stage_);
    if ((stage_index >= index_of_stage(Stage::kMapped)) != !!flow.mapped_ ||
        (stage_index >= index_of_stage(Stage::kTimed)) != !!flow.timed_ ||
        (stage_index >= index_of_stage(Stage::kOptimized)) !=
            !!flow.optimized_ ||
        (stage_index >= index_of_stage(Stage::kPlaced)) != !!flow.placed_ ||
        (stage_index >= index_of_stage(Stage::kSignedOff)) !=
            !!flow.signoff_ ||
        (flow.options_.route &&
         stage_index >= index_of_stage(Stage::kSignedOff)) !=
            !!flow.routed_) {
      throw util::Error("artifacts do not match the saved stage " +
                        std::string(to_string(flow.stage_)));
    }
    return flow;
  } catch (const std::exception& e) {
    return util::Result<Flow>::failure("serialize", path + ": " + e.what());
  }
}

}  // namespace cnfet::api
