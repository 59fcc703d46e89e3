#include "api/flow.hpp"

#include <exception>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "cnt/analyzer.hpp"
#include "flow/gds_export.hpp"
#include "layout/cells.hpp"
#include "logic/expr.hpp"
#include "sta/timing_graph.hpp"
#include "util/table.hpp"

namespace cnfet::api {

namespace {

/// NAND/NOR/INV tally of an adopted netlist, by library-cell name prefix.
void tally_gates(const flow::GateNetlist& netlist, flow::MapResult* map) {
  for (const auto& gate : netlist.gates()) {
    const auto& cell = gate.cell->name;
    if (cell.rfind("NAND", 0) == 0) {
      ++map->nand_count;
    } else if (cell.rfind("NOR", 0) == 0) {
      ++map->nor_count;
    } else if (cell.rfind("INV", 0) == 0) {
      ++map->inv_count;
    }
  }
}

/// Fills options.library (from the cache when unset) and keeps
/// options.tech consistent with the library actually used: a caller
/// passing a CMOS library must not get CNFET-keyed signoff behavior.
util::Result<LibraryHandle> resolve_library(FlowOptions& options) {
  if (!options.library) {
    auto handle = LibraryCache::global().get(options.tech);
    if (!handle.ok()) return handle;
    options.library = handle.value();
  }
  if (!options.library->cells().empty()) {
    options.tech =
        options.library->cells().front().built.layout.rules().tech;
  }
  return options.library;
}

/// The warning a passed check above flow::kExhaustiveInputs leaves.
std::string sampled_check(std::size_t num_inputs) {
  return "function checked on " + std::to_string(flow::kSampledWords * 64) +
         " seeded vectors, not exhaustively (" + std::to_string(num_inputs) +
         " > " + std::to_string(flow::kExhaustiveInputs) + " inputs)";
}

}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kCreated:
      return "created";
    case Stage::kMapped:
      return "mapped";
    case Stage::kTimed:
      return "timed";
    case Stage::kOptimized:
      return "optimized";
    case Stage::kPlaced:
      return "placed";
    case Stage::kSignedOff:
      return "signed-off";
    case Stage::kExported:
      return "exported";
  }
  return "?";
}

util::Result<Stage> stage_from_string(const std::string& name) {
  for (const Stage stage :
       {Stage::kCreated, Stage::kMapped, Stage::kTimed, Stage::kOptimized,
        Stage::kPlaced, Stage::kSignedOff, Stage::kExported}) {
    if (name == to_string(stage)) return stage;
  }
  return util::Result<Stage>::failure("stage",
                                      "unknown stage name: " + name);
}

Flow::Flow(std::string name, FlowOptions options, LibraryHandle library)
    : name_(std::move(name)),
      options_(std::move(options)),
      library_(std::move(library)) {}

util::Result<Flow> Flow::from_expressions(
    std::vector<flow::OutputSpec> outputs,
    std::vector<std::string> input_names, FlowOptions options) {
  if (outputs.empty()) {
    return util::Result<Flow>::failure("create", "no outputs to synthesize");
  }
  if (input_names.empty()) {
    return util::Result<Flow>::failure("create", "no primary inputs declared");
  }
  auto library = resolve_library(options);
  if (!library.ok()) return library.error();
  // Copy the name out before `options` is moved from (argument evaluation
  // order is unspecified, and GCC moves first).
  std::string name = options.top_name;
  Flow flow(std::move(name), std::move(options), std::move(library).value());
  flow.spec_outputs_ = std::move(outputs);
  flow.spec_inputs_ = std::move(input_names);
  return flow;
}

util::Result<Flow> Flow::from_cell(const std::string& name,
                                   FlowOptions options) {
  const layout::CellSpec* spec = nullptr;
  try {
    spec = &layout::find_cell_spec(name);
  } catch (const std::exception& e) {
    return util::Result<Flow>::failure("create", e.what());
  }
  std::vector<std::string> input_names;
  std::vector<flow::OutputSpec> outputs;
  // The cell computes OUT = NOT pdn(x): map the pull-down expression
  // inverted so the flow reproduces the library cell's function.
  outputs.push_back(
      {"OUT", logic::parse_expr(spec->pdn_expr, &input_names), true});
  if (options.top_name == "TOP") options.top_name = name;
  return from_expressions(std::move(outputs), std::move(input_names),
                          std::move(options));
}

util::Result<Flow> Flow::from_netlist(flow::GateNetlist netlist,
                                      FlowOptions options) {
  if (netlist.gates().empty()) {
    return util::Result<Flow>::failure("create", "adopted netlist is empty");
  }
  auto library = resolve_library(options);
  if (!library.ok()) return library.error();
  std::string name = options.top_name;
  Flow flow(std::move(name), std::move(options), std::move(library).value());
  MappedArtifact mapped;
  mapped.map.netlist = std::move(netlist);
  mapped.num_inputs =
      static_cast<int>(mapped.map.netlist.inputs().size());
  tally_gates(mapped.map.netlist, &mapped.map);
  flow.mapped_ = std::move(mapped);
  flow.stage_ = Stage::kMapped;
  flow.diags_.info("map",
                   "adopted pre-built netlist (" +
                       std::to_string(flow.mapped_->map.netlist.gates().size()) +
                       " gates, no specification to verify against)");
  return flow;
}

template <typename Body>
util::Result<Stage> Flow::advance(Stage required, Stage next,
                                  const char* stage_name, Body&& body) {
  if (stage_ != required) {
    util::Diagnostic d{util::Severity::kError, stage_name,
                       std::string("stage order: ") + stage_name +
                           "() requires a " + to_string(required) +
                           " flow, this one is " + to_string(stage_)};
    diags_.add(d);
    return d;
  }
  try {
    if (auto failure = body()) {
      failure->severity = util::Severity::kError;
      failure->stage = stage_name;
      diags_.add(*failure);
      return *failure;
    }
  } catch (const std::exception& e) {
    util::Diagnostic d{util::Severity::kError, stage_name, e.what()};
    diags_.add(d);
    return d;
  }
  stage_ = next;
  return stage_;
}

util::Result<Stage> Flow::map() {
  return advance(
      Stage::kCreated, Stage::kMapped, "map",
      [&]() -> std::optional<util::Diagnostic> {
        flow::MapOptions mopt;
        mopt.drive = options_.drive;
        mopt.output_drive = options_.output_drive;
        mopt.cost = options_.map_cost;
        mopt.input_slew = options_.sta.input_slew;
        MappedArtifact artifact;
        artifact.map = flow::map_expressions(spec_outputs_, spec_inputs_,
                                             *library_, mopt);
        artifact.num_inputs = static_cast<int>(spec_inputs_.size());
        if (options_.verify) {
          if (!flow::verify_mapping(artifact.map, spec_outputs_)) {
            return util::Diagnostic{
                util::Severity::kError, "map",
                "mapped netlist is not equivalent to the specification"};
          }
          artifact.verified = spec_inputs_.size() <= flow::kExhaustiveInputs;
          if (!artifact.verified) {
            diags_.warning("map", sampled_check(spec_inputs_.size()));
          }
        }
        diags_.info("map", "mapped " +
                               std::to_string(artifact.map.total_gates()) +
                               " gates (" +
                               std::to_string(artifact.map.nand_count) +
                               " NAND2, " +
                               std::to_string(artifact.map.nor_count) +
                               " NOR2, " +
                               std::to_string(artifact.map.inv_count) +
                               " INV)" +
                               (artifact.verified ? ", verified exhaustively"
                                                  : ""));
        mapped_ = std::move(artifact);
        return std::nullopt;
      });
}

util::Result<Stage> Flow::time() {
  return advance(Stage::kMapped, Stage::kTimed, "time",
                 [&]() -> std::optional<util::Diagnostic> {
                   TimedArtifact artifact;
                   artifact.timing =
                       sta::analyze(mapped_->map.netlist, options_.sta);
                   diags_.info(
                       "time",
                       "worst arrival " +
                           util::fmt_si(artifact.timing.worst_arrival, "s") +
                           ", energy/cycle " +
                           util::fmt_si(artifact.timing.energy_per_cycle,
                                        "J"));
                   timed_ = std::move(artifact);
                   return std::nullopt;
                 });
}

util::Result<Stage> Flow::optimize() {
  return advance(
      Stage::kTimed, Stage::kOptimized, "optimize",
      [&]() -> std::optional<util::Diagnostic> {
        OptimizedArtifact artifact;
        if (!options_.optimize) {
          artifact.enabled = false;
          artifact.timing = timed_->timing;
          diags_.info("optimize", "optimization disabled, stage passes through");
        } else {
          opt::OptOptions oopt;
          oopt.sta = options_.sta;
          oopt.target_delay = options_.target_delay;
          oopt.max_area_growth = options_.max_area_growth;
          artifact.enabled = true;
          // The passes run on a copy that is committed only on success: a
          // throwing pass (e.g. the function-equivalence guard) must leave
          // the kTimed flow's netlist untouched, or a retry would snapshot
          // corrupted edits as its baseline.
          flow::GateNetlist working = mapped_->map.netlist;
          artifact.stats =
              opt::optimize(working, *library_, oopt, &artifact.timing);
          if (!artifact.stats.function_verified) {
            diags_.warning("optimize",
                           "optimized netlist's " +
                               sampled_check(working.inputs().size()));
          }
          mapped_->map.netlist = std::move(working);
          // The passes change the gate population; refresh the tally the
          // metrics report.
          mapped_->map.nand_count = 0;
          mapped_->map.nor_count = 0;
          mapped_->map.inv_count = 0;
          tally_gates(mapped_->map.netlist, &mapped_->map);
          diags_.info(
              "optimize",
              std::to_string(artifact.stats.gates_resized) + " resized, " +
                  std::to_string(artifact.stats.buffers_inserted) +
                  " buffer gates, " +
                  std::to_string(artifact.stats.gates_removed) +
                  " removed; worst arrival " +
                  util::fmt_si(artifact.stats.delay_before, "s") + " -> " +
                  util::fmt_si(artifact.stats.delay_after, "s") + ", area " +
                  util::fmt_percent(artifact.stats.area_growth(), 1) +
                  " growth");
        }
        optimized_ = std::move(artifact);
        return std::nullopt;
      });
}

util::Result<Stage> Flow::place() {
  return advance(
      Stage::kOptimized, Stage::kPlaced, "place",
      [&]() -> std::optional<util::Diagnostic> {
        PlacedArtifact artifact;
        artifact.placement = flow::place(mapped_->map.netlist, options_.place);
        diags_.info(
            "place",
            util::fmt_fixed(artifact.placement.placed_area_lambda2, 0) +
                " lambda^2 at " +
                util::fmt_percent(artifact.placement.utilization(), 1) +
                " utilization, HPWL " +
                util::fmt_fixed(artifact.placement.hpwl_lambda, 0) +
                " lambda");
        placed_ = std::move(artifact);
        return std::nullopt;
      });
}

util::Result<Stage> Flow::sign_off() {
  return advance(
      Stage::kPlaced, Stage::kSignedOff, "signoff",
      [&]() -> std::optional<util::Diagnostic> {
        SignOffArtifact artifact;
        std::set<const liberty::LibCell*> distinct;
        for (const auto& gate : mapped_->map.netlist.gates()) {
          distinct.insert(gate.cell);
        }
        for (const auto* cell : distinct) {
          CellSignOff record;
          record.cell = cell->name;
          const auto report = drc::check(cell->built.layout, options_.drc);
          record.drc_violations = static_cast<int>(report.violations.size());
          artifact.total_drc_violations += record.drc_violations;
          if (!report.clean()) {
            diags_.warning("signoff", cell->name + " DRC: " +
                                          report.to_string());
          }
          if (options_.tech == layout::Tech::kCnfet65) {
            record.immunity_checked = true;
            record.immune = cnt::check_exact(cell->built.layout,
                                             cell->built.netlist,
                                             cell->built.function)
                                .immune;
            if (!record.immune) {
              artifact.all_immune = false;
              diags_.warning("signoff",
                             cell->name +
                                 " is NOT immune to mispositioned CNTs");
            }
          } else {
            // The CNT immunity proof is meaningless for the CMOS baseline.
            record.immune = true;
          }
          artifact.cells.push_back(std::move(record));
        }
        diags_.info("signoff",
                    std::to_string(artifact.cells.size()) +
                        " distinct cells checked, " +
                        std::to_string(artifact.total_drc_violations) +
                        " DRC violations" +
                        (options_.tech == layout::Tech::kCnfet65
                             ? (artifact.all_immune ? ", all immune"
                                                    : ", IMMUNITY GAPS")
                             : ""));
        signoff_ = std::move(artifact);
        if (options_.route) {
          if (auto failure = build_routed()) return failure;
        }
        return std::nullopt;
      });
}

std::optional<util::Diagnostic> Flow::build_routed() {
  RoutedArtifact artifact;
  const layout::DesignRules& rules =
      library_->cells().front().built.layout.rules();
  artifact.routing = route::route(mapped_->map.netlist, placed_->placement,
                                  rules, options_.route_opts);
  if (!artifact.routing.complete()) {
    return util::Diagnostic{
        util::Severity::kError, "signoff",
        std::to_string(artifact.routing.failed_nets) +
            " net(s) failed to route even at the full-grid window"};
  }
  artifact.extraction =
      route::extract(mapped_->map.netlist, artifact.routing, rules);
  sta::TimingGraph wired(
      mapped_->map.netlist, options_.sta, 0.0,
      artifact.extraction.to_wire_loads(mapped_->map.netlist));
  artifact.routed_timing = wired.to_sta_result();
  // The ideal-net reference: the timing of the same netlist without wires
  // (post-optimization when that stage ran enabled).
  artifact.ideal_worst_arrival_s =
      optimized_ ? optimized_->timing.worst_arrival
                 : (timed_ ? timed_->timing.worst_arrival : 0.0);
  const auto wire_drc = drc::check_routes(artifact.routing, rules);
  artifact.wire_drc_violations = static_cast<int>(wire_drc.violations.size());
  if (!wire_drc.clean()) {
    diags_.warning("signoff", "routed wires: " + wire_drc.to_string());
  }
  diags_.info(
      "signoff",
      "routed " + std::to_string(artifact.routing.nets.size()) + " nets, " +
          util::fmt_fixed(artifact.routing.total_wirelength_lambda, 0) +
          " lambda of wire, " +
          util::fmt_si(artifact.extraction.total_wire_cap_f, "F") +
          " wire cap; worst arrival " +
          util::fmt_si(artifact.ideal_worst_arrival_s, "s") + " ideal -> " +
          util::fmt_si(artifact.routed_timing.worst_arrival, "s") + " routed");
  routed_ = std::move(artifact);
  return std::nullopt;
}

util::Result<Stage> Flow::export_design() {
  return advance(Stage::kSignedOff, Stage::kExported, "export",
                 [&]() -> std::optional<util::Diagnostic> {
                   ExportedArtifact artifact;
                   artifact.top_name = options_.top_name;
                   artifact.gds =
                       routed_ ? flow::export_gds(placed_->placement,
                                                  options_.top_name,
                                                  routed_->routing)
                               : flow::export_gds(placed_->placement,
                                                  options_.top_name);
                   diags_.info(
                       "export",
                       std::to_string(artifact.gds.structures.size()) +
                           " GDS structures under top " + artifact.top_name);
                   exported_ = std::move(artifact);
                   return std::nullopt;
                 });
}

util::Result<Stage> Flow::run(Stage target) {
  while (index_of_stage(stage_) < index_of_stage(target)) {
    util::Result<Stage> step = [&] {
      switch (stage_) {
        case Stage::kCreated:
          return map();
        case Stage::kMapped:
          return time();
        case Stage::kTimed:
          return optimize();
        case Stage::kOptimized:
          return place();
        case Stage::kPlaced:
          return sign_off();
        case Stage::kSignedOff:
          return export_design();
        case Stage::kExported:
          break;
      }
      return util::Result<Stage>(stage_);
    }();
    if (!step.ok()) return step;
  }
  return stage_;
}

util::Result<const flow::GateNetlist*> Flow::netlist() const {
  if (!mapped_) {
    return util::Result<const flow::GateNetlist*>::failure(
        "netlist", "flow has not reached the mapped stage");
  }
  return util::Result<const flow::GateNetlist*>(&mapped_->map.netlist);
}

util::Result<std::string> Flow::write_gds(const std::string& path) const {
  if (!exported_) {
    return util::Result<std::string>::failure(
        "export", "flow has not reached the exported stage");
  }
  try {
    gds::write_file(exported_->gds, path);
  } catch (const std::exception& e) {
    return util::Result<std::string>::failure("export", e.what());
  }
  return path;
}

FlowMetrics Flow::metrics() const {
  FlowMetrics m;
  m.name = name_;
  m.tech = options_.tech;
  m.stage = stage_;
  if (mapped_) {
    // The netlist size, not the NAND/NOR/INV tally: adopted netlists can
    // contain cells outside the tally (AOI/OAI family).
    m.gates = static_cast<int>(mapped_->map.netlist.gates().size());
    m.nand2 = mapped_->map.nand_count;
    m.nor2 = mapped_->map.nor_count;
    m.inv = mapped_->map.inv_count;
    m.verified = mapped_->verified;
  }
  if (timed_) {
    m.worst_arrival_s = timed_->timing.worst_arrival;
    m.energy_per_cycle_j = timed_->timing.energy_per_cycle;
    m.edp_js = timed_->edp_js();
  }
  if (optimized_ && optimized_->enabled) {
    m.optimized = true;
    m.pre_opt_worst_arrival_s = optimized_->stats.delay_before;
    m.gates_resized = optimized_->stats.gates_resized;
    m.buffers_inserted = optimized_->stats.buffers_inserted;
    m.gates_removed = optimized_->stats.gates_removed;
    m.opt_area_growth = optimized_->stats.area_growth();
    // The timed fields report the netlist that places and signs off.
    m.worst_arrival_s = optimized_->timing.worst_arrival;
    m.energy_per_cycle_j = optimized_->timing.energy_per_cycle;
    m.edp_js = optimized_->edp_js();
  }
  if (placed_) {
    m.placed_area_lambda2 = placed_->placement.placed_area_lambda2;
    m.utilization = placed_->placement.utilization();
    m.hpwl_lambda = placed_->placement.hpwl_lambda;
  }
  if (signoff_) {
    m.cells_signed_off = static_cast<int>(signoff_->cells.size());
    m.drc_violations = signoff_->total_drc_violations;
    m.all_immune = signoff_->all_immune;
  }
  if (routed_) {
    m.routed = true;
    m.total_wirelength = routed_->routing.total_wirelength_lambda;
    m.wire_cap_ff = routed_->extraction.total_wire_cap_f * 1e15;
    m.routed_worst_arrival_s = routed_->routed_timing.worst_arrival;
    m.wire_delay_ps = (routed_->routed_timing.worst_arrival -
                       routed_->ideal_worst_arrival_s) *
                      1e12;
    m.wire_drc_violations = routed_->wire_drc_violations;
  }
  if (exported_) {
    m.gds_structures = exported_->gds.structures.size();
  }
  return m;
}

}  // namespace cnfet::api
