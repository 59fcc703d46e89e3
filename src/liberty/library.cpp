#include "liberty/library.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>

#include "sim/transient.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace cnfet::liberty {

using netlist::CellNetlist;

NldmTable::NldmTable(std::vector<double> slews, std::vector<double> loads)
    : slews_(std::move(slews)), loads_(std::move(loads)) {
  CNFET_REQUIRE(!slews_.empty() && !loads_.empty());
  values_.assign(slews_.size() * loads_.size(), 0.0);
}

void NldmTable::set(std::size_t si, std::size_t li, double value) {
  CNFET_REQUIRE(si < slews_.size() && li < loads_.size());
  values_[si * loads_.size() + li] = value;
}

double NldmTable::at(std::size_t si, std::size_t li) const {
  CNFET_REQUIRE(si < slews_.size() && li < loads_.size());
  return values_[si * loads_.size() + li];
}

namespace {

/// Index of the lower grid neighbour plus the interpolation fraction.
/// Binary search: STA interpolates per gate per arc, so this is hot.
/// Monotone stamp for each characterize_cell call: a worker's
/// thread-local ArcScratch compares it against the epoch it last bound
/// with and skips the rebuild when they match, so binding happens once
/// per (worker, cell) even though every slew-row task requests it.
std::uint64_t next_characterize_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

/// Index of the lower grid neighbour plus the interpolation fraction.
/// Binary search: STA interpolates per gate per arc, so this is hot.
std::pair<std::size_t, double> bracket(const std::vector<double>& grid,
                                       double x) {
  if (x <= grid.front()) return {0, 0.0};
  if (x >= grid.back()) return {grid.size() - 2, 1.0};
  const auto it = std::upper_bound(grid.begin(), grid.end(), x);
  // Only a NaN key reaches end() (both guards above compare false); keep
  // the linear scan's flat-extrapolation fallback for it.
  if (it == grid.end()) return {grid.size() - 2, 1.0};
  const auto i = static_cast<std::size_t>(it - grid.begin()) - 1;
  return {i, (x - grid[i]) / (grid[i + 1] - grid[i])};
}

}  // namespace

double NldmTable::lookup(double slew, double load) const {
  if (slews_.size() == 1 && loads_.size() == 1) return at(0, 0);
  const auto [si, sf] = slews_.size() == 1
                            ? std::pair<std::size_t, double>{0, 0.0}
                            : bracket(slews_, slew);
  const auto [li, lf] = loads_.size() == 1
                            ? std::pair<std::size_t, double>{0, 0.0}
                            : bracket(loads_, load);
  const std::size_t si1 = std::min(si + 1, slews_.size() - 1);
  const std::size_t li1 = std::min(li + 1, loads_.size() - 1);
  const double v00 = at(si, li);
  const double v01 = at(si, li1);
  const double v10 = at(si1, li);
  const double v11 = at(si1, li1);
  return v00 * (1 - sf) * (1 - lf) + v01 * (1 - sf) * lf +
         v10 * sf * (1 - lf) + v11 * sf * lf;
}

const TimingArc& LibCell::arc(int input, bool out_rising) const {
  for (const auto& a : arcs) {
    if (a.input == input && a.out_rising == out_rising) return a;
  }
  throw util::Error("no such timing arc in " + name);
}

double LibCell::worst_delay(double slew, double load) const {
  double worst = 0.0;
  for (const auto& a : arcs) {
    worst = std::max(worst, a.delay.lookup(slew, load));
  }
  return worst;
}

device::DeviceModel bind_device(const netlist::Fet& fet,
                                const CharacterizeOptions& options) {
  if (options.layout_tech == layout::Tech::kCnfet65) {
    const double electrical_lambda =
        fet.width_lambda * options.cnfet_width_scale;
    const int tubes = std::max(
        1, static_cast<int>(std::lround(electrical_lambda *
                                        options.tubes_per_lambda)));
    const double width_nm = electrical_lambda * options.tech.lambda_nm;
    return device::cnfet_device(device::CnfetParams{}, tubes, width_nm,
                                options.tech);
  }
  const double width_um = fet.width_lambda * options.tech.lambda_nm * 1e-3;
  const auto params = fet.type == netlist::FetType::kN
                          ? device::MosParams::nmos65()
                          : device::MosParams::pmos65();
  return device::mos_device(params, width_um, options.tech);
}

void ArcScratch::bind(const CellNetlist& cell,
                      const CharacterizeOptions& options,
                      std::uint64_t epoch) {
  if (epoch != 0 && epoch == epoch_ && cell_ == &cell) return;
  cell_ = &cell;
  epoch_ = epoch;
  vdd_ = options.tech.vdd;

  // Element-for-element the same construction the unbound measure_arc
  // performed historically, so the MNA system — and therefore every
  // measured number — is bit-identical. Source waves and the output load
  // get placeholder values here; each grid point reshapes them in place.
  circuit_.reset();
  node_of_.assign(static_cast<std::size_t>(cell.num_nets()), 0);
  node_of_[CellNetlist::kGnd] = sim::Circuit::kGround;
  node_of_[CellNetlist::kVdd] = circuit_.add_node("vdd");
  node_of_[CellNetlist::kOut] = circuit_.add_node("out");
  for (int n = 3; n < cell.num_nets(); ++n) {
    node_of_[static_cast<std::size_t>(n)] = circuit_.add_node(cell.net_name(n));
  }
  supply_ = circuit_.add_vsource(node_of_[CellNetlist::kVdd],
                                 sim::Circuit::kGround, sim::Pwl(vdd_));

  input_node_.assign(static_cast<std::size_t>(cell.num_inputs()), 0);
  input_source_.assign(static_cast<std::size_t>(cell.num_inputs()), 0);
  for (int i = 0; i < cell.num_inputs(); ++i) {
    input_node_[static_cast<std::size_t>(i)] =
        circuit_.add_node("in" + std::to_string(i));
    input_source_[static_cast<std::size_t>(i)] =
        circuit_.add_vsource(input_node_[static_cast<std::size_t>(i)],
                             sim::Circuit::kGround, sim::Pwl(0.0));
  }

  for (const auto& f : cell.fets()) {
    auto model = bind_device(f, options);
    const int gate = input_node_[static_cast<std::size_t>(f.gate_input)];
    const auto polarity = f.type == netlist::FetType::kN ? sim::Polarity::kN
                                                         : sim::Polarity::kP;
    // Junction caps at both channel terminals.
    circuit_.add_capacitor(node_of_[static_cast<std::size_t>(f.a)],
                           sim::Circuit::kGround, model.c_drain / 2);
    circuit_.add_capacitor(node_of_[static_cast<std::size_t>(f.b)],
                           sim::Circuit::kGround, model.c_drain / 2);
    circuit_.add_capacitor(gate, sim::Circuit::kGround, model.c_gate);
    circuit_.add_fet(polarity, gate,
                     node_of_[static_cast<std::size_t>(f.a)],
                     node_of_[static_cast<std::size_t>(f.b)],
                     std::move(model));
  }
  circuit_.add_capacitor(node_of_[CellNetlist::kOut], sim::Circuit::kGround,
                         1e-15);
  load_cap_ = static_cast<int>(circuit_.caps().size()) - 1;

  // Only the measured waveforms are materialized: the toggling input, the
  // output, and (for the failure diagnostic) the pinned side inputs.
  topt_ = options.transient;
  topt_.record_nodes = input_node_;
  topt_.record_nodes.push_back(node_of_[CellNetlist::kOut]);
}

ArcMeasurement measure_arc(const CellNetlist& cell, int input,
                           std::uint64_t side_values, bool in_rising,
                           double slew, double load,
                           const CharacterizeOptions& options,
                           ArcScratch* scratch) {
  if (scratch == nullptr) {
    // Cold path: a stack scratch keeps a single code path; all buffers
    // are built here and freed on return, exactly like the historical
    // per-call construction.
    ArcScratch local;
    local.bind(cell, options);
    return measure_arc(cell, input, side_values, in_rising, slew, load,
                       options, &local);
  }
  ArcScratch& s = *scratch;
  CNFET_REQUIRE_MSG(s.bound_to(cell),
                    "measure_arc scratch is not bound to this cell");
  const double vdd = s.vdd_;
  const std::vector<int>& node_of = s.node_of_;
  const std::vector<int>& input_node = s.input_node_;
  const int supply = s.supply_;
  const sim::TransientOptions& topt = s.topt_;

  // Reshape the grid-point-dependent element values in place (the
  // circuit topology is fixed by bind); zero heap traffic once warm.
  const double t_edge = 60e-12;
  for (int i = 0; i < cell.num_inputs(); ++i) {
    sim::Pwl& wave =
        s.circuit_.source_wave(s.input_source_[static_cast<std::size_t>(i)]);
    if (i == input) {
      if (in_rising) {
        wave.set_pulse(0.0, vdd, t_edge, slew, 1.0, slew);
      } else {
        wave.set_pulse(vdd, 0.0, t_edge, slew, 1.0, slew);
      }
    } else {
      wave.set_dc(((side_values >> i) & 1) ? vdd : 0.0);
    }
  }
  s.circuit_.set_capacitance(s.load_cap_, load);

  const sim::Transient tran(s.circuit_, topt, &s.sim_);

  const auto& vin = tran.v(input_node[static_cast<std::size_t>(input)]);
  const auto& vout = tran.v(node_of[CellNetlist::kOut]);
  const double t_in = vin.cross(vdd / 2, in_rising, 0.0);
  CNFET_REQUIRE(t_in > 0);
  // Strongly overdriven cells can switch before the input midpoint
  // (negative delay), so search from the start of the input edge.
  const double t_start =
      vin.cross(in_rising ? 0.02 * vdd : 0.98 * vdd, in_rising, 0.0);
  const bool out_rising = vout[0] < vdd / 2;
  const double t_out = vout.cross(vdd / 2, out_rising, t_start);
  if (t_out <= 0) {
    // Build the diagnostic only on the failure path; this runs on every
    // grid point of every arc, and the string concatenations were showing
    // up in characterization profiles.
    std::string dbg_inputs;
    for (int i = 0; i < cell.num_inputs(); ++i) {
      dbg_inputs += " in" + std::to_string(i) + "=" +
                    std::to_string(
                        tran.v(input_node[static_cast<std::size_t>(i)])[0]);
    }
    throw util::Error(
        "output did not switch during arc measurement (input " +
        std::to_string(input) + (in_rising ? " rising" : " falling") +
        ", side " + std::to_string(side_values) + ", slew " +
        std::to_string(slew * 1e12) + "ps, load " +
        std::to_string(load * 1e15) + "fF, vout0 " + std::to_string(vout[0]) +
        "," + dbg_inputs + ")");
  }
  const double t20 = vout.cross(out_rising ? 0.2 * vdd : 0.8 * vdd,
                                out_rising, t_start);
  const double t80 = vout.cross(out_rising ? 0.8 * vdd : 0.2 * vdd,
                                out_rising, t_start);

  ArcMeasurement m;
  // Floor at a symbolic 50fs: NLDM entries must stay positive even when an
  // overdriven cell beats its own input edge.
  m.delay = std::max(5e-14, t_out - t_in);
  m.out_slew = std::max(1e-13, t80 - t20);
  m.energy = tran.source_energy(supply, 0.0, topt.tstop);
  return m;
}

namespace {

/// Chooses static side-input values so that toggling `input` switches OUT:
/// search all assignments for one where the function differs between
/// input=0 and input=1.
std::uint64_t sensitizing_side_values(const logic::TruthTable& f, int input) {
  const int n = f.num_inputs();
  for (std::uint64_t side = 0; side < (1ull << n); ++side) {
    const std::uint64_t low = side & ~(1ull << input);
    const std::uint64_t high = low | (1ull << input);
    if (f.eval(low) != f.eval(high)) return low;
  }
  throw util::Error("input is not observable in the cell function");
}

}  // namespace

layout::CellBuildOptions cell_build_options(
    double drive, const CharacterizeOptions& options) {
  layout::CellBuildOptions build;
  build.tech = options.layout_tech;
  build.style = options.style;
  build.scheme = options.scheme;
  build.drive = drive;
  build.max_finger_width_lambda = 12.0;  // high-drive cells fold
  return build;
}

LibCell characterize_cell(const layout::CellSpec& spec, double drive,
                          const CharacterizeOptions& options) {
  auto built = layout::build_cell(spec, cell_build_options(drive, options));

  LibCell lib{spec.name + (drive == 1.0
                               ? std::string("_1X")
                               : "_" + std::to_string(static_cast<int>(drive)) +
                                     "X"),
              std::move(built),
              drive,
              {},
              0.0,
              {}};
  auto& cell_ref = lib.built;  // alias now that `built` is moved from
  lib.area_lambda2 = cell_ref.layout.core_area_lambda2();

  // Input pin capacitance: sum of bound gate caps per input.
  lib.input_cap.assign(
      static_cast<std::size_t>(cell_ref.netlist.num_inputs()), 0.0);
  for (const auto& f : cell_ref.netlist.fets()) {
    lib.input_cap[static_cast<std::size_t>(f.gate_input)] +=
        bind_device(f, options).c_gate;
  }

  // Every (arc, slew, load) grid point is an independent transient.
  // One task is one (arc, slew ROW): coarse enough that a task amortizes
  // its worker's scratch bind over a whole row of loads, fine enough
  // that a 15-cell library still fans out well past 8 workers. Each
  // worker holds one thread-local ArcScratch re-bound at most once per
  // cell (the epoch short-circuit), so steady-state grid points allocate
  // nothing. Results land in slots keyed by flattened index and the
  // tables are filled from them in order, so the library is
  // bit-identical for any thread count.
  struct ArcKey {
    int input;
    bool in_rising;
    std::uint64_t side;
  };
  std::vector<ArcKey> keys;
  for (int input = 0; input < cell_ref.netlist.num_inputs(); ++input) {
    const std::uint64_t side =
        sensitizing_side_values(cell_ref.function, input);
    for (const bool in_rising : {true, false}) {
      keys.push_back({input, in_rising, side});
    }
  }
  const std::size_t n_slews = options.slew_grid.size();
  const std::size_t n_loads = options.load_grid.size();
  const std::size_t grid = n_slews * n_loads;
  const std::uint64_t epoch = next_characterize_epoch();
  std::vector<ArcMeasurement> measured(keys.size() * grid);
  const auto ran = util::parallel_for(
      static_cast<std::int64_t>(keys.size() * n_slews),
      [&](std::int64_t task) {
        const auto ti = static_cast<std::size_t>(task);
        const std::size_t ki = ti / n_slews;
        const std::size_t si = ti % n_slews;
        const ArcKey& key = keys[ki];
        ArcScratch& scratch = util::worker_scratch<ArcScratch>();
        scratch.bind(cell_ref.netlist, options, epoch);
        for (std::size_t li = 0; li < n_loads; ++li) {
          measured[ki * grid + si * n_loads + li] = measure_arc(
              cell_ref.netlist, key.input, key.side, key.in_rising,
              options.slew_grid[si], options.load_grid[li], options,
              &scratch);
        }
      },
      options.num_threads);
  // Re-raise a captured measurement failure under the layer's throwing
  // contract (the api:: boundary converts it back into a Diagnostic).
  if (!ran.ok()) throw util::Error(ran.error().message);

  std::size_t j = 0;
  for (const ArcKey& key : keys) {
    TimingArc arc;
    arc.input = key.input;
    // Static cells are inverting along every sensitized path.
    arc.out_rising = !key.in_rising;
    arc.delay = NldmTable(options.slew_grid, options.load_grid);
    arc.out_slew = NldmTable(options.slew_grid, options.load_grid);
    arc.energy = NldmTable(options.slew_grid, options.load_grid);
    for (std::size_t si = 0; si < n_slews; ++si) {
      for (std::size_t li = 0; li < n_loads; ++li) {
        const ArcMeasurement& m = measured[j++];
        arc.delay.set(si, li, m.delay);
        arc.out_slew.set(si, li, m.out_slew);
        arc.energy.set(si, li, m.energy);
      }
    }
    lib.arcs.push_back(std::move(arc));
  }

  return lib;
}

const LibCell& Library::find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) throw util::Error("no such library cell: " + name);
  return cells_[it->second];
}

const LibCell& Library::find(const std::string& base, double drive) const {
  std::ostringstream text;
  text << drive;
  if (!(drive > 0 && drive == std::floor(drive))) {
    throw util::Error("drive " + text.str() + " is not a positive integer");
  }
  std::string have;
  for (const auto& option : drives_of(base)) {
    if (option.drive == drive) return *option.cell;
    have += (have.empty() ? "" : ", ") +
            std::to_string(static_cast<int>(option.drive));
  }
  throw util::Error("no such library cell: " + base + "_" + text.str() +
                    "X (" + base + " drives in the library: " +
                    (have.empty() ? "none" : have) + ")");
}

std::string Library::base_name(const std::string& cell_name) {
  const auto pos = cell_name.rfind('_');
  return pos == std::string::npos ? cell_name : cell_name.substr(0, pos);
}

std::vector<DriveOption> Library::drives_of(const std::string& cell_base) const {
  std::vector<DriveOption> options;
  const auto it = family_.find(cell_base);
  if (it == family_.end()) return options;
  options.reserve(it->second.size());
  for (const std::size_t i : it->second) {
    options.push_back({cells_[i].drive, &cells_[i]});
  }
  std::sort(options.begin(), options.end(),
            [](const DriveOption& a, const DriveOption& b) {
              return a.drive < b.drive;
            });
  return options;
}

Library build_library(const CharacterizeOptions& options) {
  Library lib;
  // The paper's full adder uses NAND2 2X plus inverters of 4X/7X/9X; we
  // characterize a drive ladder for INV and NAND2 and 1X for the rest.
  for (const double drive : {1.0, 2.0, 4.0, 7.0, 9.0}) {
    lib.add(characterize_cell(layout::find_cell_spec("INV"), drive, options));
  }
  for (const double drive : {1.0, 2.0, 4.0}) {
    lib.add(
        characterize_cell(layout::find_cell_spec("NAND2"), drive, options));
  }
  for (const char* name : {"NAND3", "NOR2", "NOR3", "AOI21", "AOI22",
                           "OAI21", "OAI22"}) {
    lib.add(characterize_cell(layout::find_cell_spec(name), 1.0, options));
  }
  return lib;
}

std::string to_liberty_text(const Library& library,
                            const std::string& lib_name) {
  std::ostringstream out;
  out << "library (" << lib_name << ") {\n";
  out << "  time_unit : \"1ps\";\n  capacitive_load_unit (1, ff);\n";
  for (const auto& cell : library.cells()) {
    out << "  cell (" << cell.name << ") {\n";
    out << "    area : " << cell.area_lambda2 << ";\n";
    for (std::size_t i = 0; i < cell.input_cap.size(); ++i) {
      out << "    pin (" << static_cast<char>('A' + i)
          << ") { direction : input; capacitance : "
          << cell.input_cap[i] * 1e15 << "; }\n";
    }
    out << "    pin (OUT) { direction : output; function : \"!("
        << cell.built.pdn_expr.to_string() << ")\";\n";
    for (const auto& arc : cell.arcs) {
      out << "      timing () { related_pin : \""
          << static_cast<char>('A' + arc.input) << "\"; /* "
          << (arc.out_rising ? "rise" : "fall") << " */\n        values: ";
      for (std::size_t si = 0; si < arc.delay.slews().size(); ++si) {
        for (std::size_t li = 0; li < arc.delay.loads().size(); ++li) {
          out << util::fmt_fixed(arc.delay.at(si, li) * 1e12, 2) << " ";
        }
      }
      out << "\n      }\n";
    }
    out << "    }\n  }\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace cnfet::liberty
