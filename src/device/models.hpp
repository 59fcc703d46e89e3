// Electrical device models for the CMOS-vs-CNFET comparison.
//
// CMOS: alpha-power-law MOSFET (Sakurai–Newton) with a smooth tanh
// saturation knee, calibrated to a generic 65nm low-power process at
// Vdd = 1V (the paper benchmarks against an industrial 65nm library with
// poly gates and low-k dielectric, whose data is proprietary; the model is
// calibrated to public 65nm ballparks: docs/reproducing_the_paper.md).
//
// CNFET: per-tube quasi-ballistic model in the spirit of Deng & Wong's
// circuit-compatible model [14][15]: a tube contributes an ON current and a
// gate capacitance, both degraded by inter-CNT charge screening as the
// pitch shrinks. Screening acts through
//     s(p) = p^2 / (p^2 + beta^2),
// applied to the electrostatic gate coupling; the current uses beta_i, the
// capacitance beta_c (capacitance is screened harder than current because
// the series quantum capacitance already limits the charge — this is what
// creates the Figure-7 optimum pitch: total drive N*I(p) peaks while load
// capacitance keeps growing with N).
#pragma once

#include <functional>

namespace cnfet::device {

/// Technology-level constants shared by both device families.
struct Tech65 {
  double vdd = 1.0;           ///< V (the paper's supply)
  double lambda_nm = 32.5;    ///< lambda at the 65nm node
  double temperature_k = 300.0;
};

/// Drain current plus its analytic partial derivatives in the device's own
/// first-quadrant frame. The transient engine stamps these straight into the
/// Newton Jacobian, replacing four finite-difference model evaluations per
/// FET per iteration with one.
struct IdsGrad {
  double i = 0.0;        ///< A
  double di_dvgs = 0.0;  ///< A/V
  double di_dvds = 0.0;  ///< A/V
};

/// Polarity-agnostic quasi-static FET: ids(vgs, vds) for vgs, vds >= 0 in
/// its own frame; the simulator mirrors it for PFETs and reverse conduction.
struct DeviceModel {
  std::function<double(double vgs, double vds)> ids;
  /// Analytic current + derivatives; same model as `ids` (ids_grad(g,d).i ==
  /// ids(g,d) exactly). Optional: engines fall back to finite differences
  /// when a hand-built model leaves it empty.
  std::function<IdsGrad(double vgs, double vds)> ids_grad;
  double c_gate = 0.0;   ///< F, gate input capacitance
  double c_drain = 0.0;  ///< F, drain/source junction capacitance
};

/// Alpha-power MOSFET parameters.
struct MosParams {
  double vth = 0.32;        ///< V
  double alpha = 1.25;      ///< velocity-saturation index
  double k_sat_a_per_um;    ///< A/um drawn width at vgs = vdd
  double vdsat_frac = 0.45; ///< vdsat = vdsat_frac * (vgs - vth)
  double lambda_out = 0.06; ///< 1/V channel-length modulation
  double c_gate_f_per_um = 1.05e-15;
  double c_diff_f_per_um = 0.65e-15;

  [[nodiscard]] static MosParams nmos65() {
    MosParams p;
    p.k_sat_a_per_um = 550e-6;
    return p;
  }
  /// pMOS per-micron drive is 1/1.4 of nMOS, so the paper's pMOS = 1.4 x
  /// nMOS sizing rule yields a symmetric inverter.
  [[nodiscard]] static MosParams pmos65() {
    MosParams p;
    p.k_sat_a_per_um = 550e-6 / 1.4;
    return p;
  }
};

/// Builds a simulator-ready MOS device of `width_um` drawn width.
[[nodiscard]] DeviceModel mos_device(const MosParams& params, double width_um,
                                     const Tech65& tech = {});

/// Per-tube CNFET parameters, fixed against the paper's Figure-7 anchor
/// points (docs/reproducing_the_paper.md, "Model calibration").
struct CnfetParams {
  double vth = 0.30;          ///< V
  double alpha = 1.20;
  double vdsat_frac = 0.40;
  double lambda_out = 0.04;   ///< 1/V
  double i_on_per_tube = 29.3e-6;  ///< A at vgs = vdd, isolated tube
  double c_gate_per_tube = 26.5e-18;  ///< F, isolated tube (gate coupling)
  double c_fringe_per_tube = 2e-18;   ///< F, unscreened fringe component
  double c_diff_per_tube = 4e-18;     ///< F, contact-side junction
  double beta_i_nm = 6.2;    ///< screening length for ON current
  double beta_c_nm = 10.0;    ///< screening length for gate capacitance
};

/// Inter-CNT screening factor for a given pitch.
[[nodiscard]] double screening(double pitch_nm, double beta_nm);

/// A CNFET with `n_tubes` parallel tubes under a gate of `width_nm` drawn
/// width; pitch = width / n_tubes.
[[nodiscard]] DeviceModel cnfet_device(const CnfetParams& params, int n_tubes,
                                       double width_nm, const Tech65& tech = {});

/// Pitch in nm for n tubes under a gate width.
[[nodiscard]] double cnt_pitch_nm(int n_tubes, double width_nm);

/// Complementary inverter (both pull devices plus caps); the building block
/// of the FO4 and full-adder experiments.
struct InverterModel {
  DeviceModel nfet;
  DeviceModel pfet;

  [[nodiscard]] double c_in() const { return nfet.c_gate + pfet.c_gate; }
  [[nodiscard]] double c_out() const { return nfet.c_drain + pfet.c_drain; }
};

/// CMOS inverter of drive `x` (x=1: Wn=0.13um/4 lambda, Wp=1.4x).
[[nodiscard]] InverterModel cmos_inverter(double drive = 1.0,
                                          const Tech65& tech = {});

/// CNFET inverter with `n_tubes` per device under `width_nm` gates
/// (default: the minimum 2-lambda = 65nm device of case study 1).
[[nodiscard]] InverterModel cnfet_inverter(int n_tubes,
                                           double width_nm = 65.0,
                                           const CnfetParams& params = {},
                                           const Tech65& tech = {});

}  // namespace cnfet::device
