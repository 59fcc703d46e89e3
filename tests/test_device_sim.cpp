// Tests for the device models and the SPICE-lite transient engine.
#include <gtest/gtest.h>

#include <cmath>

#include "device/models.hpp"
#include "sim/fo4.hpp"
#include "sim/transient.hpp"

namespace cnfet::sim {
namespace {

TEST(Pwl, InterpolatesAndExtrapolatesFlat) {
  Pwl w{{0.0, 0.0}, {1.0, 2.0}, {3.0, 2.0}};
  EXPECT_DOUBLE_EQ(w.at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(w.at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(w.at(2.0), 2.0);
  EXPECT_DOUBLE_EQ(w.at(9.0), 2.0);
}

TEST(Pwl, PulseShape) {
  const auto w = Pwl::pulse(0.0, 1.0, 10.0, 2.0, 20.0, 2.0);
  EXPECT_DOUBLE_EQ(w.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.at(11.0), 0.5);
  EXPECT_DOUBLE_EQ(w.at(15.0), 1.0);
  EXPECT_DOUBLE_EQ(w.at(21.0), 0.5);
  EXPECT_DOUBLE_EQ(w.at(30.0), 0.0);
}

TEST(Device, MosCurrentMonotoneInVgs) {
  const auto d = device::mos_device(device::MosParams::nmos65(), 0.13);
  EXPECT_DOUBLE_EQ(d.ids(0.2, 1.0), 0.0);  // below threshold
  double prev = 0.0;
  for (double vgs = 0.4; vgs <= 1.01; vgs += 0.1) {
    const double i = d.ids(vgs, 1.0);
    EXPECT_GT(i, prev);
    prev = i;
  }
  // Normalization: at vgs = vds = vdd the device delivers k*W (within the
  // channel-length-modulation factor).
  EXPECT_NEAR(d.ids(1.0, 1.0), 550e-6 * 0.13 * (1 + 0.06), 0.07e-6 * 130);
}

TEST(Device, ScreeningShape) {
  EXPECT_NEAR(device::screening(10.0, 10.0), 0.5, 1e-12);
  EXPECT_GT(device::screening(20.0, 10.0), device::screening(5.0, 10.0));
  EXPECT_NEAR(device::screening(1e6, 10.0), 1.0, 1e-9);
}

TEST(Device, CnfetDrivePeaksAtFiniteTubeCount) {
  // Total ON current n*i(p) must rise then fall as tubes are packed in.
  double prev = 0.0;
  bool fell = false;
  for (int n = 1; n <= 40; ++n) {
    const auto d = device::cnfet_device(device::CnfetParams{}, n, 65.0);
    const double i = d.ids(1.0, 1.0);
    if (i < prev) fell = true;
    if (!fell) EXPECT_GT(i, prev) << "n=" << n;
    prev = i;
  }
  EXPECT_TRUE(fell) << "screening never overcame tube count";
}

TEST(Device, FetCurrentMirrorsPolarity) {
  Circuit::Fet nfet{Polarity::kN, 0, 0, 0,
                    device::mos_device(device::MosParams::nmos65(), 0.13)};
  // Forward and reverse conduction are antisymmetric.
  EXPECT_GT(fet_current(nfet, 1.0, 1.0, 0.0), 0.0);
  EXPECT_NEAR(fet_current(nfet, 1.0, 0.0, 1.0),
              -fet_current(nfet, 1.0, 1.0, 0.0), 1e-12);
  Circuit::Fet pfet{Polarity::kP, 0, 0, 0,
                    device::mos_device(device::MosParams::pmos65(), 0.182)};
  // PFET with gate low conducts from source (high) into drain (low).
  EXPECT_LT(fet_current(pfet, 0.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(fet_current(pfet, 1.0, 0.0, 1.0), 0.0);  // gate high: off
}

TEST(Transient, RcStepResponseMatchesAnalytic) {
  Circuit ckt;
  const int a = ckt.add_node("a");
  const int b = ckt.add_node("b");
  (void)ckt.add_vsource(a, Circuit::kGround,
                        Pwl::pulse(0.0, 1.0, 10e-12, 1e-12, 400e-12, 1e-12));
  ckt.add_resistor(a, b, 1e3);
  ckt.add_capacitor(b, Circuit::kGround, 10e-15);  // tau = 10ps
  TransientOptions options;
  options.tstep = 0.05e-12;
  options.tstop = 120e-12;
  const Transient tran(ckt, options);
  // v(b) at t = 11ps + 3*tau should be 1 - e^-3 of the step.
  const auto& wave = tran.v(b);
  const std::size_t k = static_cast<std::size_t>(41e-12 / options.tstep);
  EXPECT_NEAR(wave[k], 1.0 - std::exp(-3.0), 0.02);
}

TEST(Transient, InverterSwitchesRailToRail) {
  Circuit ckt;
  const int vdd = ckt.add_node("vdd");
  const int in = ckt.add_node("in");
  const int out = ckt.add_node("out");
  (void)ckt.add_vsource(vdd, Circuit::kGround, Pwl(1.0));
  (void)ckt.add_vsource(in, Circuit::kGround,
                        Pwl::pulse(0.0, 1.0, 50e-12, 10e-12, 250e-12, 10e-12));
  ckt.add_inverter(device::cmos_inverter(), in, out, vdd);
  ckt.add_capacitor(out, Circuit::kGround, 2e-15);
  const Transient tran(ckt, {});
  const auto& vout = tran.v(out);
  // Before the edge: high; after: low; after the falling edge: high again.
  EXPECT_NEAR(vout[static_cast<std::size_t>(40e-12 / 0.2e-12)], 1.0, 0.02);
  EXPECT_NEAR(vout[static_cast<std::size_t>(200e-12 / 0.2e-12)], 0.0, 0.02);
  EXPECT_NEAR(vout[static_cast<std::size_t>(390e-12 / 0.2e-12)], 1.0, 0.02);
}

TEST(Transient, EnergyMatchesCV2ForPureCapLoad) {
  // Driving C through an inverter draws ~ C*Vdd^2 per full cycle from the
  // supply (plus short-circuit current, kept small by fast edges).
  Circuit ckt;
  const int vdd = ckt.add_node("vdd");
  const int in = ckt.add_node("in");
  const int out = ckt.add_node("out");
  const int src = ckt.add_vsource(vdd, Circuit::kGround, Pwl(1.0));
  (void)ckt.add_vsource(in, Circuit::kGround,
                        Pwl::pulse(0.0, 1.0, 50e-12, 2e-12, 250e-12, 2e-12));
  auto inv = device::cmos_inverter(4.0);
  ckt.add_inverter(inv, in, out, vdd);
  const double cload = 20e-15;
  ckt.add_capacitor(out, Circuit::kGround, cload);
  const Transient tran(ckt, {});
  const double e = tran.source_energy(src, 0.0, 400e-12);
  const double ideal = (cload + inv.c_out()) * 1.0;
  EXPECT_NEAR(e, ideal, 0.2 * ideal);
}

TEST(Fo4, CmosBaselineInSaneRange) {
  const auto r = measure_fo4(device::cmos_inverter());
  // 65nm FO4 is ~15-25ps in public data.
  EXPECT_GT(r.delay_s, 8e-12);
  EXPECT_LT(r.delay_s, 30e-12);
  EXPECT_GT(r.energy_per_cycle_j, 0.5e-15);
  EXPECT_LT(r.energy_per_cycle_j, 5e-15);
}

}  // namespace
}  // namespace cnfet::sim
