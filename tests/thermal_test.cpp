// Unit and property tests for the thermal module: RC network integrators,
// lumped model, sensors, presets.
#include <gtest/gtest.h>

#include <cmath>

#include "thermal/lumped.h"
#include "thermal/network.h"
#include "thermal/presets.h"
#include "thermal/sensors.h"
#include "util/error.h"

namespace mobitherm::thermal {
namespace {

using util::ConfigError;

ThermalNodeSpec node(const char* name, double c, double g) {
  return {name, util::joules_per_kelvin(c), util::watts_per_kelvin(g)};
}

ThermalLinkSpec link(std::size_t a, std::size_t b, double g) {
  return {a, b, util::watts_per_kelvin(g)};
}

ThermalNetworkSpec single_node(double c = 2.0, double g = 0.1,
                               double t_amb = 300.0) {
  ThermalNetworkSpec spec;
  spec.t_ambient_k = util::kelvin(t_amb);
  spec.nodes = {node("node", c, g)};
  return spec;
}

ThermalNetworkSpec two_node() {
  ThermalNetworkSpec spec;
  spec.t_ambient_k = util::kelvin(300.0);
  spec.nodes = {node("chip", 0.5, 0.01), node("board", 5.0, 0.1)};
  spec.links = {link(0, 1, 0.5)};
  return spec;
}

// --- construction validation --------------------------------------------------

TEST(Network, RejectsEmptyAndUngrounded) {
  ThermalNetworkSpec empty;
  EXPECT_THROW(ThermalNetwork net(empty), ConfigError);

  ThermalNetworkSpec floating;
  floating.nodes = {node("a", 1.0, 0.0), node("b", 1.0, 0.0)};
  floating.links = {link(0, 1, 0.5)};
  EXPECT_THROW(ThermalNetwork net(floating), ConfigError);
}

TEST(Network, RejectsBadNodesAndLinks) {
  ThermalNetworkSpec bad_cap;
  bad_cap.nodes = {node("a", 0.0, 0.1)};
  EXPECT_THROW(ThermalNetwork net(bad_cap), ConfigError);

  ThermalNetworkSpec bad_link = two_node();
  bad_link.links.push_back(link(0, 5, 0.1));
  EXPECT_THROW(ThermalNetwork net(bad_link), ConfigError);

  ThermalNetworkSpec self_link = two_node();
  self_link.links.push_back(link(1, 1, 0.1));
  EXPECT_THROW(ThermalNetwork net(self_link), ConfigError);

  ThermalNetworkSpec neg_link = two_node();
  neg_link.links.push_back(link(0, 1, -0.1));
  EXPECT_THROW(ThermalNetwork net(neg_link), ConfigError);
}

TEST(Network, StartsAtAmbient) {
  ThermalNetwork net(two_node());
  EXPECT_DOUBLE_EQ(net.temperature(0).value(), 300.0);
  EXPECT_DOUBLE_EQ(net.temperature(1).value(), 300.0);
  EXPECT_THROW(net.temperature(2).value(), ConfigError);
}

// --- single-node analytic comparison --------------------------------------------

class SingleNodeAnalytic
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(SingleNodeAnalytic, MatchesClosedFormExponential) {
  // C dT/dt = -G (T - Tamb) + P has T(t) = Tss + (T0 - Tss) e^{-t/tau}.
  const auto [power, dt] = GetParam();
  for (StepMethod method : {StepMethod::kExact, StepMethod::kRk4}) {
    ThermalNetwork net(single_node(), method);
    const double tau = 2.0 / 0.1;
    const double t_ss = 300.0 + power / 0.1;
    double elapsed = 0.0;
    for (int i = 0; i < 200; ++i) {
      net.step({power}, util::seconds(dt));
      elapsed += dt;
    }
    const double expected = t_ss + (300.0 - t_ss) * std::exp(-elapsed / tau);
    EXPECT_NEAR(net.temperature(0).value(), expected, 1e-6)
        << "method=" << static_cast<int>(method) << " P=" << power
        << " dt=" << dt;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PowerAndStepSweep, SingleNodeAnalytic,
    ::testing::Values(std::make_pair(1.0, 0.01), std::make_pair(1.0, 0.5),
                      std::make_pair(5.0, 0.1), std::make_pair(0.0, 1.0),
                      std::make_pair(2.5, 2.0)));

TEST(Network, ExactAndRk4Agree) {
  ThermalNetwork exact(two_node(), StepMethod::kExact);
  ThermalNetwork rk4(two_node(), StepMethod::kRk4);
  const linalg::Vector p = {1.5, 0.2};
  for (int i = 0; i < 500; ++i) {
    exact.step(p, util::seconds(0.05));
    rk4.step(p, util::seconds(0.05));
  }
  EXPECT_NEAR(exact.temperature(0).value(), rk4.temperature(0).value(), 1e-4);
  EXPECT_NEAR(exact.temperature(1).value(), rk4.temperature(1).value(), 1e-4);
}

TEST(Network, ExactIsStableAtHugeSteps) {
  // Stiff step far beyond the fastest time constant must not blow up.
  ThermalNetwork net(two_node(), StepMethod::kExact);
  net.step({2.0, 0.0}, util::seconds(1000.0));
  const linalg::Vector ss = net.steady_state({2.0, 0.0});
  EXPECT_NEAR(net.temperature(0).value(), ss[0], 1e-6);
  EXPECT_NEAR(net.temperature(1).value(), ss[1], 1e-6);
}

TEST(Network, SteadyStateSatisfiesBalance) {
  ThermalNetwork net(two_node());
  const linalg::Vector p = {1.0, 0.5};
  const linalg::Vector ss = net.steady_state(p);
  // Heat balance at node 0: link flow + ambient flow == injection.
  const double link_flow = 0.5 * (ss[0] - ss[1]);
  const double amb_flow = 0.01 * (ss[0] - 300.0);
  EXPECT_NEAR(link_flow + amb_flow, 1.0, 1e-9);
}

TEST(Network, ConvergesToSteadyStateFromAnywhere) {
  ThermalNetwork net(two_node());
  net.set_temperatures({380.0, 290.0});
  const linalg::Vector p = {1.0, 0.5};
  for (int i = 0; i < 20000; ++i) {
    net.step(p, util::seconds(0.1));
  }
  const linalg::Vector ss = net.steady_state(p);
  EXPECT_NEAR(net.temperature(0).value(), ss[0], 1e-6);
  EXPECT_NEAR(net.temperature(1).value(), ss[1], 1e-6);
}

TEST(Network, HeatFlowsFromHotToCold) {
  ThermalNetwork net(two_node());
  net.set_temperatures({350.0, 300.0});
  const double before = net.temperature(1).value();
  net.step({0.0, 0.0}, util::seconds(0.5));
  EXPECT_GT(net.temperature(1).value(), before);   // board warms
  EXPECT_LT(net.temperature(0).value(), 350.0);    // chip cools
}

TEST(Network, MonotoneHeatingUnderConstantPower) {
  ThermalNetwork net(two_node());
  double prev = net.temperature(0).value();
  for (int i = 0; i < 100; ++i) {
    net.step({2.0, 0.0}, util::seconds(0.1));
    EXPECT_GE(net.temperature(0).value(), prev - 1e-12);
    prev = net.temperature(0).value();
  }
}

TEST(Network, LumpedAggregatesAndTimeConstant) {
  const ThermalNetworkSpec spec = two_node();
  ThermalNetwork net(spec);
  EXPECT_NEAR(net.total_ambient_conductance().value(), 0.11, 1e-12);
  EXPECT_NEAR(net.total_capacitance().value(), 5.5, 1e-12);
  // Slowest time constant bounded below by C_total / G_total order.
  const double tau = net.slowest_time_constant().value();
  EXPECT_GT(tau, 10.0);
  EXPECT_LT(tau, 200.0);
}

TEST(Network, PowerVectorSizeValidated) {
  ThermalNetwork net(two_node());
  EXPECT_THROW(net.step({1.0}, util::seconds(0.1)), ConfigError);
  EXPECT_THROW(net.steady_state({1.0}), ConfigError);
  EXPECT_THROW(net.set_temperatures({1.0}), ConfigError);
}

TEST(Network, ResetReturnsToAmbient) {
  ThermalNetwork net(two_node());
  net.step({5.0, 0.0}, util::seconds(10.0));
  net.reset();
  EXPECT_DOUBLE_EQ(net.temperature(0).value(), 300.0);
}

// --- lumped model -----------------------------------------------------------------

TEST(Lumped, LeakagePowerClosedForm) {
  LumpedParams p;
  p.leak_a_w_per_k2 = util::watts_per_kelvin2(1e-3);
  p.leak_theta_k = util::kelvin(1500.0);
  EXPECT_NEAR(leakage_power(p, util::kelvin(350.0)).value(),
              1e-3 * 350.0 * 350.0 * std::exp(-1500.0 / 350.0), 1e-12);
}

TEST(Lumped, RejectsInvalidParams) {
  LumpedParams p;
  p.g_w_per_k = util::watts_per_kelvin(0.0);
  EXPECT_THROW(LumpedModel m(p), ConfigError);
}

TEST(Lumped, ConvergesToFixedPointBalance) {
  LumpedParams p;  // defaults are the Odroid-class parameters
  LumpedModel m(p);
  m.step(util::watts(2.0), util::seconds(2000.0));
  const double t = m.temperature_k().value();
  // At the fixed point: G (T - Tamb) == P + leak(T).
  EXPECT_NEAR(p.g_w_per_k.value() * (t - p.t_ambient_k.value()),
              2.0 + leakage_power(p, util::kelvin(t)).value(), 1e-6);
}

TEST(Lumped, NoLeakageMatchesLinearSteadyState) {
  LumpedParams p;
  p.leak_a_w_per_k2 = util::watts_per_kelvin2(0.0);
  LumpedModel m(p);
  m.step(util::watts(3.5), util::seconds(5000.0));
  EXPECT_NEAR(m.temperature_k().value(),
              p.t_ambient_k.value() + 3.5 / p.g_w_per_k.value(), 1e-6);
}

TEST(Lumped, RunawayAboveCriticalPower) {
  LumpedParams p;  // critical power ~5.5 W for these defaults
  LumpedModel m(p);
  m.step(util::watts(8.0), util::seconds(600.0));
  EXPECT_GT(m.temperature_k().value(), 500.0);  // diverging hot
}

TEST(Lumped, MatchesNetworkLumpedEquivalentWithoutLeakage) {
  const ThermalNetworkSpec spec = odroidxu3_network();
  LumpedParams lp = lumped_equivalent(spec, util::watts_per_kelvin2(0.0),
                                        util::kelvin(1600.0));
  ThermalNetwork net(spec);
  LumpedModel lumped(lp);
  // Same total power: the lumped steady state approximates the
  // capacitance-weighted network steady state.
  lumped.step(util::watts(3.0), util::seconds(10000.0));
  linalg::Vector p(spec.nodes.size(), 0.0);
  p.back() = 3.0;  // all power into the board node
  const linalg::Vector ss = net.steady_state(p);
  EXPECT_NEAR(lumped.temperature_k().value(), ss.back(), 2.0);
}

// --- sensors ---------------------------------------------------------------------

TEST(TempSensor, PrimedValueBeforeFirstSample) {
  TemperatureSensor::Config cfg;
  cfg.period_s = util::seconds(1.0);
  TemperatureSensor s(cfg);
  s.prime(310.0);
  EXPECT_DOUBLE_EQ(s.last_k(), 310.0);
  s.feed(0.5, 400.0);
  EXPECT_DOUBLE_EQ(s.last_k(), 310.0);  // period not elapsed
  s.feed(0.5, 400.0);
  EXPECT_NEAR(s.last_k(), 400.0, 1e-9);
}

TEST(TempSensor, QuantizationRoundsToLsb) {
  TemperatureSensor::Config cfg;
  cfg.period_s = util::seconds(0.1);
  cfg.lsb_k = util::kelvin(1.0);
  TemperatureSensor s(cfg);
  s.feed(0.1, 333.4);
  EXPECT_DOUBLE_EQ(s.last_k(), 333.0);
  s.feed(0.1, 333.6);
  EXPECT_DOUBLE_EQ(s.last_k(), 334.0);
}

TEST(TempSensor, DeterministicNoise) {
  TemperatureSensor::Config cfg;
  cfg.period_s = util::seconds(0.01);
  cfg.noise_stddev_k = util::kelvin(0.5);
  cfg.seed = 21;
  TemperatureSensor a(cfg);
  TemperatureSensor b(cfg);
  for (int i = 0; i < 50; ++i) {
    a.feed(0.01, 350.0);
    b.feed(0.01, 350.0);
    EXPECT_DOUBLE_EQ(a.last_k(), b.last_k());
  }
}

TEST(TempSensor, RejectsBadPeriod) {
  TemperatureSensor::Config cfg;
  cfg.period_s = util::seconds(-0.1);
  EXPECT_THROW(TemperatureSensor s(cfg), ConfigError);
}

// --- presets ----------------------------------------------------------------------

TEST(ThermalPresets, NodeConventionFiveNodes) {
  for (const ThermalNetworkSpec& spec :
       {nexus6p_network(), odroidxu3_network()}) {
    EXPECT_EQ(spec.nodes.size(), 5u);
    EXPECT_EQ(spec.nodes.back().name, "board");
    ThermalNetwork net(spec);  // must construct: grounded, SPD
    EXPECT_GT(net.slowest_time_constant().value(), 10.0);
  }
}

TEST(ThermalPresets, PhoneSpreadsHeatBetterThanBoard) {
  ThermalNetwork phone(nexus6p_network());
  ThermalNetwork board(odroidxu3_network());
  EXPECT_GT(phone.total_ambient_conductance().value(),
            board.total_ambient_conductance().value());
}

TEST(ThermalPresets, BoardHasLargestCapacitance) {
  for (const ThermalNetworkSpec& spec :
       {nexus6p_network(), odroidxu3_network()}) {
    for (std::size_t i = 0; i + 1 < spec.nodes.size(); ++i) {
      EXPECT_LT(spec.nodes[i].capacitance_j_per_k.value(),
                spec.nodes.back().capacitance_j_per_k.value());
    }
  }
}

TEST(ThermalPresets, LumpedEquivalentSumsNetwork) {
  const ThermalNetworkSpec spec = odroidxu3_network();
  const LumpedParams lp = lumped_equivalent(spec, util::watts_per_kelvin2(2e-3),
                                              util::kelvin(1700.0));
  ThermalNetwork net(spec);
  EXPECT_NEAR(lp.g_w_per_k.value(), net.total_ambient_conductance().value(),
              1e-12);
  EXPECT_NEAR(lp.c_j_per_k.value(), net.total_capacitance().value(), 1e-12);
  EXPECT_DOUBLE_EQ(lp.leak_a_w_per_k2.value(), 2e-3);
  EXPECT_DOUBLE_EQ(lp.leak_theta_k.value(), 1700.0);
}

}  // namespace
}  // namespace mobitherm::thermal
