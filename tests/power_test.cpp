// Unit tests for the power module: dynamic/leakage model, rail sensors,
// DAQ simulator, energy counters.
#include <gtest/gtest.h>

#include <cmath>

#include "platform/presets.h"
#include "power/model.h"
#include "power/sensors.h"
#include "util/error.h"
#include "util/units.h"

namespace mobitherm::power {
namespace {

using platform::Soc;
using platform::SocSpec;
using util::ConfigError;

LeakageParams test_leakage() { return LeakageParams{util::kelvin(1600.0), util::watts_per_kelvin2(1.0e-3)}; }

// --- PowerModel ---------------------------------------------------------------

TEST(PowerModel, RejectsBadParams) {
  const SocSpec spec = platform::exynos5422();
  EXPECT_THROW(PowerModel(spec, LeakageParams{util::kelvin(-1.0), util::watts_per_kelvin2(1e-3)}), ConfigError);
  EXPECT_THROW(PowerModel(spec, test_leakage(), util::watts(-0.5)), ConfigError);
}

TEST(PowerModel, DynamicPowerFollowsCV2F) {
  const SocSpec spec = platform::exynos5422();
  const PowerModel pm(spec, test_leakage());
  Soc soc(spec);
  const std::size_t big = spec.big();
  soc.set_opp(big, spec.clusters[big].opps.max_index());

  ClusterActivity act;
  act.busy_cores = 1.0;
  act.temp_k = util::kelvin(300.0);
  const ClusterPower one = pm.cluster_power(soc, big, act);
  act.busy_cores = 2.0;
  const ClusterPower two = pm.cluster_power(soc, big, act);
  EXPECT_NEAR(two.dynamic_w.value(), 2.0 * one.dynamic_w.value(), 1e-12);

  // Hand value: ceff * V^2 * f at the top OPP.
  const platform::ClusterSpec& cs = spec.clusters[big];
  const double expected = cs.ceff_f.value() * 1.25 * 1.25 * 2.0e9;
  EXPECT_NEAR(one.dynamic_w.value(), expected, 1e-9);
}

TEST(PowerModel, DynamicPowerDropsWithFrequency) {
  const SocSpec spec = platform::exynos5422();
  const PowerModel pm(spec, test_leakage());
  const std::size_t gpu = spec.gpu();
  const double high = pm.dynamic_per_core_at(gpu, 6).value();
  const double low = pm.dynamic_per_core_at(gpu, 0).value();
  EXPECT_GT(high, 3.0 * low);
}

TEST(PowerModel, LeakageGrowsSuperlinearlyWithTemperature) {
  const SocSpec spec = platform::exynos5422();
  const PowerModel pm(spec, test_leakage());
  const double cold = pm.soc_leakage_nominal(util::kelvin(300.0)).value();
  const double warm = pm.soc_leakage_nominal(util::kelvin(350.0)).value();
  const double hot = pm.soc_leakage_nominal(util::kelvin(400.0)).value();
  EXPECT_GT(warm, cold);
  EXPECT_GT(hot - warm, warm - cold);  // convex in T over this range
  // Matches the closed form A T^2 exp(-theta/T).
  EXPECT_NEAR(cold, 1.0e-3 * 300.0 * 300.0 * std::exp(-1600.0 / 300.0),
              1e-12);
}

TEST(PowerModel, ClusterLeakageSplitsByShare) {
  const SocSpec spec = platform::exynos5422();
  const PowerModel pm(spec, test_leakage());
  Soc soc(spec);
  double total = 0.0;
  for (std::size_t c = 0; c < spec.clusters.size(); ++c) {
    // Nominal voltage: pick the OPP whose voltage equals nominal (top).
    soc.set_opp(c, spec.clusters[c].opps.max_index());
    ClusterActivity act;
    act.busy_cores = 0.0;
    act.temp_k = util::kelvin(350.0);
    total += pm.cluster_power(soc, c, act).leakage_w.value();
  }
  // Shares sum to 1 and top-OPP voltage == nominal, so the cluster sum
  // equals the SoC-level closed form.
  EXPECT_NEAR(total, pm.soc_leakage_nominal(util::kelvin(350.0)).value(), 1e-9);
}

TEST(PowerModel, LeakageScalesWithVoltage) {
  const SocSpec spec = platform::exynos5422();
  const PowerModel pm(spec, test_leakage());
  const std::size_t big = spec.big();
  Soc soc(spec);
  ClusterActivity act;
  act.busy_cores = 0.0;
  act.temp_k = util::kelvin(350.0);
  soc.set_opp(big, 0);
  const double at_min = pm.cluster_power(soc, big, act).leakage_w.value();
  soc.set_opp(big, spec.clusters[big].opps.max_index());
  const double at_max = pm.cluster_power(soc, big, act).leakage_w.value();
  const double v_ratio = spec.clusters[big].opps.at(0).voltage_v /
                         spec.clusters[big].opps.highest().voltage_v;

  EXPECT_NEAR(at_min / at_max, v_ratio, 1e-9);
}

TEST(PowerModel, RejectsBusyBeyondOnline) {
  const SocSpec spec = platform::exynos5422();
  const PowerModel pm(spec, test_leakage());
  Soc soc(spec);
  ClusterActivity act;
  act.busy_cores = 5.0;  // only 4 cores
  act.temp_k = util::kelvin(300.0);
  EXPECT_THROW(pm.cluster_power(soc, spec.big(), act), ConfigError);
}

TEST(PowerModel, IdleClusterDrawsIdleFloorPlusLeakage) {
  const SocSpec spec = platform::exynos5422();
  const PowerModel pm(spec, test_leakage());
  Soc soc(spec);
  ClusterActivity act;
  act.busy_cores = 0.0;
  act.temp_k = util::kelvin(320.0);
  const ClusterPower p = pm.cluster_power(soc, spec.big(), act);
  EXPECT_DOUBLE_EQ(p.dynamic_w.value(), 0.0);
  EXPECT_DOUBLE_EQ(p.idle_w.value(),
                   spec.clusters[spec.big()].idle_power_w.value());
  EXPECT_GT(p.leakage_w.value(), 0.0);
  EXPECT_NEAR(p.total().value(), (p.idle_w + p.leakage_w).value(), 1e-12);
}

// --- DaqSimulator ----------------------------------------------------------------

TEST(Daq, SamplesAtConfiguredRate) {
  DaqSimulator::Config cfg;
  cfg.sample_rate_hz = util::hertz(1000.0);
  cfg.noise_stddev_w = util::watts(0.0);
  DaqSimulator daq(cfg);
  daq.feed(1.0, 2.5);
  // ~1000 samples in 1 s (first at t=0).
  EXPECT_NEAR(static_cast<double>(daq.num_samples()), 1001.0, 2.0);
  EXPECT_NEAR(daq.mean_power_w(), 2.5, 1e-9);
}

TEST(Daq, NoiseAffectsSamplesButNotDeterminism) {
  DaqSimulator::Config cfg;
  cfg.noise_stddev_w = util::watts(0.05);
  cfg.seed = 11;
  DaqSimulator a(cfg);
  DaqSimulator b(cfg);
  a.feed(0.5, 1.0);
  b.feed(0.5, 1.0);
  EXPECT_DOUBLE_EQ(a.mean_power_w(), b.mean_power_w());
  EXPECT_NEAR(a.mean_power_w(), 1.0, 0.02);
}

TEST(Daq, RejectsBadConfig) {
  DaqSimulator::Config cfg;
  cfg.sample_rate_hz = util::hertz(0.0);
  EXPECT_THROW(DaqSimulator daq(cfg), ConfigError);
}

}  // namespace
}  // namespace mobitherm::power
