// Unit tests for the governors module: every cpufreq policy, the multi-zone
// step_wise thermal governor, and the IPA power allocator.
#include <gtest/gtest.h>

#include <memory>

#include "governors/cpufreq.h"
#include "governors/thermal.h"
#include "platform/presets.h"
#include "util/error.h"
#include "util/units.h"

namespace mobitherm::governors {
namespace {

using platform::OppTable;
using platform::Soc;
using platform::SocSpec;
using util::ConfigError;

OppTable ladder() {
  return OppTable::from_mhz_mv({{200.0, 900.0},
                                {400.0, 950.0},
                                {600.0, 1000.0},
                                {800.0, 1050.0},
                                {1000.0, 1100.0}});
}

CpufreqInputs in(double util, std::size_t index) {
  CpufreqInputs i;
  i.utilization = util;
  i.current_index = index;
  return i;
}

// --- userspace ----------------------------------------------------------------

TEST(Cpufreq, UserspacePinsAndClamps) {
  Userspace gov(2);
  const OppTable t = ladder();
  EXPECT_EQ(gov.decide(in(1.0, 0), t), 2u);
  gov.set_index(99);
  EXPECT_EQ(gov.decide(in(0.0, 0), t), 4u);  // clamped to max
}

// --- ondemand --------------------------------------------------------------------

TEST(Ondemand, JumpsToMaxAboveThreshold) {
  Ondemand gov;
  EXPECT_EQ(gov.decide(in(0.9, 1), ladder()), 4u);
  EXPECT_EQ(gov.decide(in(0.80, 1), ladder()), 4u);
}

TEST(Ondemand, ProportionalBelowThreshold) {
  Ondemand gov;
  // At 1000 MHz with util 0.4: wanted = 1000*0.4/0.8 = 500 -> ceil 600.
  EXPECT_EQ(gov.decide(in(0.4, 4), ladder()), 2u);
  // Idle drops to the floor.
  EXPECT_EQ(gov.decide(in(0.0, 4), ladder()), 0u);
}

TEST(Ondemand, StableAtModerateLoad) {
  // A load that fits the current OPP at the threshold must not oscillate.
  Ondemand gov;
  // 600 MHz, util exactly 0.79: wanted = 600*0.79/0.8 = 592.5 -> 600.
  EXPECT_EQ(gov.decide(in(0.79, 2), ladder()), 2u);
}

TEST(OndemandSamplingDown, HoldsMaxAfterBurst) {
  Ondemand::Config cfg;
  cfg.sampling_down_factor = 3;
  Ondemand gov(cfg);
  const OppTable table = OppTable::from_mhz_mv(
      {{200.0, 900.0}, {600.0, 1000.0}, {1000.0, 1100.0}});
  EXPECT_EQ(gov.decide(in(0.95, 0), table), 2u);  // jump to max
  // Held at max for sampling_down_factor - 1 further decisions.
  EXPECT_EQ(gov.decide(in(0.05, 2), table), 2u);
  EXPECT_EQ(gov.decide(in(0.05, 2), table), 2u);
  EXPECT_EQ(gov.decide(in(0.05, 2), table), 0u);  // finally drops
}

TEST(OndemandSamplingDown, DefaultDropsImmediately) {
  Ondemand gov;
  const OppTable table = OppTable::from_mhz_mv(
      {{200.0, 900.0}, {600.0, 1000.0}, {1000.0, 1100.0}});
  EXPECT_EQ(gov.decide(in(0.95, 0), table), 2u);
  EXPECT_EQ(gov.decide(in(0.05, 2), table), 0u);
}

// --- interactive --------------------------------------------------------------------

TEST(Interactive, BurstsToHispeedOnLoad) {
  Interactive gov;
  // hispeed = 0.8 * 1000 = 800 MHz -> index 3.
  EXPECT_EQ(gov.decide(in(0.95, 0), ladder()), 3u);
}

TEST(Interactive, RaisesToMaxAfterDelay) {
  Interactive::Config cfg;
  cfg.above_hispeed_delay_s = util::seconds(0.02);
  cfg.sampling_period_s = util::seconds(0.02);
  Interactive gov(cfg);
  EXPECT_EQ(gov.decide(in(0.95, 0), ladder()), 3u);   // burst
  // At hispeed, still loaded: after the delay it may go to max.
  EXPECT_EQ(gov.decide(in(0.95, 3), ladder()), 4u);
}

TEST(Interactive, HoldsBeforeDropping) {
  Interactive::Config cfg;
  cfg.min_sample_time_s = util::seconds(0.08);
  cfg.sampling_period_s = util::seconds(0.02);
  Interactive gov(cfg);
  // Load vanishes at 800 MHz: must hold for min_sample_time (4 samples).
  EXPECT_EQ(gov.decide(in(0.05, 3), ladder()), 3u);
  EXPECT_EQ(gov.decide(in(0.05, 3), ladder()), 3u);
  EXPECT_EQ(gov.decide(in(0.05, 3), ladder()), 3u);
  EXPECT_EQ(gov.decide(in(0.05, 3), ladder()), 0u);  // finally drops
}

TEST(Interactive, TargetLoadSizing) {
  Interactive gov;
  // Moderate load at max: wanted = 1000*0.45/0.9 = 500 -> 600 MHz, but
  // only after min_sample_time (0.08 s at 0.02 s sampling = 3 holds, drop
  // on the 4th decision).
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(gov.decide(in(0.45, 4), ladder()), 4u) << i;
  }
  EXPECT_EQ(gov.decide(in(0.45, 4), ladder()), 2u);
}

// --- StepWise ------------------------------------------------------------------------

StepWiseGovernor::Config one_zone(const SocSpec& spec, std::size_t cluster,
                                  double trip_c, std::size_t steps = 1) {
  StepWiseGovernor::Config cfg;
  StepWiseGovernor::Zone z;
  z.cluster = cluster;
  z.sensor_node = spec.clusters[cluster].thermal_node;
  z.trip_k = util::celsius(trip_c);
  z.hysteresis_k = util::kelvin(2.0);
  z.steps_per_state = steps;
  cfg.zones = {z};
  return cfg;
}

TEST(StepWise, ValidatesConfig) {
  const SocSpec spec = platform::snapdragon810();
  StepWiseGovernor::Config empty;
  EXPECT_THROW(StepWiseGovernor gov(spec, empty), ConfigError);

  StepWiseGovernor::Config bad = one_zone(spec, 0, 40.0);
  bad.zones[0].cluster = 99;
  EXPECT_THROW(StepWiseGovernor gov2(spec, bad), ConfigError);

  StepWiseGovernor::Config zero = one_zone(spec, 0, 40.0);
  zero.zones[0].steps_per_state = 0;
  EXPECT_THROW(StepWiseGovernor gov3(spec, zero), ConfigError);
}

TEST(StepWise, ThrottlesWhileHotReleasesWhenCool) {
  const SocSpec spec = platform::snapdragon810();
  const std::size_t gpu = spec.gpu();
  StepWiseGovernor gov(spec, one_zone(spec, gpu, 40.0));
  const std::size_t top = spec.clusters[gpu].opps.max_index();

  ThermalContext ctx;
  ctx.control_temp_k = util::celsius(45.0);
  gov.update(ctx);
  EXPECT_EQ(gov.cap_index(gpu), top - 1);
  gov.update(ctx);
  EXPECT_EQ(gov.cap_index(gpu), top - 2);

  // Inside the hysteresis band: hold.
  ctx.control_temp_k = util::celsius(39.0);
  gov.update(ctx);
  EXPECT_EQ(gov.cap_index(gpu), top - 2);

  // Below trip - hysteresis: release one step per poll.
  ctx.control_temp_k = util::celsius(37.0);
  gov.update(ctx);
  EXPECT_EQ(gov.cap_index(gpu), top - 1);
  gov.update(ctx);
  EXPECT_EQ(gov.cap_index(gpu), top);
  gov.update(ctx);
  EXPECT_EQ(gov.cap_index(gpu), top);  // no underflow below state 0
}

TEST(StepWise, FloorLimitsDepth) {
  const SocSpec spec = platform::snapdragon810();
  const std::size_t gpu = spec.gpu();
  StepWiseGovernor::Config cfg = one_zone(spec, gpu, 40.0, 2);
  cfg.zones[0].floor_index = 2;
  StepWiseGovernor gov(spec, cfg);
  ThermalContext ctx;
  ctx.control_temp_k = util::celsius(60.0);
  for (int i = 0; i < 20; ++i) {
    gov.update(ctx);
  }
  EXPECT_EQ(gov.cap_index(gpu), 2u);
}

TEST(StepWise, ZonesActIndependentlyOnTheirSensors) {
  const SocSpec spec = platform::snapdragon810();
  const std::size_t big = spec.big();
  const std::size_t gpu = spec.gpu();
  StepWiseGovernor::Config cfg = one_zone(spec, big, 40.0);
  StepWiseGovernor::Zone gz;
  gz.cluster = gpu;
  gz.sensor_node = spec.clusters[gpu].thermal_node;
  gz.trip_k = util::celsius(45.0);
  cfg.zones.push_back(gz);
  StepWiseGovernor gov(spec, cfg);

  // Node temps: big hot (42 degC), gpu cool (40 degC).
  std::vector<double> nodes(platform::kNumThermalNodes,
                            util::celsius_to_kelvin(30.0));
  nodes[spec.clusters[big].thermal_node] = util::celsius_to_kelvin(42.0);
  nodes[spec.clusters[gpu].thermal_node] = util::celsius_to_kelvin(40.0);
  ThermalContext ctx;
  ctx.node_temp_k = &nodes;
  gov.update(ctx);
  // One throttle step on big's zone, none on the GPU's.
  EXPECT_EQ(gov.cap_index(big), spec.clusters[big].opps.max_index() - 1);
  EXPECT_EQ(gov.cap_index(gpu), spec.clusters[gpu].opps.max_index());
}

TEST(StepWise, FallsBackToControlTempWithoutNodeTemps) {
  const SocSpec spec = platform::snapdragon810();
  StepWiseGovernor gov(spec, one_zone(spec, spec.gpu(), 40.0));
  ThermalContext ctx;
  ctx.control_temp_k = util::celsius(50.0);
  gov.update(ctx);
  EXPECT_EQ(gov.cap_index(spec.gpu()),
            spec.clusters[spec.gpu()].opps.max_index() - 1);
}

TEST(StepWise, UniformHelperCoversNonMemoryClusters) {
  const SocSpec spec = platform::exynos5422();
  const auto cfg =
      StepWiseGovernor::uniform(spec, util::celsius(80.0));
  EXPECT_EQ(cfg.zones.size(), 3u);  // little, big, gpu (not memory)
  StepWiseGovernor gov(spec, cfg);
  EXPECT_EQ(gov.cap_index(spec.big()), spec.clusters[spec.big()].opps.max_index());
}

// --- IPA -----------------------------------------------------------------------------

struct IpaFixture {
  SocSpec spec = platform::exynos5422();
  Soc soc{spec};
  power::PowerModel pm{spec, power::LeakageParams{}};
  std::vector<double> busy;
  std::vector<std::size_t> requested;

  IpaFixture() {
    busy.assign(spec.clusters.size(), 0.0);
    requested.assign(spec.clusters.size(), 0);
    for (std::size_t c = 0; c < spec.clusters.size(); ++c) {
      soc.set_opp(c, spec.clusters[c].opps.max_index());
      requested[c] = spec.clusters[c].opps.max_index();
    }
    busy[spec.big()] = 2.0;
    busy[spec.gpu()] = 1.0;
  }

  ThermalContext ctx(double temp_c) {
    ThermalContext c;
    c.dt = util::seconds(0.1);
    c.control_temp_k = util::celsius(temp_c);
    c.soc = &soc;
    c.power = &pm;
    c.busy_cores = &busy;
    c.requested_index = &requested;
    return c;
  }

  IpaGovernor::Config config() {
    IpaGovernor::Config cfg;
    cfg.control_temp_k = util::celsius(85.0);
    cfg.sustainable_power_w = util::watts(2.0);
    cfg.actors = {spec.big(), spec.gpu()};
    return cfg;
  }
};

TEST(Ipa, ValidatesConfigAndContext) {
  IpaFixture f;
  IpaGovernor::Config bad = f.config();
  bad.actors = {99};
  EXPECT_THROW(IpaGovernor gov(f.spec, bad), ConfigError);

  IpaGovernor gov(f.spec, f.config());
  ThermalContext empty;
  EXPECT_THROW(gov.update(empty), ConfigError);
}

TEST(Ipa, NoCapWellBelowTarget) {
  IpaFixture f;
  IpaGovernor gov(f.spec, f.config());
  gov.update(f.ctx(45.0));  // 40 K of headroom -> huge budget
  EXPECT_EQ(gov.cap_index(f.spec.big()),
            f.spec.clusters[f.spec.big()].opps.max_index());
  EXPECT_EQ(gov.cap_index(f.spec.gpu()),
            f.spec.clusters[f.spec.gpu()].opps.max_index());
}

TEST(Ipa, CapsWhenOverTarget) {
  IpaFixture f;
  IpaGovernor gov(f.spec, f.config());
  gov.update(f.ctx(95.0));  // 10 K over
  EXPECT_LT(gov.cap_index(f.spec.big()),
            f.spec.clusters[f.spec.big()].opps.max_index());
  EXPECT_LT(gov.cap_index(f.spec.gpu()),
            f.spec.clusters[f.spec.gpu()].opps.max_index());
  EXPECT_LT(gov.last_budget_w().value(), 2.0);
}

TEST(Ipa, DeeperOverTargetMeansDeeperCaps) {
  IpaFixture f;
  IpaGovernor hot(f.spec, f.config());
  IpaGovernor hotter(f.spec, f.config());
  hot.update(f.ctx(90.0));
  hotter.update(f.ctx(100.0));
  EXPECT_LE(hotter.cap_index(f.spec.big()), hot.cap_index(f.spec.big()));
  EXPECT_LE(hotter.cap_index(f.spec.gpu()), hot.cap_index(f.spec.gpu()));
}

TEST(Ipa, NonActorsAreNeverCapped) {
  IpaFixture f;
  IpaGovernor gov(f.spec, f.config());
  gov.update(f.ctx(120.0));
  EXPECT_EQ(gov.cap_index(f.spec.little()),
            f.spec.clusters[f.spec.little()].opps.max_index());
}

TEST(Ipa, BudgetNeverNegative) {
  IpaFixture f;
  IpaGovernor gov(f.spec, f.config());
  gov.update(f.ctx(200.0));
  EXPECT_GE(gov.last_budget_w().value(), 0.0);
}

TEST(Ipa, IntegralIsClamped) {
  IpaFixture f;
  IpaGovernor::Config cfg = f.config();
  cfg.k_i = util::watts_per_kelvin_second(10.0);
  cfg.integral_cap_w = util::watts(0.5);
  IpaGovernor gov(f.spec, cfg);
  for (int i = 0; i < 100; ++i) {
    gov.update(f.ctx(45.0));  // persistent headroom: integral saturates
  }
  // Budget = sustainable + k_pu*err + integral(<= cap).
  const double err = util::celsius_to_kelvin(85.0) -
                     util::celsius_to_kelvin(45.0);
  EXPECT_LE(gov.last_budget_w().value(),
            2.0 + cfg.k_pu.value() * err + 0.5 + 1e-9);
}

}  // namespace
}  // namespace mobitherm::governors
