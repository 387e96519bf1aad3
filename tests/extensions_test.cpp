// Tests for the extension features: safe-power budgeting, skin-temperature
// estimation, emergency hotplug, trace-driven workloads, budget shedding in
// the application-aware governor, and the engine's governor-contradiction
// accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/appaware.h"
#include "governors/hotplug.h"
#include "platform/presets.h"
#include "sim/engine.h"
#include "stability/presets.h"
#include "stability/safety.h"
#include "thermal/lumped.h"
#include "thermal/presets.h"
#include "thermal/skin.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"
#include "workload/rate_trace.h"

namespace mobitherm {
namespace {

using util::ConfigError;
using util::celsius_to_kelvin;

// --- stability::safe_power ----------------------------------------------------

TEST(SafePower, FixedPointAtBudgetEqualsLimit) {
  const stability::Params p = stability::odroid_xu3_params();
  const double limit = celsius_to_kelvin(85.0);
  const double budget = stability::safe_power(p, limit);
  EXPECT_GT(budget, 0.0);
  EXPECT_LT(budget, stability::critical_power(p));
  EXPECT_NEAR(stability::stable_temperature(p, budget), limit, 0.01);
}

TEST(SafePower, MonotoneInLimit) {
  const stability::Params p = stability::odroid_xu3_params();
  double prev = 0.0;
  for (double limit_c = 50.0; limit_c <= 120.0; limit_c += 10.0) {
    const double budget =
        stability::safe_power(p, celsius_to_kelvin(limit_c));
    EXPECT_GE(budget, prev) << limit_c;
    prev = budget;
  }
}

TEST(SafePower, CappedByCriticalPower) {
  const stability::Params p = stability::odroid_xu3_params();
  // A limit hotter than the critical temperature cannot buy more than the
  // critical power.
  const double budget = stability::safe_power(p, 500.0);
  EXPECT_LE(budget, stability::critical_power(p) + 1e-6);
}

TEST(SafePower, ZeroAtOrBelowAmbient) {
  const stability::Params p = stability::odroid_xu3_params();
  EXPECT_DOUBLE_EQ(stability::safe_power(p, p.t_ambient_k.value()), 0.0);
  EXPECT_DOUBLE_EQ(stability::safe_power(p, p.t_ambient_k.value() - 10.0), 0.0);
}

TEST(SafePower, HeadroomSigns) {
  const stability::Params p = stability::odroid_xu3_params();
  const double limit = celsius_to_kelvin(85.0);
  const double budget = stability::safe_power(p, limit);
  EXPECT_GT(stability::power_headroom(p, limit, budget - 0.5), 0.0);
  EXPECT_LT(stability::power_headroom(p, limit, budget + 0.5), 0.0);
}

// --- thermal::SkinEstimator ------------------------------------------------------

TEST(Skin, ValidatesParams) {
  thermal::SkinModelParams bad;
  bad.alpha = 1.5;
  EXPECT_THROW(thermal::SkinEstimator est(bad), ConfigError);
  thermal::SkinModelParams bad2;
  bad2.tau_s = util::seconds(0.0);
  EXPECT_THROW(thermal::SkinEstimator est2(bad2), ConfigError);
}

TEST(Skin, SteadyStateIsBlend) {
  thermal::SkinModelParams p;
  p.alpha = 0.7;
  p.t_ambient_k = util::kelvin(298.15);
  thermal::SkinEstimator est(p);
  const util::Kelvin board = util::kelvin(330.0);
  EXPECT_NEAR(est.steady_skin_k(board).value(), 0.7 * 330.0 + 0.3 * 298.15,
              1e-12);
  // Long exposure converges there.
  est.step(board, util::seconds(1000.0));
  EXPECT_NEAR(est.skin_temp_k().value(), est.steady_skin_k(board).value(),
              1e-6);
}

TEST(Skin, FirstOrderLag) {
  thermal::SkinModelParams p;
  p.tau_s = util::seconds(45.0);
  thermal::SkinEstimator est(p);
  const util::Kelvin board = util::kelvin(340.0);
  est.step(board, util::seconds(45.0));  // one time constant: ~63% of the way
  const double target = est.steady_skin_k(board).value();
  const double progress = (est.skin_temp_k().value() - p.t_ambient_k.value()) /
                          (target - p.t_ambient_k.value());
  EXPECT_NEAR(progress, 1.0 - std::exp(-1.0), 1e-9);
}

TEST(Skin, SkinLagsBoard) {
  // Skin warms much more slowly than the chip; the paper's UX argument
  // rests on the surface being the slow, user-facing node.
  thermal::SkinEstimator est(thermal::SkinModelParams{});
  est.step(util::kelvin(350.0), util::seconds(5.0));
  EXPECT_LT(est.skin_temp_k().value(), 310.0);
}

// --- governors::HotplugGovernor ----------------------------------------------------

TEST(Hotplug, ValidatesConfig) {
  const platform::SocSpec spec = platform::exynos5422();
  governors::HotplugGovernor::Config bad;
  bad.cluster = 99;
  EXPECT_THROW(governors::HotplugGovernor gov(spec, bad), ConfigError);
  governors::HotplugGovernor::Config bad2;
  bad2.cluster = spec.big();
  bad2.min_cores = 10;
  EXPECT_THROW(governors::HotplugGovernor gov2(spec, bad2), ConfigError);
}

TEST(Hotplug, OfflinesAboveTripOnlinesBelow) {
  const platform::SocSpec spec = platform::exynos5422();
  governors::HotplugGovernor::Config cfg;
  cfg.cluster = spec.big();
  cfg.trip_k = util::celsius(95.0);
  cfg.hysteresis_k = util::kelvin(5.0);
  cfg.min_cores = 1;
  governors::HotplugGovernor gov(spec, cfg);
  EXPECT_EQ(gov.target_cores(), 4);

  const util::Kelvin hot = util::celsius(100.0);
  EXPECT_EQ(gov.update(hot), 3);
  EXPECT_EQ(gov.update(hot), 2);
  EXPECT_EQ(gov.update(hot), 1);
  EXPECT_EQ(gov.update(hot), 1);  // respects min_cores
  EXPECT_EQ(gov.offline_events(), 3u);

  const util::Kelvin band = util::celsius(92.0);  // inside hysteresis
  EXPECT_EQ(gov.update(band), 1);

  const util::Kelvin cool = util::celsius(80.0);
  EXPECT_EQ(gov.update(cool), 2);
  EXPECT_EQ(gov.update(cool), 3);
  EXPECT_EQ(gov.update(cool), 4);
  EXPECT_EQ(gov.update(cool), 4);
}

TEST(Hotplug, EngineWiringReducesCapacity) {
  const platform::SocSpec spec = platform::exynos5422();
  const stability::Params p = stability::odroid_xu3_params();
  sim::Engine engine(spec, thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k,
                                          p.leak_a_w_per_k2},
                     0.25);
  governors::HotplugGovernor::Config cfg;
  cfg.cluster = spec.big();
  cfg.trip_k = util::kelvin(0.0);  // always hot: offline one core per poll
  cfg.polling_period_s = util::seconds(0.5);
  cfg.min_cores = 1;
  engine.set_hotplug_governor(
      std::make_unique<governors::HotplugGovernor>(spec, cfg));
  engine.add_app(workload::bml());
  engine.run(3.0);
  EXPECT_EQ(engine.soc().state(spec.big()).online_cores, 1);
  ASSERT_NE(engine.hotplug_governor(), nullptr);
  EXPECT_GE(engine.hotplug_governor()->offline_events(), 3u);
}

// --- workload::rate_trace -------------------------------------------------------------

TEST(RateTrace, SyntheticIsDeterministicAndBounded) {
  const auto a = workload::synthetic_rate_trace(5, 120, 2.0e9, 4.0e8, 0.5);
  const auto b = workload::synthetic_rate_trace(5, 120, 2.0e9, 4.0e8, 0.5);
  ASSERT_EQ(a.size(), 120u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].cpu_rate, b[i].cpu_rate);
    EXPECT_GE(a[i].cpu_rate, 0.0);
    EXPECT_LE(a[i].cpu_rate, 2.0e9 / (1.0 - 0.5) + 1.0);
  }
  EXPECT_THROW(workload::synthetic_rate_trace(1, 0, 1.0, 1.0), ConfigError);
  EXPECT_THROW(workload::synthetic_rate_trace(1, 10, 1.0, 1.0, 1.5),
               ConfigError);
}

TEST(RateTrace, LoadsCsv) {
  const std::string path = ::testing::TempDir() + "rate_trace_test.csv";
  {
    std::ofstream out(path);
    out << "duration_s,cpu_rate,gpu_rate\n"
        << "1,1.5e9,3e8\n"
        << "\n"
        << "2.5,0,6e8\n";
  }
  const auto loaded = workload::load_rate_trace(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0].duration_s, 1.0);
  EXPECT_DOUBLE_EQ(loaded[0].cpu_rate, 1.5e9);
  EXPECT_DOUBLE_EQ(loaded[0].gpu_rate, 3.0e8);
  EXPECT_DOUBLE_EQ(loaded[1].duration_s, 2.5);
  EXPECT_DOUBLE_EQ(loaded[1].cpu_rate, 0.0);
  EXPECT_DOUBLE_EQ(loaded[1].gpu_rate, 6.0e8);
  std::remove(path.c_str());
  EXPECT_THROW(workload::load_rate_trace("/nonexistent.csv"), ConfigError);
}

TEST(RateTrace, TraceToAppReproducesRates) {
  std::vector<workload::RateSample> trace = {
      {2.0, 1.2e9, 3.0e8}, {1.0, 0.0, 6.0e8}};
  const workload::AppSpec app =
      workload::trace_to_app("replay", trace, 60.0);
  ASSERT_EQ(app.phases.size(), 2u);
  // Demand = work_per_frame * target_fps recovers the trace rate exactly.
  EXPECT_NEAR(app.phases[0].cpu_work_per_frame * 60.0, 1.2e9, 1e-3);
  EXPECT_NEAR(app.phases[1].gpu_work_per_frame * 60.0, 6.0e8, 1e-3);
  EXPECT_THROW(workload::trace_to_app("x", {}, 60.0), ConfigError);
  EXPECT_THROW(workload::trace_to_app("x", trace, 0.0), ConfigError);
}

TEST(RateTrace, ReplayRunsInEngine) {
  const stability::Params p = stability::odroid_xu3_params();
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k,
                                          p.leak_a_w_per_k2},
                     0.25);
  const auto trace = workload::synthetic_rate_trace(11, 20, 3.0e9, 4.0e8);
  const std::size_t idx =
      engine.add_app(workload::trace_to_app("replay", trace));
  engine.run(10.0);
  EXPECT_GT(engine.app(idx).total_frames(), 100.0);
  EXPECT_GT(engine.total_power_w(), 0.5);
}

// --- shed_until_safe --------------------------------------------------------------------

TEST(ShedUntilSafe, MigratesMultipleVictimsInOnePeriod) {
  const platform::SocSpec spec = platform::exynos5422();
  platform::Soc soc(spec);
  for (std::size_t c = 0; c < soc.num_clusters(); ++c) {
    soc.set_opp(c, spec.clusters[c].opps.max_index());
  }
  sched::Scheduler sched(spec);
  auto spawn = [&](const char* name, double power) {
    sched::ProcessSpec ps;
    ps.name = name;
    ps.threads = 1;
    const sched::Pid pid = sched.spawn(ps, spec.big());
    sched.process(pid).set_demand_rate(4.0e9);
    sched.allocate(soc, 1.0);
    sched.process(pid).record_power(1.0, power);
    return pid;
  };
  const sched::Pid a = spawn("a", 1.5);
  const sched::Pid b = spawn("b", 1.2);
  const sched::Pid c = spawn("c", 0.2);

  const stability::Params params = stability::odroid_xu3_params();
  core::AppAwareConfig cfg;
  cfg.big_cluster = spec.big();
  cfg.little_cluster = spec.little();
  cfg.temp_limit_k = celsius_to_kelvin(85.0);
  cfg.time_limit_s = 60.0;
  cfg.shed_until_safe = true;
  core::AppAwareGovernor gov(cfg, params);

  // 5.5 W dynamic, budget ~3.3 W: must shed ~2.2 W -> victims a and b.
  const core::AppAwareDecision d =
      gov.update(sched,
                 5.5 + thermal::leakage_power(params, util::celsius(80.0))
                           .value(),
                 celsius_to_kelvin(80.0));
  EXPECT_TRUE(d.violation_predicted);
  ASSERT_EQ(d.all_migrated.size(), 2u);
  EXPECT_EQ(d.all_migrated[0], a);
  EXPECT_EQ(d.all_migrated[1], b);
  EXPECT_EQ(sched.process(c).cluster(), spec.big());
}

// --- engine: skin + conflicts ----------------------------------------------------------

TEST(EngineExtensions, SkinEstimatorTracksBoardSlowly) {
  const stability::Params p = stability::odroid_xu3_params();
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k,
                                          p.leak_a_w_per_k2},
                     0.25);
  EXPECT_FALSE(engine.has_skin_estimator());
  EXPECT_THROW(engine.skin_temp_k(), ConfigError);
  engine.enable_skin_estimator(thermal::SkinModelParams{});
  engine.add_app(workload::threedmark());
  engine.run(30.0);
  const std::size_t board = engine.network().num_nodes() - 1;
  EXPECT_GT(engine.skin_temp_k(), 298.15 + 1.0);
  EXPECT_LT(engine.skin_temp_k(),
            engine.network().temperature(board).value());
}

TEST(EngineExtensions, ConflictAccountingCountsThermalClamps) {
  const platform::SocSpec spec = platform::exynos5422();
  const stability::Params p = stability::odroid_xu3_params();
  sim::Engine engine(spec, thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k,
                                          p.leak_a_w_per_k2},
                     0.25);
  // An always-tripped step-wise zone clamps the big cluster while BML
  // saturates it -> continuous contradiction.
  governors::StepWiseGovernor::Config cfg;
  governors::StepWiseGovernor::Zone z;
  z.cluster = spec.big();
  z.sensor_node = spec.clusters[spec.big()].thermal_node;
  z.trip_k = util::kelvin(0.0);
  z.steps_per_state = 4;
  cfg.zones = {z};
  cfg.polling_period_s = util::seconds(0.1);
  engine.set_thermal_governor(
      std::make_unique<governors::StepWiseGovernor>(spec, cfg));
  engine.add_app(workload::bml());
  engine.run(5.0);
  EXPECT_GT(engine.conflict_time_s(spec.big()), 3.0);
  // The LITTLE cluster was never clamped.
  EXPECT_DOUBLE_EQ(engine.conflict_time_s(spec.little()), 0.0);
  EXPECT_THROW(engine.conflict_time_s(99), ConfigError);
}

TEST(EngineExtensions, NoConflictsWithoutThermalGovernor) {
  const stability::Params p = stability::odroid_xu3_params();
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k,
                                          p.leak_a_w_per_k2},
                     0.25);
  engine.add_app(workload::threedmark());
  engine.run(5.0);
  for (std::size_t c = 0; c < engine.soc().num_clusters(); ++c) {
    EXPECT_DOUBLE_EQ(engine.conflict_time_s(c), 0.0);
  }
}

}  // namespace
}  // namespace mobitherm
