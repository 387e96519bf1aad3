// Tests for the run report and a mid-run app launch.
#include <gtest/gtest.h>

#include <cmath>

#include "platform/presets.h"
#include "sim/engine.h"
#include "sim/report.h"
#include "sim/experiment.h"
#include "stability/presets.h"
#include "thermal/presets.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace mobitherm {
namespace {

power::LeakageParams odroid_leakage() {
  const stability::Params p = stability::odroid_xu3_params();
  return power::LeakageParams{p.leak_theta_k, p.leak_a_w_per_k2};
}

sim::Engine make_engine() {
  return sim::Engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     odroid_leakage(), 0.25);
}

// --- RunReport --------------------------------------------------------------

TEST(Report, SummarizesARun) {
  sim::Engine engine = make_engine();
  engine.set_initial_temperature(util::celsius_to_kelvin(50.0));
  engine.add_app(workload::threedmark());
  engine.add_app(workload::bml());
  engine.run(30.0);

  const sim::RunReport report = sim::make_report(engine, 60.0);
  EXPECT_NEAR(report.duration_s, 30.0, 1e-6);
  EXPECT_GT(report.peak_temp_c, 50.0);
  EXPECT_GT(report.mean_temp_c, 45.0);
  EXPECT_LE(report.mean_temp_c, report.peak_temp_c);
  EXPECT_GT(report.total_energy_j, 30.0);  // > 1 W for 30 s

  ASSERT_EQ(report.apps.size(), 2u);
  const sim::AppReport& mark = report.apps[0];
  EXPECT_EQ(mark.name, "3dmark");
  EXPECT_GT(mark.median_fps, 40.0);
  EXPECT_LE(mark.p10_fps, mark.median_fps);
  EXPECT_GE(mark.p90_fps, mark.median_fps);
  EXPECT_GT(mark.energy_j, 5.0);
  EXPECT_GT(mark.mj_per_frame, 0.1);
  // BML has no frames, so no per-frame energy.
  EXPECT_DOUBLE_EQ(report.apps[1].mj_per_frame, 0.0);
  EXPECT_GT(report.apps[1].energy_j, 1.0);

  ASSERT_EQ(report.clusters.size(), 4u);
  const sim::ClusterReport& big = report.clusters[1];
  EXPECT_GT(big.mean_power_w, 0.5);
  EXPECT_GT(big.mean_freq_mhz, 1000.0);
  // The saturated big cluster stays pinned at max (0 transitions); the
  // idle LITTLE cluster steps down from the boot OPP at least once.
  EXPECT_GE(report.clusters[0].dvfs_transitions, 1u);
}

TEST(Report, TimeAboveLimitTracksThreshold) {
  sim::Engine engine = make_engine();
  engine.set_initial_temperature(util::celsius_to_kelvin(70.0));
  engine.add_app(workload::threedmark());
  engine.add_app(workload::bml());
  engine.run(60.0);
  const sim::RunReport strict = sim::make_report(engine, 60.0);
  const sim::RunReport lax = sim::make_report(engine, 120.0);
  EXPECT_GT(strict.time_above_limit_s, 10.0);
  EXPECT_DOUBLE_EQ(lax.time_above_limit_s, 0.0);
}

TEST(Report, FormatsWithoutCrashing) {
  sim::Engine engine = make_engine();
  engine.add_app(workload::threedmark());
  engine.run(5.0);
  const std::string text =
      sim::format_report(sim::make_report(engine, 85.0));
  EXPECT_NE(text.find("run report"), std::string::npos);
  EXPECT_NE(text.find("3dmark"), std::string::npos);
  EXPECT_NE(text.find("a15"), std::string::npos);
}

// --- mid-run app launch -----------------------------------------------------

TEST(MidRunLaunch, MigrationFollowsBmlLaunch) {
  // The paper's experiment: launch BML at t=30 under the proposed
  // governor, watch the migration happen after it.
  const platform::SocSpec spec = platform::exynos5422();
  const stability::Params params = stability::odroid_xu3_params();
  sim::Engine engine = make_engine();
  engine.set_initial_temperature(util::celsius_to_kelvin(60.0));
  engine.set_appaware_governor(std::make_unique<core::AppAwareGovernor>(
      sim::odroid_appaware_config(spec), params));
  engine.add_app(workload::threedmark());

  engine.run(30.0);
  engine.add_app(workload::bml());
  engine.run(90.0);

  std::size_t migrations = 0;
  double first_migration_at = 0.0;
  for (const auto& [t, d] : engine.decisions()) {
    if (d.migrated.has_value() && migrations++ == 0) {
      first_migration_at = t;
    }
  }
  EXPECT_GE(migrations, 1u);
  EXPECT_GT(first_migration_at, 30.0);  // only after BML launches
}

}  // namespace
}  // namespace mobitherm
