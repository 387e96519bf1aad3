// Unit tests for the application-aware thermal governor (the paper's
// contribution): fixed-point prediction, imminence check, victim selection,
// realtime exemption, migrate-back extension.
#include <gtest/gtest.h>

#include "core/appaware.h"

#include "thermal/lumped.h"
#include "platform/presets.h"
#include "stability/presets.h"
#include "util/error.h"
#include "util/units.h"

namespace mobitherm::core {
namespace {

using platform::Soc;
using platform::SocSpec;
using sched::Pid;
using util::ConfigError;
using util::celsius_to_kelvin;

struct Fixture {
  SocSpec spec = platform::exynos5422();
  Soc soc{spec};
  sched::Scheduler sched{spec};
  stability::Params params = stability::odroid_xu3_params();

  Fixture() {
    for (std::size_t c = 0; c < soc.num_clusters(); ++c) {
      soc.set_opp(c, spec.clusters[c].opps.max_index());
    }
  }

  AppAwareConfig config() {
    AppAwareConfig cfg;
    cfg.temp_limit_k = celsius_to_kelvin(85.0);
    cfg.time_limit_s = 60.0;
    cfg.big_cluster = spec.big();
    cfg.little_cluster = spec.little();
    return cfg;
  }

  Pid spawn(const std::string& name, bool realtime, double demand,
            double power) {
    sched::ProcessSpec ps;
    ps.name = name;
    ps.realtime = realtime;
    ps.threads = 1;
    const Pid pid = sched.spawn(ps, spec.big());
    sched.process(pid).set_demand_rate(demand);
    sched.allocate(soc, 1.0);
    sched.process(pid).record_power(1.0, power);
    return pid;
  }
};

TEST(AppAware, ValidatesConfig) {
  Fixture f;
  AppAwareConfig bad = f.config();
  bad.period_s = 0.0;
  EXPECT_THROW(AppAwareGovernor(bad, f.params), ConfigError);
  AppAwareConfig same = f.config();
  same.little_cluster = same.big_cluster;
  EXPECT_THROW(AppAwareGovernor(same, f.params), ConfigError);
}

TEST(AppAware, NoActionWhenCool) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  const Pid pid = f.spawn("bg", false, 4.0e9, 1.3);
  // Measured power = 2 W dynamic + the model leakage at 50 degC, so the
  // governor's dynamic-power estimate lands exactly on the calibration
  // point (2 W -> fixed point ~65 degC, below the limit).
  const double measured =
      2.0 + thermal::leakage_power(f.params, util::celsius(50.0)).value();
  const AppAwareDecision d =
      gov.update(f.sched, measured, celsius_to_kelvin(50.0));
  EXPECT_FALSE(d.violation_predicted);
  EXPECT_FALSE(d.migrated.has_value());
  EXPECT_EQ(f.sched.process(pid).cluster(), f.spec.big());
  EXPECT_NEAR(d.fixed_point_temp_k, 338.0, 1.0);
  EXPECT_EQ(d.cls, stability::StabilityClass::kStable);
}

TEST(AppAware, MigratesTopPowerProcessWhenViolationImminent) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  const Pid light = f.spawn("light", false, 1.0e9, 0.4);
  const Pid heavy = f.spawn("heavy", false, 4.0e9, 1.5);
  // 5 W at 80 degC: fixed point well above 85 degC and close in time.
  const AppAwareDecision d =
      gov.update(f.sched, 5.0, celsius_to_kelvin(80.0));
  EXPECT_TRUE(d.violation_predicted);
  ASSERT_TRUE(d.migrated.has_value());
  EXPECT_EQ(*d.migrated, heavy);
  EXPECT_EQ(f.sched.process(heavy).cluster(), f.spec.little());
  EXPECT_EQ(f.sched.process(light).cluster(), f.spec.big());
  EXPECT_EQ(gov.parked().size(), 1u);
}

TEST(AppAware, RuntimeRegisteredProcessesAreExempt) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  const Pid rt = f.spawn("game", true, 8.0e9, 2.5);
  const Pid bg = f.spawn("bml", false, 4.0e9, 1.3);
  const AppAwareDecision d =
      gov.update(f.sched, 5.0, celsius_to_kelvin(80.0));
  ASSERT_TRUE(d.migrated.has_value());
  EXPECT_EQ(*d.migrated, bg);  // not the (hungrier) realtime process
  EXPECT_EQ(f.sched.process(rt).cluster(), f.spec.big());
}

TEST(AppAware, NoVictimMeansNoMigration) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  f.spawn("game", true, 8.0e9, 2.5);  // only realtime processes
  const AppAwareDecision d =
      gov.update(f.sched, 5.0, celsius_to_kelvin(80.0));
  EXPECT_TRUE(d.violation_predicted);
  EXPECT_FALSE(d.migrated.has_value());
}

TEST(AppAware, UnstablePowerAlwaysPredictsViolation) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  f.spawn("bg", false, 4.0e9, 1.3);
  // 8 W has no fixed point (Fig. 7c): runaway.
  const AppAwareDecision d =
      gov.update(f.sched, 8.0, celsius_to_kelvin(80.0));
  EXPECT_EQ(d.cls, stability::StabilityClass::kUnstable);
  EXPECT_TRUE(d.violation_predicted);
  EXPECT_TRUE(d.migrated.has_value());
}

TEST(AppAware, DistantViolationIsNotImminent) {
  Fixture f;
  AppAwareConfig cfg = f.config();
  cfg.time_limit_s = 5.0;  // very strict imminence
  AppAwareGovernor gov(cfg, f.params);
  f.spawn("bg", false, 4.0e9, 1.3);
  // Hot fixed point but starting cold: crossing 85 degC takes >> 5 s.
  const AppAwareDecision d =
      gov.update(f.sched, 5.0, celsius_to_kelvin(30.0));
  EXPECT_GT(d.time_to_violation_s, 5.0);
  EXPECT_FALSE(d.violation_predicted);
  EXPECT_FALSE(d.migrated.has_value());
}

TEST(AppAware, LeakageSubtractedFromMeasuredPower) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  const AppAwareDecision d =
      gov.update(f.sched, 3.0, celsius_to_kelvin(80.0));
  const double leak =
      thermal::leakage_power(f.params, util::celsius(80.0)).value();
  EXPECT_NEAR(d.p_dyn_estimate_w, 3.0 - leak, 1e-9);
  EXPECT_GT(leak, 0.0);
}

TEST(AppAware, PowerBelowLeakageClampsToZero) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  const AppAwareDecision d =
      gov.update(f.sched, 0.0, celsius_to_kelvin(80.0));
  EXPECT_DOUBLE_EQ(d.p_dyn_estimate_w, 0.0);
}

TEST(AppAware, RepeatedViolationsMigrateRepeatedly) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  const Pid a = f.spawn("a", false, 4.0e9, 1.5);
  const Pid b = f.spawn("b", false, 4.0e9, 1.0);
  gov.update(f.sched, 5.0, celsius_to_kelvin(80.0));
  gov.update(f.sched, 5.0, celsius_to_kelvin(80.0));
  EXPECT_EQ(f.sched.process(a).cluster(), f.spec.little());
  EXPECT_EQ(f.sched.process(b).cluster(), f.spec.little());
  EXPECT_EQ(gov.parked().size(), 2u);
}

TEST(AppAware, MigrateBackWhenHeadroomReturns) {
  Fixture f;
  AppAwareConfig cfg = f.config();
  cfg.migrate_back = true;
  cfg.migrate_back_margin_k = 2.0;
  AppAwareGovernor gov(cfg, f.params);
  const Pid bg = f.spawn("bg", false, 4.0e9, 0.3);

  gov.update(f.sched, 5.0, celsius_to_kelvin(80.0));
  ASSERT_EQ(f.sched.process(bg).cluster(), f.spec.little());

  // Cool, light load: adding the parked process's 0.3 W back keeps the
  // fixed point far below the limit.
  const AppAwareDecision d =
      gov.update(f.sched, 1.0, celsius_to_kelvin(45.0));
  EXPECT_TRUE(d.migrated_back.has_value());
  EXPECT_EQ(f.sched.process(bg).cluster(), f.spec.big());
  EXPECT_TRUE(gov.parked().empty());
}

TEST(AppAware, MigrateBackDisabledByDefault) {
  Fixture f;
  AppAwareGovernor gov(f.config(), f.params);
  const Pid bg = f.spawn("bg", false, 4.0e9, 0.3);
  gov.update(f.sched, 5.0, celsius_to_kelvin(80.0));
  const AppAwareDecision d =
      gov.update(f.sched, 1.0, celsius_to_kelvin(45.0));
  EXPECT_FALSE(d.migrated_back.has_value());
  EXPECT_EQ(f.sched.process(bg).cluster(), f.spec.little());
}

}  // namespace
}  // namespace mobitherm::core
