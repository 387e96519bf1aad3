// Tests for the second extension batch: thermal-network flow
// introspection and engine app lifecycle (delayed start, suspend/resume).
#include <gtest/gtest.h>

#include "platform/presets.h"
#include "sim/engine.h"
#include "stability/presets.h"
#include "thermal/network.h"
#include "thermal/presets.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace mobitherm {
namespace {

using util::ConfigError;

// --- network flow introspection ----------------------------------------------------

TEST(NetworkFlows, LinkAndAmbientFlowsBalanceAtSteadyState) {
  thermal::ThermalNetworkSpec spec;
  spec.t_ambient_k = util::kelvin(300.0);
  spec.nodes = {{"chip", util::joules_per_kelvin(0.5),
                 util::watts_per_kelvin(0.01)},
                {"board", util::joules_per_kelvin(5.0),
                 util::watts_per_kelvin(0.1)}};
  spec.links = {{0, 1, util::watts_per_kelvin(0.5)}};
  thermal::ThermalNetwork net(spec);
  const linalg::Vector power = {2.0, 0.0};
  net.set_temperatures(net.steady_state(power));

  // Chip balance: injection == link flow + ambient flow.
  EXPECT_NEAR((net.link_flow_w(0) + net.ambient_flow_w(0)).value(), 2.0,
              1e-9);
  // Board balance: link inflow == board ambient outflow.
  EXPECT_NEAR(net.link_flow_w(0).value(), net.ambient_flow_w(1).value(),
              1e-9);
  // Flow direction: chip -> board (chip is hotter).
  EXPECT_GT(net.link_flow_w(0).value(), 0.0);
  EXPECT_THROW(net.link_flow_w(1), ConfigError);
  EXPECT_THROW(net.ambient_flow_w(2), ConfigError);
}

// --- engine app lifecycle -----------------------------------------------------------

power::LeakageParams odroid_leakage() {
  const stability::Params p = stability::odroid_xu3_params();
  return power::LeakageParams{p.leak_theta_k, p.leak_a_w_per_k2};
}

TEST(AppLifecycle, DelayedAppStartsLater) {
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     odroid_leakage(), 0.25);
  const std::size_t late = engine.add_app_at(workload::bml(), 5.0);
  engine.run(4.0);
  EXPECT_DOUBLE_EQ(
      engine.scheduler().process(engine.app(late).cpu_pid()).granted_rate(),
      0.0);
  const double before =
      engine.scheduler().process(engine.app(late).cpu_pid()).completed_work();
  EXPECT_DOUBLE_EQ(before, 0.0);
  engine.run(4.0);  // now past the start time
  EXPECT_GT(
      engine.scheduler().process(engine.app(late).cpu_pid()).completed_work(),
      1.0e9);
  EXPECT_THROW(engine.add_app_at(workload::bml(), -1.0), ConfigError);
}

TEST(AppLifecycle, SuspendStopsDemandResumeRestoresIt) {
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     odroid_leakage(), 0.25);
  const std::size_t hog = engine.add_app(workload::bml());
  engine.run(2.0);
  const double work_before =
      engine.scheduler().process(engine.app(hog).cpu_pid()).completed_work();
  EXPECT_GT(work_before, 0.0);

  engine.suspend_app(hog);
  EXPECT_TRUE(engine.app_suspended(hog));
  engine.run(2.0);
  const double work_suspended =
      engine.scheduler().process(engine.app(hog).cpu_pid()).completed_work();
  EXPECT_NEAR(work_suspended, work_before, 1e-6 * work_before + 1e7);

  engine.resume_app(hog);
  engine.run(2.0);
  EXPECT_GT(
      engine.scheduler().process(engine.app(hog).cpu_pid()).completed_work(),
      work_suspended + 1.0e9);
  EXPECT_THROW(engine.suspend_app(99), ConfigError);
  EXPECT_THROW(engine.resume_app(99), ConfigError);
  EXPECT_THROW(engine.app_suspended(99), ConfigError);
}

TEST(AppLifecycle, SuspendingTheHogCoolsTheSystem) {
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     odroid_leakage(), 0.25);
  const std::size_t hog = engine.add_app(workload::bml());
  engine.run(150.0);  // approach the loaded steady state (~50 degC)
  const double hot = engine.network().max_temperature().value();
  engine.suspend_app(hog);
  engine.run(60.0);
  EXPECT_LT(engine.network().max_temperature().value(), hot - 2.0);
}

}  // namespace
}  // namespace mobitherm
