// Observer-bus tests: passive observers never perturb the simulation
// (byte-identical traces with zero, one, N observers), and every event type
// fires when its source is wired.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "platform/presets.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "stability/presets.h"
#include "thermal/presets.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace mobitherm::sim {
namespace {

using platform::SocSpec;
using util::ConfigError;
using util::celsius_to_kelvin;

power::LeakageParams odroid_leakage() {
  const stability::Params p = stability::odroid_xu3_params();
  return power::LeakageParams{p.leak_theta_k, p.leak_a_w_per_k2};
}

std::unique_ptr<Engine> make_engine(EngineConfig cfg = {}) {
  return std::make_unique<Engine>(platform::exynos5422(),
                                  thermal::odroidxu3_network(),
                                  odroid_leakage(), 0.25, cfg);
}

/// Always-tripped step_wise config: caps the big cluster hard, producing
/// conflicts and DVFS transitions deterministically.
void add_hot_stepwise(Engine& engine) {
  const SocSpec spec = platform::exynos5422();
  governors::StepWiseGovernor::Config cfg;
  governors::StepWiseGovernor::Zone z;
  z.cluster = spec.big();
  z.sensor_node = spec.clusters[spec.big()].thermal_node;
  z.trip_k = util::kelvin(0.0);  // always above trip
  z.steps_per_state = 4;
  cfg.zones = {z};
  cfg.polling_period_s = util::seconds(0.1);
  engine.set_thermal_governor(
      std::make_unique<governors::StepWiseGovernor>(spec, cfg));
}

/// Counts every event kind it sees.
struct CountingObserver final : SimObserver {
  std::size_t ticks = 0;
  std::size_t cpufreq = 0;
  std::size_t thermal = 0;
  std::size_t appaware = 0;
  std::size_t hotplug = 0;
  std::size_t dvfs = 0;
  bool caps_seen = false;
  bool decision_seen = false;

  void on_tick(const TickInfo& info) override {
    ++ticks;
    EXPECT_GT(info.dt, 0.0);
    EXPECT_NE(info.engine, nullptr);
  }
  void on_governor_decision(const GovernorDecisionEvent& e) override {
    switch (e.kind) {
      case GovernorKind::kCpufreq:
        ++cpufreq;
        break;
      case GovernorKind::kThermal:
        ++thermal;
        caps_seen = caps_seen || e.thermal_caps != nullptr;
        break;
      case GovernorKind::kAppAware:
        ++appaware;
        decision_seen = decision_seen || e.decision != nullptr;
        break;
      case GovernorKind::kHotplug:
        ++hotplug;
        break;
    }
  }
  void on_dvfs_transition(const DvfsTransitionEvent& e) override {
    ++dvfs;
    EXPECT_NE(e.from_index, e.to_index);
  }
};

/// Every number the engine's trace holds, in a fixed order: each point's
/// time and max chip temperature, then per cluster the residency seconds
/// and mean rail power, then the total rail energy and the duration.
std::vector<double> trace_values(const Engine& engine) {
  const Trace& trace = engine.trace();
  std::vector<double> out;
  for (const TracePoint& p : trace.points()) {
    out.insert(out.end(), {p.t_s, p.max_chip_temp_k});
  }
  for (std::size_t c = 0; c < engine.soc().num_clusters(); ++c) {
    const std::vector<double>& seconds = trace.residency_s(c);
    out.insert(out.end(), seconds.begin(), seconds.end());
    out.push_back(trace.mean_rail_power_w(c));
  }
  out.push_back(trace.total_rail_energy_j());
  out.push_back(trace.duration_s());
  return out;
}

TEST(ObserverBus, TraceByteIdenticalWithZeroOneManyObservers) {
  EngineConfig cfg;
  cfg.seed = 11;
  auto run_with = [&](int observers) {
    auto engine = make_engine(cfg);
    add_hot_stepwise(*engine);
    engine->add_app(workload::threedmark());
    CountingObserver a;
    CountingObserver b;
    CountingObserver c;
    if (observers >= 1) {
      engine->add_observer(&a);
    }
    if (observers >= 3) {
      engine->add_observer(&b);
      engine->add_observer(&c);
    }
    engine->run(3.0);
    return trace_values(*engine);
  };
  const std::vector<double> zero = run_with(0);
  const std::vector<double> one = run_with(1);
  const std::vector<double> many = run_with(3);
  EXPECT_EQ(zero, one);
  EXPECT_EQ(zero, many);
}

TEST(ObserverBus, GovernorDecisionEventsFire) {
  auto engine = make_engine();
  const SocSpec spec = platform::exynos5422();
  add_hot_stepwise(*engine);
  core::AppAwareConfig acfg;
  acfg.big_cluster = spec.big();
  acfg.little_cluster = spec.little();
  acfg.temp_limit_k = celsius_to_kelvin(85.0);
  engine->set_appaware_governor(std::make_unique<core::AppAwareGovernor>(
      acfg, stability::odroid_xu3_params()));
  governors::HotplugGovernor::Config hcfg;
  hcfg.cluster = spec.big();
  hcfg.polling_period_s = util::seconds(0.5);
  engine->set_hotplug_governor(
      std::make_unique<governors::HotplugGovernor>(spec, hcfg));

  CountingObserver counter;
  EXPECT_THROW(engine->add_observer(nullptr), ConfigError);
  engine->add_observer(&counter);
  engine->add_app(workload::bml());
  engine->run(2.0);

  EXPECT_EQ(counter.ticks, 2000u);
  EXPECT_GT(counter.cpufreq, 0u);
  EXPECT_GT(counter.thermal, 0u);
  EXPECT_GT(counter.appaware, 0u);
  EXPECT_GT(counter.hotplug, 0u);
  EXPECT_TRUE(counter.caps_seen);
  EXPECT_TRUE(counter.decision_seen);
  EXPECT_EQ(counter.appaware, engine->decisions().size());
}

TEST(MetricsObserver, MatchesNexusScenarioSummaries) {
  NexusRun run;
  run.app = workload::paperio();
  run.duration_s = 6.0;
  run.seed = 3;
  const NexusResult expected = run_nexus_app(run);

  std::unique_ptr<Engine> engine = make_nexus_engine(run);
  MetricsObserver tap;
  engine->add_observer(&tap);
  engine->run(run.duration_s);
  const RunMetrics m = tap.metrics(*engine);

  const SocSpec spec = platform::snapdragon810();
  ASSERT_EQ(m.temp_trace_c.size(), expected.temp_trace_c.size());
  for (std::size_t i = 0; i < m.temp_trace_c.size(); ++i) {
    EXPECT_EQ(m.temp_trace_c[i].second, expected.temp_trace_c[i].second);
  }
  EXPECT_EQ(m.peak_temp_c, expected.peak_temp_c);
  EXPECT_EQ(m.median_fps[0], expected.median_fps);
  EXPECT_EQ(m.mean_power_w, expected.mean_power_w);
  EXPECT_EQ(m.residency[spec.gpu()], expected.gpu_residency);
  EXPECT_EQ(m.residency[spec.big()], expected.big_residency);
  EXPECT_EQ(m.freqs_mhz[spec.big()], expected.big_freqs_mhz);
}

TEST(EngineRun, FractionalTicksCarryAcrossCalls) {
  EngineConfig cfg;
  cfg.seed = 5;
  auto whole = make_engine(cfg);
  auto sliced = make_engine(cfg);
  whole->add_app(workload::threedmark());
  sliced->add_app(workload::threedmark());

  whole->run(1.0);
  for (int i = 0; i < 20; ++i) {
    sliced->run(0.05);
  }
  EXPECT_DOUBLE_EQ(whole->now_s(), sliced->now_s());
  EXPECT_DOUBLE_EQ(whole->trace().duration_s(),
                   sliced->trace().duration_s());
  EXPECT_EQ(whole->network().max_temperature(),
            sliced->network().max_temperature());
  EXPECT_EQ(whole->total_power_w(), sliced->total_power_w());

  // Sub-tick slices accumulate instead of being dropped: 10 x 0.0001 s at
  // a 1 ms tick is exactly one tick.
  auto tiny = make_engine(cfg);
  for (int i = 0; i < 10; ++i) {
    tiny->run(0.0001);
  }
  EXPECT_DOUBLE_EQ(tiny->now_s(), 0.001);
}

}  // namespace
}  // namespace mobitherm::sim
