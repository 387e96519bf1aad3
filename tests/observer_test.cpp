// Observer-bus tests: passive observers never perturb the simulation
// (byte-identical traces with zero, one, N observers), the built-in
// instrumentation observers agree with the legacy engine accessors, and
// every event type fires when its source is wired.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "platform/presets.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/observers.h"
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
  std::size_t conflict_begin = 0;
  std::size_t conflict_end = 0;
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
  void on_thermal_event(const ThermalEvent& e) override {
    if (e.kind == ThermalEvent::Kind::kConflictBegin) {
      ++conflict_begin;
    } else {
      ++conflict_end;
    }
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Serialize a trace to bytes via both CSV exporters.
std::string trace_bytes(const Engine& engine, const std::string& tag) {
  const std::string ts = ::testing::TempDir() + "obs_" + tag + "_ts.csv";
  const std::string rs = ::testing::TempDir() + "obs_" + tag + "_res.csv";
  std::vector<std::string> clusters;
  for (std::size_t c = 0; c < engine.soc().num_clusters(); ++c) {
    clusters.push_back(engine.soc().cluster(c).name);
  }
  engine.trace().write_timeseries_csv(ts, clusters, {"app"});
  std::vector<double> freqs;
  for (const platform::OperatingPoint& p : engine.soc().cluster(0).opps) {
    freqs.push_back(p.freq_hz.value());
  }
  engine.trace().write_residency_csv(rs, 0, freqs);
  const std::string bytes = slurp(ts) + "\x1e" + slurp(rs);
  std::remove(ts.c_str());
  std::remove(rs.c_str());
  return bytes;
}

TEST(ObserverBus, TraceByteIdenticalWithZeroOneManyObservers) {
  EngineConfig cfg;
  cfg.seed = 11;
  auto run_with = [&](int observers) {
    auto engine = make_engine(cfg);
    add_hot_stepwise(*engine);
    engine->add_app(workload::threedmark());
    MetricsObserver metrics;
    CountingObserver a;
    CountingObserver b;
    if (observers >= 1) {
      engine->add_observer(&metrics);
    }
    if (observers >= 3) {
      engine->add_observer(&a);
      engine->add_observer(&b);
    }
    engine->run(3.0);
    return trace_bytes(*engine, "n" + std::to_string(observers));
  };
  const std::string zero = run_with(0);
  const std::string one = run_with(1);
  const std::string many = run_with(3);
  EXPECT_EQ(zero, one);
  EXPECT_EQ(zero, many);
}

TEST(ObserverBus, ExternalBuiltinsMatchLegacyAccessors) {
  auto engine = make_engine();
  add_hot_stepwise(*engine);
  const std::size_t n = engine->soc().num_clusters();
  ConflictAccountingObserver conflicts(n);
  DvfsTransitionCounter dvfs(n);
  engine->add_observer(&conflicts);
  engine->add_observer(&dvfs);
  engine->add_app(workload::bml());
  engine->run(5.0);

  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_DOUBLE_EQ(conflicts.time_s(c), engine->conflict_time_s(c));
    EXPECT_EQ(dvfs.transitions(c), engine->dvfs_transitions(c));
  }
  const std::size_t big = engine->soc().spec().big();
  EXPECT_GT(engine->conflict_time_s(big), 0.0);
  EXPECT_GE(engine->dvfs_transitions(big), 1u);
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
  EXPECT_GE(counter.conflict_begin, counter.conflict_end);
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

  // Live per-tick statistics: the true peak can only exceed the decimated
  // trace's peak, and every tick was observed.
  EXPECT_GE(tap.live_peak_temp_c(), m.peak_temp_c);
  EXPECT_EQ(tap.ticks_observed(), 6000u);
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
