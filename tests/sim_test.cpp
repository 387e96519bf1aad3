// Tests for the simulation engine (including DVFS transition costs and
// input boost) and the trace recorder.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "platform/presets.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
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

TEST(Engine, StartsAtAmbientAndMaxOpp) {
  auto engine = make_engine();
  EXPECT_NEAR(engine->network().temperature(0).value(), 298.15, 1e-9);
  for (std::size_t c = 0; c < engine->soc().num_clusters(); ++c) {
    EXPECT_EQ(engine->soc().state(c).opp_index,
              engine->soc().cluster(c).opps.max_index());
  }
}

TEST(Engine, IdleSystemStaysNearAmbient) {
  auto engine = make_engine();
  engine->run(20.0);
  // Idle + board power only: a couple of kelvin above ambient at most.
  EXPECT_LT(engine->network().max_temperature().value(), 298.15 + 15.0);
  EXPECT_GT(engine->network().max_temperature().value(), 298.15);
}

TEST(Engine, LoadHeatsTheSoc) {
  auto engine = make_engine();
  engine->add_app(workload::threedmark());
  engine->run(30.0);
  EXPECT_GT(engine->network().max_temperature().value(),
            celsius_to_kelvin(40.0));
  EXPECT_GT(engine->total_power_w(), 2.0);
}

TEST(Engine, SetInitialTemperaturePrimesEverything) {
  auto engine = make_engine();
  engine->set_initial_temperature(celsius_to_kelvin(50.0));
  EXPECT_NEAR(engine->network().temperature(0).value(),
              celsius_to_kelvin(50.0),
              1e-9);
  EXPECT_NEAR(engine->control_temp_k(), celsius_to_kelvin(50.0), 1e-9);
}

TEST(Engine, AppAccessorsValidate) {
  auto engine = make_engine();
  EXPECT_THROW(engine->app(0), ConfigError);
  const std::size_t i = engine->add_app(workload::bml());
  EXPECT_EQ(i, 0u);
  EXPECT_NO_THROW(engine->app(0));
  EXPECT_THROW(engine->set_cpufreq_governor(99, nullptr), ConfigError);
  EXPECT_THROW(engine->set_cpufreq_governor(0, nullptr), ConfigError);
}

TEST(Engine, ResidencyAccountsAllTime) {
  auto engine = make_engine();
  engine->add_app(workload::threedmark());
  engine->run(10.0);
  for (std::size_t c = 0; c < engine->soc().num_clusters(); ++c) {
    double total = 0.0;
    for (double s : engine->trace().residency_s(c)) {
      total += s;
    }
    EXPECT_NEAR(total, 10.0, 1e-6) << "cluster " << c;
  }
  EXPECT_NEAR(engine->trace().duration_s(), 10.0, 1e-6);
}

TEST(Engine, TracePointsEveryHundredMilliseconds) {
  auto engine = make_engine();
  engine->run(10.0);
  EXPECT_EQ(engine->trace().points().size(), 100u);
  // Time stamps are increasing.
  const auto& pts = engine->trace().points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].t_s, pts[i - 1].t_s);
  }
}

TEST(Engine, RailEnergyMatchesMeanPower) {
  auto engine = make_engine();
  engine->add_app(workload::threedmark());
  engine->run(10.0);
  double rail_total = 0.0;
  for (std::size_t c = 0; c < engine->soc().num_clusters(); ++c) {
    rail_total += engine->trace().mean_rail_power_w(c);
  }
  // Rails exclude the board base power.
  EXPECT_GT(rail_total, 1.0);
  EXPECT_NEAR(rail_total + 0.25, engine->windowed_power_w(), 1.0);
}

TEST(Engine, UserspaceGovernorPinsTopOpp) {
  auto engine = make_engine();
  const std::size_t big = engine->soc().spec().big();
  const std::size_t top = engine->soc().cluster(big).opps.max_index();
  engine->set_cpufreq_governor(big,
                               std::make_unique<governors::Userspace>(top));
  engine->add_app(workload::bml());
  engine->run(1.0);
  EXPECT_EQ(engine->soc().state(big).opp_index, top);
}

TEST(Engine, UserspaceGovernorPinsBottomOpp) {
  auto engine = make_engine();
  const std::size_t big = engine->soc().spec().big();
  engine->set_cpufreq_governor(big,
                               std::make_unique<governors::Userspace>(0));
  engine->add_app(workload::bml());
  engine->run(1.0);
  EXPECT_EQ(engine->soc().state(big).opp_index, 0u);
}

TEST(Engine, InteractiveRampsUpUnderLoad) {
  auto engine = make_engine();
  const std::size_t big = engine->soc().spec().big();
  engine->add_app(workload::bml());  // saturates one big core
  engine->run(2.0);
  EXPECT_GT(engine->soc().frequency_hz(big).value(),
            util::mhz_to_hz(1500.0));
}

TEST(Engine, InteractiveIdlesAtLowestOppWithoutLoad) {
  auto engine = make_engine();
  engine->run(5.0);
  const std::size_t big = engine->soc().spec().big();
  EXPECT_EQ(engine->soc().state(big).opp_index, 0u);
}

TEST(Engine, ThermalGovernorCapsDvfs) {
  auto engine = make_engine();
  const SocSpec spec = platform::exynos5422();
  // A zone that is always tripped caps the big cluster hard.
  governors::StepWiseGovernor::Config cfg;
  governors::StepWiseGovernor::Zone z;
  z.cluster = spec.big();
  z.sensor_node = spec.clusters[spec.big()].thermal_node;
  z.trip_k = util::kelvin(0.0);  // always above trip
  z.steps_per_state = 4;
  cfg.zones = {z};
  cfg.polling_period_s = util::seconds(0.1);
  engine->set_thermal_governor(
      std::make_unique<governors::StepWiseGovernor>(spec, cfg));
  engine->add_app(workload::bml());
  engine->run(5.0);
  EXPECT_EQ(engine->soc().state(spec.big()).opp_index, 0u);
}

/// Counts governor decisions per kind, and cpufreq decisions per cluster.
struct DecisionCounter : SimObserver {
  std::vector<std::size_t> cpufreq;
  std::size_t thermal = 0;
  explicit DecisionCounter(std::size_t clusters) : cpufreq(clusters, 0) {}
  void on_governor_decision(const GovernorDecisionEvent& e) override {
    if (e.kind == GovernorKind::kCpufreq) {
      ++cpufreq.at(e.cluster);
    } else if (e.kind == GovernorKind::kThermal) {
      ++thermal;
    }
  }
};

TEST(Engine, GovernorPeriodsAreTheAttachedGovernors) {
  auto engine = make_engine();
  const SocSpec spec = platform::exynos5422();
  // Replace the big cluster's default interactive governor (20 ms) with a
  // 30 ms ondemand, and attach a 250 ms step_wise thermal governor.
  governors::Ondemand::Config od;
  od.sampling_period_s = util::seconds(0.03);
  engine->set_cpufreq_governor(spec.big(),
                               std::make_unique<governors::Ondemand>(od));
  governors::StepWiseGovernor::Config sw =
      governors::StepWiseGovernor::uniform(spec, util::kelvin(400.0));
  sw.polling_period_s = util::seconds(0.25);
  engine->set_thermal_governor(
      std::make_unique<governors::StepWiseGovernor>(spec, sw));
  DecisionCounter counter(spec.clusters.size());
  engine->add_observer(&counter);
  engine->add_app(workload::threedmark());
  engine->run(10.0);
  // Decisions fire when the accumulated 1 ms ticks reach the period.
  EXPECT_EQ(counter.cpufreq[spec.big()], 333u);
  EXPECT_EQ(counter.cpufreq[spec.little()], 500u);  // interactive, 20 ms
  EXPECT_EQ(counter.cpufreq[spec.gpu()], 200u);     // ondemand, 50 ms
  EXPECT_EQ(counter.thermal, 40u);
}

TEST(Engine, AppAwareDecisionsAreRecorded) {
  auto engine = make_engine();
  const SocSpec spec = platform::exynos5422();
  core::AppAwareConfig cfg;
  cfg.big_cluster = spec.big();
  cfg.little_cluster = spec.little();
  cfg.temp_limit_k = celsius_to_kelvin(85.0);
  engine->set_appaware_governor(std::make_unique<core::AppAwareGovernor>(
      cfg, stability::odroid_xu3_params()));
  engine->add_app(workload::bml());
  engine->run(1.0);
  // 100 ms period over 1 s -> ~10 decisions.
  EXPECT_NEAR(static_cast<double>(engine->decisions().size()), 10.0, 2.0);
}

TEST(Engine, MemoryActivityFollowsLoad) {
  auto engine = make_engine();
  const std::size_t mem =
      engine->soc().spec().index_of_kind(platform::ResourceKind::kMemory);
  engine->run(2.0);
  const double idle_mem = engine->trace().mean_rail_power_w(mem);

  auto loaded = make_engine();
  loaded->add_app(workload::threedmark());
  loaded->run(2.0);
  EXPECT_GT(loaded->trace().mean_rail_power_w(mem), idle_mem);
}

TEST(Engine, DeterministicAcrossRuns) {
  EngineConfig cfg;
  cfg.seed = 7;
  auto a = make_engine(cfg);
  auto b = make_engine(cfg);
  a->add_app(workload::threedmark());
  b->add_app(workload::threedmark());
  a->run(5.0);
  b->run(5.0);
  EXPECT_DOUBLE_EQ(a->network().max_temperature().value(),
                   b->network().max_temperature().value());
  EXPECT_DOUBLE_EQ(a->total_power_w(), b->total_power_w());
  EXPECT_DOUBLE_EQ(a->app(0).total_frames(), b->app(0).total_frames());
}

TEST(Engine, DaqOnlyWhenEnabled) {
  auto off = make_engine();
  EXPECT_EQ(off->daq(), nullptr);
  EngineConfig cfg;
  cfg.enable_daq = true;
  auto on = make_engine(cfg);
  on->run(0.5);
  ASSERT_NE(on->daq(), nullptr);
  EXPECT_GT(on->daq()->num_samples(), 400u);
}

// --- DVFS transitions and the capacity penalty ------------------------------

TEST(DvfsCost, TransitionsAreCounted) {
  auto engine = make_engine();
  engine->add_app(workload::threedmark());
  engine->run(5.0);
  const std::size_t big = engine->soc().spec().big();
  // The interactive governor moves at least once off the boot OPP.
  EXPECT_GE(engine->dvfs_transitions(big), 1u);
  EXPECT_THROW(engine->dvfs_transitions(99), ConfigError);
}

TEST(DvfsCost, PenaltyValidation) {
  sched::Scheduler sched(platform::exynos5422());
  EXPECT_THROW(sched.set_capacity_penalty(99, 0.5), ConfigError);
  EXPECT_THROW(sched.set_capacity_penalty(0, 1.5), ConfigError);
}

// --- Trace ------------------------------------------------------------------

TEST(Trace, ValidatesIndices) {
  Trace trace(2, {3, 4});
  // The message of the ConfigError `call` throws.
  const auto message = [](auto call) -> std::string {
    try {
      call();
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "no ConfigError";
  };
  EXPECT_EQ(message([&] { trace.add_residency(2, 0, 1.0); }),
            "Trace: residency index out of range");
  EXPECT_EQ(message([&] { trace.add_residency(0, 3, 1.0); }),
            "Trace: residency index out of range");
  EXPECT_EQ(message([&] { trace.add_residency(1, 4, 1.0); }),
            "Trace: residency index out of range");
  EXPECT_EQ(message([&] { trace.add_rail_energy(2, 1.0); }),
            "Trace: rail index out of range");
  EXPECT_EQ(message([&] { trace.mean_rail_power_w(2); }),
            "Trace: rail index out of range");
  EXPECT_THROW(trace.residency_s(2), ConfigError);
  EXPECT_THROW(Trace(2, {3}), ConfigError);
}

TEST(Trace, ResidencyFractionsNormalize) {
  Trace trace(1, {3});
  trace.add_residency(0, 0, 1.0);
  trace.add_residency(0, 2, 3.0);
  const std::vector<double> frac = trace.residency_fraction(0);
  EXPECT_NEAR(frac[0], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(frac[1], 0.0);
  EXPECT_NEAR(frac[2], 0.75, 1e-12);
}

TEST(Metrics, OnePassPhaseFpsEqualsThePerPhaseReference) {
  // A few long phases, one phase, phases that recur within the run, and
  // thousands of one-second phases of which the run reaches only 30.
  for (const workload::AppSpec& spec :
       {workload::threedmark(), workload::paperio(),
        workload::nenamark(6, 15.0), workload::nenamark(4096, 1.0)}) {
    auto engine = make_engine();
    engine->add_app(spec);
    engine->run(30.0);
    const workload::AppInstance& app = engine->app(0);
    const double duration = engine->trace().duration_s();
    const std::vector<double> all = phase_mean_fps_all(app, duration);
    ASSERT_EQ(all.size(), spec.phases.size()) << spec.name;
    for (std::size_t ph = 0; ph < all.size(); ++ph) {
      EXPECT_EQ(all[ph], phase_mean_fps(app, ph, duration))
          << spec.name << " phase " << ph;
    }
  }
}

}  // namespace
}  // namespace mobitherm::sim
