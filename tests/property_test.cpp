// Randomized property tests across module boundaries. Each property runs
// over a parameterized sweep of seeds/configurations (TEST_P), checking
// invariants that must hold for *any* input, not just the presets:
//
//  * thermal: random RC topologies are SPD, converge to their steady
//    state, and conserve heat flow;
//  * scheduler: allocation is work-conserving and never exceeds capacity
//    or per-process parallelism;
//  * stability: calibration round-trips random feasible targets; analyze()
//    and the ODE integrator agree on the fixed point;
//  * engine: energy accounting is consistent between rails and the DAQ.
#include <gtest/gtest.h>

#include <cmath>

#include "platform/presets.h"
#include "sched/scheduler.h"
#include "sim/engine.h"
#include "stability/calibrate.h"
#include "stability/fixed_point.h"
#include "stability/presets.h"
#include "stability/trajectory.h"
#include "thermal/network.h"
#include "thermal/presets.h"
#include "util/rng.h"
#include "workload/rate_trace.h"

namespace mobitherm {
namespace {

// --- random thermal networks ---------------------------------------------------

thermal::ThermalNetworkSpec random_network(util::Xorshift64Star& rng,
                                           std::size_t nodes) {
  thermal::ThermalNetworkSpec spec;
  spec.t_ambient_k = util::kelvin(rng.uniform(280.0, 310.0));
  for (std::size_t i = 0; i < nodes; ++i) {
    spec.nodes.push_back(
        {"n" + std::to_string(i),
         util::joules_per_kelvin(rng.uniform(0.1, 5.0)),
         util::watts_per_kelvin(rng.uniform() < 0.5
                                    ? rng.uniform(0.001, 0.1)
                                    : 0.0)});
  }
  // Ensure at least one ground.
  spec.nodes.back().g_ambient_w_per_k =
      util::watts_per_kelvin(rng.uniform(0.02, 0.2));
  // Spanning chain keeps the network connected; extra random links.
  for (std::size_t i = 1; i < nodes; ++i) {
    spec.links.push_back(
        {i - 1, i, util::watts_per_kelvin(rng.uniform(0.05, 1.0))});
  }
  for (std::size_t extra = 0; extra < nodes; ++extra) {
    const std::size_t a = rng.below(nodes);
    const std::size_t b = rng.below(nodes);
    if (a != b) {
      spec.links.push_back(
          {a, b, util::watts_per_kelvin(rng.uniform(0.05, 1.0))});
    }
  }
  return spec;
}

class RandomNetwork : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetwork, ConvergesToSteadyStateAndConservesHeat) {
  util::Xorshift64Star rng(4000 + GetParam());
  const std::size_t nodes = 2 + rng.below(6);
  const thermal::ThermalNetworkSpec spec = random_network(rng, nodes);
  thermal::ThermalNetwork net(spec);

  linalg::Vector power(nodes, 0.0);
  double total_power = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    power[i] = rng.uniform(0.0, 2.0);
    total_power += power[i];
  }
  const linalg::Vector ss = net.steady_state(power);

  // All steady temperatures above ambient (positive injection).
  for (double t : ss) {
    EXPECT_GE(t, spec.t_ambient_k.value() - 1e-9);
  }

  // Global heat balance: ambient outflow equals total injection.
  double outflow = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    outflow += spec.nodes[i].g_ambient_w_per_k.value() *
               (ss[i] - spec.t_ambient_k.value());
  }
  EXPECT_NEAR(outflow, total_power, 1e-6 * (1.0 + total_power));

  // Time stepping converges to the same point (exact integrator, big
  // steps are fine).
  for (int i = 0; i < 200; ++i) {
    net.step(power, net.slowest_time_constant() / 4.0);
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_NEAR(net.temperatures()[i], ss[i], 1e-6);
  }
}

TEST_P(RandomNetwork, ExactAndRk4AgreeOnRandomTopologies) {
  util::Xorshift64Star rng(4100 + GetParam());
  const std::size_t nodes = 2 + rng.below(4);
  const thermal::ThermalNetworkSpec spec = random_network(rng, nodes);
  thermal::ThermalNetwork exact(spec, thermal::StepMethod::kExact);
  thermal::ThermalNetwork rk4(spec, thermal::StepMethod::kRk4);
  linalg::Vector power(nodes, 0.0);
  for (std::size_t i = 0; i < nodes; ++i) {
    power[i] = rng.uniform(0.0, 1.5);
  }
  for (int i = 0; i < 100; ++i) {
    exact.step(power, util::seconds(0.1));
    rk4.step(power, util::seconds(0.1));
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    EXPECT_NEAR(exact.temperatures()[i], rk4.temperatures()[i], 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetwork, ::testing::Range(0, 20));

// --- scheduler invariants ---------------------------------------------------------

class RandomScheduling : public ::testing::TestWithParam<int> {};

TEST_P(RandomScheduling, WorkConservingAndBounded) {
  util::Xorshift64Star rng(5000 + GetParam());
  const platform::SocSpec spec = platform::exynos5422();
  platform::Soc soc(spec);
  sched::Scheduler scheduler(spec);

  // Random DVFS state.
  for (std::size_t c = 0; c < soc.num_clusters(); ++c) {
    soc.set_opp(c, rng.below(spec.clusters[c].opps.size()));
  }
  // Random processes with random demands.
  const int nproc = 1 + static_cast<int>(rng.below(8));
  std::vector<sched::Pid> pids;
  for (int i = 0; i < nproc; ++i) {
    sched::ProcessSpec ps;
    ps.name = "p" + std::to_string(i);
    ps.threads = 1 + static_cast<int>(rng.below(4));
    const std::size_t cluster = rng.uniform() < 0.5 ? spec.big()
                                                    : spec.little();
    const sched::Pid pid = scheduler.spawn(ps, cluster);
    scheduler.process(pid).set_demand_rate(rng.uniform(0.0, 2.0e10));
    pids.push_back(pid);
  }
  scheduler.allocate(soc, 0.01);

  for (std::size_t c = 0; c < soc.num_clusters(); ++c) {
    // Never exceed cluster capacity.
    EXPECT_LE(scheduler.cluster_busy_cores(c),
              soc.state(c).online_cores + 1e-9);
    EXPECT_LE(scheduler.governor_utilization(c), 1.0 + 1e-9);
    EXPECT_GE(scheduler.governor_utilization(c), 0.0);
  }
  for (sched::Pid pid : pids) {
    const sched::Process& p = scheduler.process(pid);
    // Granted never exceeds demand or the parallelism cap.
    EXPECT_LE(p.granted_rate(), p.demand_rate() + 1e-6);
    const double cap =
        soc.per_core_rate(p.cluster()) *
        std::min(p.spec().threads, soc.state(p.cluster()).online_cores);
    EXPECT_LE(p.granted_rate(), cap + 1e-6);
  }

  // Work conservation: if any process on a cluster is throttled below its
  // cap, the cluster must be fully busy.
  for (std::size_t c = 0; c < soc.num_clusters(); ++c) {
    bool someone_throttled = false;
    for (sched::Pid pid : pids) {
      const sched::Process& p = scheduler.process(pid);
      if (p.cluster() != c) {
        continue;
      }
      const double cap =
          soc.per_core_rate(c) *
          std::min(p.spec().threads, soc.state(c).online_cores);
      if (p.granted_rate() + 1e-3 < std::min(p.demand_rate(), cap)) {
        someone_throttled = true;
      }
    }
    if (someone_throttled) {
      EXPECT_NEAR(scheduler.cluster_busy_cores(c),
                  soc.state(c).online_cores, 1e-6)
          << "cluster " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScheduling, ::testing::Range(0, 30));

// --- stability round trips -----------------------------------------------------------

class RandomCalibration : public ::testing::TestWithParam<int> {};

TEST_P(RandomCalibration, RoundTripsFeasibleTargets) {
  util::Xorshift64Star rng(6000 + GetParam());
  // Build targets from a *known* model so they are feasible by
  // construction: pick parameters, then measure the quantities.
  stability::Params truth;
  truth.t_ambient_k = util::kelvin(rng.uniform(288.0, 308.0));
  truth.g_w_per_k = util::watts_per_kelvin(rng.uniform(0.03, 0.3));
  truth.leak_theta_k = util::kelvin(rng.uniform(1200.0, 3000.0));
  truth.leak_a_w_per_k2 = util::watts_per_kelvin2(rng.uniform(5e-4, 5e-3));
  truth.c_j_per_k = util::joules_per_kelvin(rng.uniform(2.0, 10.0));

  const double p_crit = stability::critical_power(truth, 1000.0);
  if (p_crit < 0.5) {
    GTEST_SKIP() << "drawn parameters are runaway-prone even near idle";
  }
  const double p_obs = rng.uniform(0.2, 0.7) * p_crit;

  stability::CalibrationTargets targets;
  targets.t_ambient_k = truth.t_ambient_k.value();
  targets.p_observed_w = p_obs;
  targets.t_stable_k = stability::stable_temperature(truth, p_obs);
  targets.p_critical_w = p_crit;
  targets.t_critical_k =
      stability::analyze(truth, p_crit, 1e-4).stable_temp_k;

  // The observables under-determine (G, A, theta) — several parameter
  // sets share the same steady point and runaway boundary — so the
  // meaningful round-trip property is that the calibrated model
  // reproduces every *observable*, not the hidden parameters.
  const stability::Params fit = stability::calibrate(targets, truth.c_j_per_k.value());
  EXPECT_NEAR(stability::stable_temperature(fit, p_obs), targets.t_stable_k,
              0.1);
  EXPECT_NEAR(stability::critical_power(fit, 1000.0), p_crit,
              0.01 * p_crit);
  const stability::FixedPointResult crit =
      stability::analyze(fit, p_crit, 1e-4);
  EXPECT_NEAR(crit.stable_temp_k, targets.t_critical_k,
              0.02 * targets.t_critical_k);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCalibration, ::testing::Range(0, 20));

class RandomStability : public ::testing::TestWithParam<int> {};

TEST_P(RandomStability, AnalyzerAgreesWithOdeIntegration) {
  util::Xorshift64Star rng(7000 + GetParam());
  stability::Params p;
  p.t_ambient_k = util::kelvin(rng.uniform(288.0, 308.0));
  p.g_w_per_k = util::watts_per_kelvin(rng.uniform(0.05, 0.25));
  p.leak_theta_k = util::kelvin(rng.uniform(1400.0, 2600.0));
  p.leak_a_w_per_k2 = util::watts_per_kelvin2(rng.uniform(5e-4, 4e-3));
  p.c_j_per_k = util::joules_per_kelvin(rng.uniform(2.0, 8.0));

  const double p_crit = stability::critical_power(p, 1000.0);
  if (p_crit < 0.5) {
    GTEST_SKIP() << "drawn parameters are runaway-prone even near idle";
  }
  const double power = rng.uniform(0.1, 0.8) * p_crit;
  const stability::FixedPointResult r = stability::analyze(p, power);
  ASSERT_EQ(r.cls, stability::StabilityClass::kStable);

  // Integrate the ODE from ambient: it must land on the analyzer's stable
  // fixed point.
  const double settled = stability::temperature_after(
      p, power, p.t_ambient_k.value(),
      (100.0 * p.c_j_per_k / p.g_w_per_k).value());
  EXPECT_NEAR(settled, r.stable_temp_k, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStability, ::testing::Range(0, 25));

// --- engine energy consistency --------------------------------------------------------

class RandomEngineRun : public ::testing::TestWithParam<int> {};

TEST_P(RandomEngineRun, RailEnergyMatchesDaqWithinNoise) {
  const stability::Params p = stability::odroid_xu3_params();
  sim::EngineConfig cfg;
  cfg.seed = 8000 + GetParam();
  cfg.enable_daq = true;
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k,
                                          p.leak_a_w_per_k2},
                     0.25, cfg);
  const auto trace = workload::synthetic_rate_trace(cfg.seed, 15, 4.0e9,
                                                    3.0e8, 0.5);
  engine.add_app(workload::trace_to_app("w", trace));
  engine.run(10.0);

  // DAQ mean == rails mean + board base, within sensor noise.
  double rails = 0.0;
  for (std::size_t c = 0; c < engine.soc().num_clusters(); ++c) {
    rails += engine.trace().mean_rail_power_w(c);
  }
  ASSERT_NE(engine.daq(), nullptr);
  EXPECT_NEAR(engine.daq()->mean_power_w(), rails + 0.25, 0.05);
  // Physical sanity: power is positive and bounded for this platform.
  EXPECT_GT(rails, 0.1);
  EXPECT_LT(rails, 20.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEngineRun, ::testing::Range(0, 8));

}  // namespace
}  // namespace mobitherm
