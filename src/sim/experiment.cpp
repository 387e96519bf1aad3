#include "sim/experiment.h"

#include <cmath>

#include "platform/presets.h"
#include "sim/metrics.h"
#include "stability/presets.h"
#include "thermal/presets.h"
#include "util/units.h"
#include "workload/presets.h"

namespace mobitherm::sim {

using platform::SocSpec;

power::LeakageParams nexus_baseline_leakage() {
  return power::LeakageParams{stability::nexus6p_params().leak_theta_k,
                              stability::nexus6p_params().leak_a_w_per_k2};
}

power::LeakageParams odroid_baseline_leakage() {
  return power::LeakageParams{stability::odroid_xu3_params().leak_theta_k,
                              stability::odroid_xu3_params().leak_a_w_per_k2};
}

governors::StepWiseGovernor::Config nexus_stepwise_config() {
  // Per-sensor zones as on the Snapdragon: the CPU zones trip lower than
  // the GPU zone (tuned so Amazon-class CPU apps throttle near 39-40 degC
  // while games settle near 41-42 degC as in Figs. 1/3/5).
  const platform::SocSpec spec = platform::snapdragon810();
  governors::StepWiseGovernor::Config cfg;
  cfg.polling_period_s = util::seconds(1.0);
  using Zone = governors::StepWiseGovernor::Zone;
  Zone little;
  little.cluster = spec.little();
  little.sensor_node = spec.clusters[spec.little()].thermal_node;
  little.trip_k = util::celsius(39.0);
  little.hysteresis_k = util::kelvin(1.5);
  little.steps_per_state = 2;
  Zone big = little;
  big.cluster = spec.big();
  big.sensor_node = spec.clusters[spec.big()].thermal_node;
  Zone gpu;
  gpu.cluster = spec.gpu();
  gpu.sensor_node = spec.clusters[spec.gpu()].thermal_node;
  gpu.trip_k = util::celsius(41.0);
  gpu.hysteresis_k = util::kelvin(1.5);
  gpu.steps_per_state = 1;
  cfg.zones = {little, big, gpu};
  return cfg;
}

std::unique_ptr<Engine> make_nexus_engine(const NexusRun& run) {
  const SocSpec spec = platform::snapdragon810();
  EngineConfig cfg;
  cfg.seed = run.seed;
  cfg.enable_daq = true;
  auto engine = std::make_unique<Engine>(
      spec, thermal::nexus6p_network(),
      run.leakage.value_or(nexus_baseline_leakage()),
      /*board_base_w=*/0.3, cfg);

  engine->set_initial_temperature(
      util::celsius_to_kelvin(run.initial_temp_c));
  if (run.throttling) {
    engine->set_thermal_governor(
        std::make_unique<governors::StepWiseGovernor>(
            spec, nexus_stepwise_config()));
  }
  engine->add_app(run.app);
  return engine;
}

NexusResult nexus_result_from(Engine& engine) {
  const SocSpec& spec = engine.soc().spec();
  const RunMetrics m = summarize_run(engine);
  NexusResult result;
  result.temp_trace_c = m.temp_trace_c;
  result.peak_temp_c = m.peak_temp_c;
  result.final_temp_c = m.final_temp_c;
  const std::size_t gpu = spec.gpu();
  const std::size_t big = spec.big();
  result.gpu_residency = m.residency[gpu];
  result.big_residency = m.residency[big];
  result.gpu_freqs_mhz = m.freqs_mhz[gpu];
  result.big_freqs_mhz = m.freqs_mhz[big];
  result.median_fps = m.median_fps[0];
  result.mean_power_w = m.mean_power_w;
  return result;
}

NexusResult run_nexus_app(const NexusRun& run) {
  std::unique_ptr<Engine> engine = make_nexus_engine(run);
  engine->run(run.duration_s);
  return nexus_result_from(*engine);
}

governors::IpaGovernor::Config odroid_ipa_config(const SocSpec& spec) {
  // Kernel defaults run hot: the exynos trip ladder only bites in the
  // 90-100 degC range, which is why Fig. 8's default-policy curve rises
  // toward ~95 degC before settling.
  governors::IpaGovernor::Config cfg;
  cfg.control_temp_k = util::celsius(95.0);
  cfg.sustainable_power_w = util::watts(2.4);
  cfg.k_pu = util::watts_per_kelvin(0.50);
  cfg.k_po = util::watts_per_kelvin(0.85);
  cfg.actors = {spec.big(), spec.gpu()};
  return cfg;
}

core::AppAwareConfig odroid_appaware_config(const SocSpec& spec) {
  core::AppAwareConfig cfg;
  cfg.period_s = 0.1;
  cfg.temp_limit_k = util::celsius_to_kelvin(85.0);
  cfg.time_limit_s = 60.0;
  cfg.big_cluster = spec.big();
  cfg.little_cluster = spec.little();
  return cfg;
}

std::unique_ptr<Engine> make_odroid_engine(const OdroidRun& run) {
  const SocSpec spec = platform::exynos5422();
  EngineConfig cfg;
  cfg.seed = run.seed;
  auto engine = std::make_unique<Engine>(
      spec, thermal::odroidxu3_network(),
      run.leakage.value_or(odroid_baseline_leakage()),
      /*board_base_w=*/0.25, cfg);

  engine->set_initial_temperature(
      util::celsius_to_kelvin(run.initial_temp_c));
  switch (run.policy) {
    case ThermalPolicy::kNone:
      break;
    case ThermalPolicy::kDefault:
      engine->set_thermal_governor(std::make_unique<governors::IpaGovernor>(
          spec, odroid_ipa_config(spec)));
      break;
    case ThermalPolicy::kProposed:
      engine->set_appaware_governor(std::make_unique<core::AppAwareGovernor>(
          odroid_appaware_config(spec), stability::odroid_xu3_params()));
      break;
  }

  engine->add_app(run.foreground);
  if (run.with_bml) {
    engine->add_app(workload::bml());
  }
  return engine;
}

OdroidResult odroid_result_from(Engine& engine, bool with_bml) {
  const std::size_t fg = 0;
  const RunMetrics m = summarize_run(engine);
  OdroidResult result;
  result.max_temp_trace_c = m.temp_trace_c;
  result.peak_temp_c = m.peak_temp_c;
  result.mean_rail_w = m.mean_rail_w;
  result.rail_names = m.rail_names;
  result.phase_fps = m.phase_fps[fg];
  result.median_fps = m.median_fps[fg];
  for (const auto& [t, d] : engine.decisions()) {
    if (d.migrated.has_value()) {
      ++result.migrations;
    }
  }
  if (with_bml) {
    result.bml_work = engine.scheduler()
                          .process(engine.app(1).cpu_pid())
                          .completed_work();
  }
  return result;
}

OdroidResult run_odroid(const OdroidRun& run) {
  std::unique_ptr<Engine> engine = make_odroid_engine(run);
  engine->run(run.duration_s);
  return odroid_result_from(*engine, run.with_bml);
}

}  // namespace mobitherm::sim
