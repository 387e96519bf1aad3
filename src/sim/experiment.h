// Standard experiment scenarios shared by the benches and examples.
//
// run_nexus_app() reproduces the Sec. III methodology: one app on the
// Nexus 6P model for 140 s, with the default thermal governor either
// enabled (step_wise on the package sensor) or disabled.
//
// run_odroid() reproduces the Sec. IV-C methodology on the Odroid-XU3
// model: a realtime GPU benchmark, optionally a BML background task, under
// one of three policies — no thermal management, the kernel default
// (trip points + IPA), or the proposed application-aware governor.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/appaware.h"
#include "power/model.h"
#include "sim/engine.h"
#include "workload/app.h"

namespace mobitherm::sim {

enum class ThermalPolicy { kNone, kDefault, kProposed };

/// The boards' baseline (BSIM) leakage calibrations, as used by the paper
/// reproduction. power::ModelRegistry derives alternate model
/// parameterizations from these.
power::LeakageParams nexus_baseline_leakage();
power::LeakageParams odroid_baseline_leakage();

// --- Nexus 6P (Sec. III) --------------------------------------------------

struct NexusRun {
  workload::AppSpec app;
  bool throttling = true;
  double duration_s = 140.0;
  /// Device temperature at experiment start (the paper's traces begin
  /// around 36 degC — the phone is already warm from handling).
  double initial_temp_c = 36.0;
  std::uint64_t seed = 42;
  /// Leakage model parameterization; nullopt = the board's baseline
  /// calibration (nexus_baseline_leakage()).
  std::optional<power::LeakageParams> leakage;
};

struct NexusResult {
  /// (time s, control temperature degC), one point per 2 s like Fig. 1.
  std::vector<std::pair<double, double>> temp_trace_c;
  /// Time-in-state fractions over the run.
  std::vector<double> gpu_residency;
  std::vector<double> big_residency;
  std::vector<double> gpu_freqs_mhz;
  std::vector<double> big_freqs_mhz;
  double median_fps = 0.0;
  double mean_power_w = 0.0;
  double final_temp_c = 0.0;
  double peak_temp_c = 0.0;
};

/// Default step_wise configuration used for the Nexus runs.
governors::StepWiseGovernor::Config nexus_stepwise_config();

/// Build the fully wired Nexus engine for `run` without running it — the
/// scenario factory the batch runner (sim/batch.h) fans across seeds. The
/// app of interest is always app index 0.
std::unique_ptr<Engine> make_nexus_engine(const NexusRun& run);

/// Summarize an already-run Nexus engine (from make_nexus_engine or the
/// service registry) into the Sec. III result record.
NexusResult nexus_result_from(Engine& engine);

NexusResult run_nexus_app(const NexusRun& run);

// --- Odroid-XU3 (Sec. IV-C) ------------------------------------------------

struct OdroidRun {
  workload::AppSpec foreground;  // threedmark() or nenamark()
  bool with_bml = false;
  ThermalPolicy policy = ThermalPolicy::kDefault;
  double duration_s = 250.0;
  /// Board temperature at experiment start (Fig. 8 curves start ~50 degC).
  double initial_temp_c = 50.0;
  std::uint64_t seed = 42;
  /// Leakage model parameterization; nullopt = the board's baseline
  /// calibration (odroid_baseline_leakage()).
  std::optional<power::LeakageParams> leakage;
};

struct OdroidResult {
  /// (time s, max chip temperature degC).
  std::vector<std::pair<double, double>> max_temp_trace_c;
  /// Mean power per cluster rail over the run, cluster order (little, big,
  /// gpu, mem).
  std::vector<double> mean_rail_w;
  std::vector<std::string> rail_names;
  /// Mean foreground fps per phase index (GT1/GT2 for 3DMark, levels for
  /// Nenamark).
  std::vector<double> phase_fps;
  double median_fps = 0.0;
  double peak_temp_c = 0.0;
  std::size_t migrations = 0;
  /// Background work completed (BML progress), work units.
  double bml_work = 0.0;
};

/// Default IPA configuration used as the Odroid "default policy".
governors::IpaGovernor::Config odroid_ipa_config(
    const platform::SocSpec& spec);

/// Default proposed-governor configuration for the Odroid runs.
core::AppAwareConfig odroid_appaware_config(const platform::SocSpec& spec);

/// Build the fully wired Odroid engine for `run` without running it. The
/// foreground app is index 0; the BML background task, when enabled, is
/// index 1.
std::unique_ptr<Engine> make_odroid_engine(const OdroidRun& run);

/// Summarize an already-run Odroid engine into the Sec. IV-C result
/// record. `with_bml` must match how the engine was built (it selects
/// whether app index 1 exists and its progress is read back).
OdroidResult odroid_result_from(Engine& engine, bool with_bml);

OdroidResult run_odroid(const OdroidRun& run);

}  // namespace mobitherm::sim
