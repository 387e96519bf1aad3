// Application-aware thermal management (the paper's contribution, Sec. IV-B).
//
// Every control period (100 ms in the paper):
//  1. Estimate the dynamic power from the measured total power minus the
//     model leakage at the current temperature (1 s sliding window).
//  2. Run the power-temperature stability analysis: find the stable fixed
//     point of the dynamics at this power.
//  3. If the fixed-point temperature exceeds the thermal limit — or no
//     fixed point exists at all (runaway) — estimate the time until the
//     trajectory crosses the limit.
//  4. If that time is below the user-defined limit, a violation is
//     imminent: migrate the most power-hungry non-realtime process (by 1 s
//     windowed power) from the big cluster to the LITTLE cluster.
//
// Only the offending process is penalized; everything else keeps running
// at full speed — in contrast to the kernel policies in governors/thermal.h
// which cap every cluster. Processes with realtime requirements register
// themselves (via sched::ProcessSpec::realtime) and are never picked.
//
// Extension (off by default, matching the paper): migrate_back returns a
// previously migrated process to its original cluster once the predicted
// fixed point with its windowed power added back stays below the limit by
// a margin.
#pragma once

#include <optional>
#include <vector>

#include "sched/scheduler.h"
#include "stability/fixed_point.h"
#include "stability/trajectory.h"

namespace mobitherm::core {

struct AppAwareConfig {
  /// Governor invocation period (the paper repeats every 100 ms).
  double period_s = 0.1;
  /// Thermal limit the fixed point is checked against.
  double temp_limit_k = 348.15;  // 75 degC
  /// "User-defined limit" on the time to reach the fixed point.
  double time_limit_s = 20.0;
  /// Source / destination clusters for migration.
  std::size_t big_cluster = 1;
  std::size_t little_cluster = 0;
  /// Extension: allow migrating processes back when there is headroom.
  bool migrate_back = false;
  /// Headroom (K) below the limit required before migrating back.
  double migrate_back_margin_k = 5.0;
  /// Extension: instead of one victim per period, shed victims until the
  /// estimated remaining power fits the safe-power budget for the limit
  /// (stability::safe_power). The paper migrates one process per 100 ms;
  /// budget shedding reacts in a single period.
  bool shed_until_safe = false;
};

/// One control decision, for tracing and tests.
struct AppAwareDecision {
  stability::StabilityClass cls = stability::StabilityClass::kStable;
  double p_dyn_estimate_w = 0.0;
  double fixed_point_temp_k = 0.0;   // NaN if unstable
  double time_to_violation_s = 0.0;  // time until temp limit is crossed
  bool violation_predicted = false;
  std::optional<sched::Pid> migrated;        // to LITTLE (first victim)
  /// All victims migrated this period (== {migrated} unless
  /// shed_until_safe picked several).
  std::vector<sched::Pid> all_migrated;
  std::optional<sched::Pid> migrated_back;   // back to big (extension)
};

class AppAwareGovernor {
 public:
  AppAwareGovernor(AppAwareConfig config, stability::Params params);

  const char* name() const { return "app_aware"; }
  const AppAwareConfig& config() const { return config_; }

  /// Run one control step. `total_power_w` is the windowed measured total
  /// power; `temp_k` the current control temperature. Raw doubles: the
  /// engine hands over measured sensor magnitudes at this boundary.
  /// MOBILINT: raw-units-ok
  AppAwareDecision update(sched::Scheduler& scheduler, double total_power_w,
                          double temp_k);

  /// Processes this governor has parked on the LITTLE cluster.
  const std::vector<sched::Pid>& parked() const { return parked_; }

 private:
  // MOBILINT: raw-units-ok
  double estimate_dynamic_power(double total_power_w, double temp_k) const;

  AppAwareConfig config_;
  stability::Params params_;
  std::vector<sched::Pid> parked_;
};

}  // namespace mobitherm::core
