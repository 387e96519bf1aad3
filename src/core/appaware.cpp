#include "core/appaware.h"

#include <algorithm>
#include <cmath>

#include "stability/safety.h"
#include "thermal/lumped.h"
#include "util/error.h"
#include "util/log.h"

namespace mobitherm::core {

using stability::StabilityClass;

AppAwareGovernor::AppAwareGovernor(AppAwareConfig config,
                                   stability::Params params)
    : config_(config), params_(params) {
  if (config_.period_s <= 0.0 || config_.time_limit_s <= 0.0) {
    throw util::ConfigError("AppAwareGovernor: periods must be positive");
  }
  if (config_.big_cluster == config_.little_cluster) {
    throw util::ConfigError(
        "AppAwareGovernor: big and LITTLE clusters must differ");
  }
}

double AppAwareGovernor::estimate_dynamic_power(double total_power_w,
                                                double temp_k) const {
  const double leak =
      thermal::leakage_power(params_, util::kelvin(temp_k)).value();
  return std::max(0.0, total_power_w - leak);
}

AppAwareDecision AppAwareGovernor::update(sched::Scheduler& scheduler,
                                          double total_power_w,
                                          double temp_k) {
  AppAwareDecision d;
  d.p_dyn_estimate_w = estimate_dynamic_power(total_power_w, temp_k);

  const stability::FixedPointResult fp =
      stability::analyze(params_, d.p_dyn_estimate_w);
  d.cls = fp.cls;
  d.fixed_point_temp_k = fp.stable_temp_k;

  // A violation looms if the dynamics have no fixed point at all (runaway)
  // or the stable fixed point sits above the thermal limit.
  const bool limit_exceeded =
      fp.cls == StabilityClass::kUnstable ||
      fp.stable_temp_k > config_.temp_limit_k;

  if (limit_exceeded) {
    // Time until the trajectory crosses the limit itself: if that is less
    // than the user-defined limit, the violation is imminent.
    d.time_to_violation_s = stability::time_to_temperature(
        params_, d.p_dyn_estimate_w, temp_k, config_.temp_limit_k,
        /*horizon_s=*/10.0 * config_.time_limit_s);
    d.violation_predicted = d.time_to_violation_s <= config_.time_limit_s;
  } else {
    d.time_to_violation_s = stability::kNever;
    d.violation_predicted = false;
  }

  if (d.violation_predicted) {
    // Penalize only the most power-hungry non-realtime process(es).
    double shed_needed = 0.0;
    if (config_.shed_until_safe) {
      shed_needed = d.p_dyn_estimate_w -
                    stability::safe_power(params_, config_.temp_limit_k);
    }
    double shed_so_far = 0.0;
    do {
      const std::optional<sched::Pid> victim =
          scheduler.top_power_process(config_.big_cluster);
      if (!victim.has_value()) {
        break;
      }
      shed_so_far += scheduler.process(*victim).windowed_power_w();
      scheduler.migrate(*victim, config_.little_cluster);
      parked_.push_back(*victim);
      if (!d.migrated.has_value()) {
        d.migrated = victim;
      }
      d.all_migrated.push_back(*victim);
      MOBITHERM_INFO("appaware: migrated pid "
                     << *victim << " to LITTLE (fixed point "
                     << fp.stable_temp_k - 273.15 << " degC, t_violation "
                     << d.time_to_violation_s << " s)");
    } while (config_.shed_until_safe && shed_so_far < shed_needed);
  } else if (config_.migrate_back && !parked_.empty()) {
    // Extension: un-park the most recent victim if adding its windowed
    // power back keeps the fixed point comfortably below the limit.
    const sched::Pid candidate = parked_.back();
    const double extra = scheduler.process(candidate).windowed_power_w();
    const stability::FixedPointResult with_back =
        stability::analyze(params_, d.p_dyn_estimate_w + extra);
    if (with_back.cls != StabilityClass::kUnstable &&
        with_back.stable_temp_k + config_.migrate_back_margin_k <
            config_.temp_limit_k) {
      scheduler.migrate(candidate, config_.big_cluster);
      parked_.pop_back();
      d.migrated_back = candidate;
      MOBITHERM_INFO("appaware: migrated pid " << candidate
                                               << " back to big");
    }
  }
  return d;
}

}  // namespace mobitherm::core
