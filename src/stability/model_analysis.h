// Fixed-point / stability analysis re-derived per leakage model.
//
// Sec. IV-A's analysis (fixed_point.h) is specific to the BSIM quadratic
// leakage A T^2 e^{-theta/T}: its auxiliary-temperature trick x = theta/T
// only makes f(x) concave for that functional form. When the power model is
// pluggable (power::ModelRegistry), the stability check must be re-derived
// per model. This module dispatches on power::LeakageForm:
//
//  * kBsim delegates to the auxiliary-temperature analysis unchanged.
//  * kExpTempBias (De Vogeleer, P_leak = A_e e^{B T}) is analyzed directly
//    in temperature. The steady-state residual
//        h(T) = P_dyn + A_e e^{B T} - G (T - T_amb)
//    is convex with h -> +inf at both ends, so it has 0, 1 or 2 roots. Its
//    minimum is at the tangency temperature
//        T* = ln(G / (A_e B)) / B,
//    which yields the critical power in closed form:
//        P_crit = G (T* - T_amb) - G / B.
//    For P_dyn < P_crit the *lower* root is the stable fixed point
//    (sign(h) = sign(dT/dt): below it the device heats toward it, between
//    the roots it cools back to it, above the upper root it runs away), so
//    the upper root is the point of no return.
//
// The runaway guard in the service layer is wired through this module: a
// non-baseline model clamps the configured guard threshold to its own
// derived point of no return.
#pragma once

#include "power/model.h"
#include "stability/fixed_point.h"

namespace mobitherm::stability {

/// Result of analyzing the lumped dynamics under one leakage model.
struct ModelFixedPoint {
  StabilityClass cls = StabilityClass::kUnstable;
  int num_fixed_points = 0;
  /// Fixed points as actual temperatures (K); stable < unstable when both
  /// exist. NaN when absent.
  double stable_temp_k = 0.0;
  double unstable_temp_k = 0.0;
  /// Largest dynamic power with at least one fixed point.
  double critical_power_w = 0.0;
};

// Like fixed_point.h, this module's API works in plain SI magnitudes so
// powers and temperatures can be swept and bisected directly.
// MOBILINT: raw-units-ok

/// Full fixed-point analysis of C dT/dt = -G (T - T_amb) + P_dyn + L(T)
/// where G/T_amb come from `base` and L is `leakage`'s strategy.
ModelFixedPoint analyze_model(const thermal::LumpedParams& base,
                              const power::LeakageParams& leakage,
                              double p_dyn_w, double critical_tol = 1e-9);

/// Critical power of the dynamics under `leakage` (closed form for the
/// exponential model, bisection for the baseline).
double model_critical_power(const thermal::LumpedParams& base,
                            const power::LeakageParams& leakage);

/// Point of no return at `p_dyn_w`: the unstable fixed point, above which
/// the dynamics diverge even if dynamic power never rises again. Throws
/// util::NumericError when the model has no fixed points.
double model_no_return_temp_k(const thermal::LumpedParams& base,
                              const power::LeakageParams& leakage,
                              double p_dyn_w);

}  // namespace mobitherm::stability
