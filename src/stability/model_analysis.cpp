#include "stability/model_analysis.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace mobitherm::stability {

using util::ConfigError;
using util::NumericError;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The baseline analysis parameters with the leakage calibration taken
/// from `leakage` (the base LumpedParams carry their own copy, which may
/// be stale relative to the selected model).
Params baseline_params(const thermal::LumpedParams& base,
                       const power::LeakageParams& leakage) {
  Params p = base;
  p.leak_a_w_per_k2 = leakage.a_w_per_k2;
  p.leak_theta_k = leakage.theta_k;
  return p;
}

struct ExpDynamics {
  double g;     // conductance to ambient, W/K
  double tamb;  // ambient temperature, K
  double a;     // exponential prefactor A_e, W
  double b;     // exponential slope B, 1/K
};

ExpDynamics exp_dynamics(const thermal::LumpedParams& base,
                         const power::LeakageParams& leakage) {
  ExpDynamics d;
  d.g = base.g_w_per_k.value();
  d.tamb = base.t_ambient_k.value();
  d.a = leakage.exp_a_w.value();
  d.b = leakage.exp_b_per_k;
  if (d.g <= 0.0 || d.a <= 0.0 || d.b <= 0.0) {
    throw ConfigError(
        "model_analysis: exponential model requires positive G, A_e, B");
  }
  return d;
}

/// Steady-state residual h(T) = P_dyn + A e^{BT} - G (T - Tamb);
/// sign(h) = sign(dT/dt).
double exp_residual(const ExpDynamics& d, double p_dyn_w, double t_k) {
  return p_dyn_w + d.a * std::exp(d.b * t_k) - d.g * (t_k - d.tamb);
}

/// Tangency temperature T* = ln(G / (A B)) / B, the argmin of convex h.
double exp_tangency_temp(const ExpDynamics& d) {
  return std::log(d.g / (d.a * d.b)) / d.b;
}

/// Bisect h for a root in [lo, hi] given sign(h(lo)) != sign(h(hi)).
double exp_bisect(const ExpDynamics& d, double p_dyn_w, double lo, double hi) {
  double f_lo = exp_residual(d, p_dyn_w, lo);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double f_mid = exp_residual(d, p_dyn_w, mid);
    if ((f_lo > 0.0) == (f_mid > 0.0)) {
      lo = mid;
      f_lo = f_mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

ModelFixedPoint analyze_exp(const ExpDynamics& d, double p_dyn_w,
                            double critical_tol) {
  if (p_dyn_w < 0.0) {
    throw ConfigError("model_analysis: dynamic power must be non-negative");
  }
  const double t_star = exp_tangency_temp(d);
  const double critical_w = d.g * (t_star - d.tamb) - d.g / d.b;
  const double h_min = p_dyn_w - critical_w;  // = h(t_star)

  ModelFixedPoint result;
  result.critical_power_w = critical_w;
  if (h_min > critical_tol) {
    result.cls = StabilityClass::kUnstable;
    result.num_fixed_points = 0;
    result.stable_temp_k = kNaN;
    result.unstable_temp_k = kNaN;
    return result;
  }
  if (h_min >= -critical_tol) {
    result.cls = StabilityClass::kCriticallyStable;
    result.num_fixed_points = 1;
    result.stable_temp_k = t_star;
    result.unstable_temp_k = t_star;
    return result;
  }
  // Two roots. h -> +inf on both sides of the minimum; expand brackets
  // until the sign flips, then bisect.
  double lo = std::min(d.tamb, t_star);
  double step = std::max(1.0, 0.1 * (t_star - lo));
  while (exp_residual(d, p_dyn_w, lo) <= 0.0) {
    lo -= step;
    step *= 2.0;
  }
  double hi = t_star;
  step = std::max(1.0, 0.1 * (t_star - d.tamb));
  while (exp_residual(d, p_dyn_w, hi + step) <= 0.0) {
    hi += step;
    step *= 2.0;
  }
  result.cls = StabilityClass::kStable;
  result.num_fixed_points = 2;
  result.stable_temp_k = exp_bisect(d, p_dyn_w, lo, t_star);
  result.unstable_temp_k = exp_bisect(d, p_dyn_w, t_star, hi + step);
  return result;
}

}  // namespace

ModelFixedPoint analyze_model(const thermal::LumpedParams& base,
                              const power::LeakageParams& leakage,
                              double p_dyn_w, double critical_tol) {
  if (leakage.form == power::LeakageForm::kBsim) {
    const Params p = baseline_params(base, leakage);
    const FixedPointResult r = analyze(p, p_dyn_w, critical_tol);
    ModelFixedPoint result;
    result.cls = r.cls;
    result.num_fixed_points = r.num_fixed_points;
    result.stable_temp_k = r.stable_temp_k;
    result.unstable_temp_k = r.unstable_temp_k;
    result.critical_power_w = critical_power(p);
    return result;
  }
  return analyze_exp(exp_dynamics(base, leakage), p_dyn_w, critical_tol);
}

double model_critical_power(const thermal::LumpedParams& base,
                            const power::LeakageParams& leakage) {
  if (leakage.form == power::LeakageForm::kBsim) {
    return critical_power(baseline_params(base, leakage));
  }
  const ExpDynamics d = exp_dynamics(base, leakage);
  const double t_star = exp_tangency_temp(d);
  return d.g * (t_star - d.tamb) - d.g / d.b;
}

double model_no_return_temp_k(const thermal::LumpedParams& base,
                              const power::LeakageParams& leakage,
                              double p_dyn_w) {
  const ModelFixedPoint r = analyze_model(base, leakage, p_dyn_w);
  if (r.num_fixed_points == 0) {
    throw NumericError(
        "model_no_return_temp_k: no fixed point (thermal runaway)");
  }
  return r.unstable_temp_k;
}

}  // namespace mobitherm::stability
