#include "stability/fixed_point.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace mobitherm::stability {

using util::NumericError;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Bisection for a function known to change sign on [lo, hi].
template <typename F>
double bisect(F&& f, double lo, double hi, double tol) {
  double flo = f(lo);
  for (int i = 0; i < 200 && hi - lo > tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    if ((flo <= 0.0) == (fmid <= 0.0)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

const char* to_string(StabilityClass cls) {
  switch (cls) {
    case StabilityClass::kStable:
      return "stable";
    case StabilityClass::kCriticallyStable:
      return "critically-stable";
    case StabilityClass::kUnstable:
      return "unstable";
  }
  return "?";
}

// The analysis runs in the dimensionless auxiliary domain, so the typed
// LumpedParams are unwrapped to raw magnitudes here (sanctioned .value()
// boundary); the expressions below are unchanged.
double fixed_point_function(const Params& p, double p_dyn_w, double x) {
  const double theta = p.leak_theta_k.value();
  const double g = p.g_w_per_k.value();
  return (g / theta) * x -
         ((g * p.t_ambient_k.value() + p_dyn_w) / (theta * theta)) * x * x -
         p.leak_a_w_per_k2.value() * std::exp(-x);
}

double fixed_point_derivative(const Params& p, double p_dyn_w, double x) {
  const double theta = p.leak_theta_k.value();
  const double g = p.g_w_per_k.value();
  return g / theta -
         2.0 * ((g * p.t_ambient_k.value() + p_dyn_w) / (theta * theta)) *
             x +
         p.leak_a_w_per_k2.value() * std::exp(-x);
}

double temperature_of_auxiliary(const Params& p, double x) {
  if (x <= 0.0) {
    throw NumericError("temperature_of_auxiliary: non-positive auxiliary");
  }
  return p.leak_theta_k.value() / x;
}

FixedPointResult analyze(const Params& p, double p_dyn_w,
                         double critical_tol) {
  if (p.g_w_per_k <= util::watts_per_kelvin(0.0) ||
      p.leak_theta_k <= util::kelvin(0.0) ||
      p.t_ambient_k <= util::kelvin(0.0)) {
    throw NumericError("stability::analyze: invalid parameters");
  }
  if (p_dyn_w < 0.0) {
    throw NumericError("stability::analyze: negative dynamic power");
  }

  FixedPointResult r;

  // Leakage-free special case: f(x) = x (G/theta - c x) has the trivial
  // root x = 0 (T -> infinity) and the classic T = T_amb + P/G point.
  if (p.leak_a_w_per_k2 == util::watts_per_kelvin2(0.0)) {
    r.cls = StabilityClass::kStable;
    r.num_fixed_points = 1;
    r.stable_x = p.g_w_per_k.value() * p.leak_theta_k.value() /
                 (p.g_w_per_k.value() * p.t_ambient_k.value() + p_dyn_w);
    r.stable_temp_k = temperature_of_auxiliary(p, r.stable_x);
    r.unstable_x = kNan;
    r.unstable_temp_k = kNan;
    r.peak_x = 0.5 * r.stable_x;
    r.peak_value = fixed_point_function(p, p_dyn_w, r.peak_x);
    return r;
  }

  // f' is strictly decreasing (f is concave); find the unique argmax by
  // bisection on f' over an expanding bracket.
  auto fprime = [&](double x) {
    return fixed_point_derivative(p, p_dyn_w, x);
  };
  const double x_lo = 1e-9;
  double x_hi = 1.0;
  while (fprime(x_hi) > 0.0 && x_hi < 1e9) {
    x_hi *= 2.0;
  }
  if (fprime(x_hi) > 0.0) {
    throw NumericError("stability::analyze: argmax bracket failed");
  }
  r.peak_x = bisect(fprime, x_lo, x_hi, 1e-12 * x_hi);
  r.peak_value = fixed_point_function(p, p_dyn_w, r.peak_x);

  const double scale =
      std::max({std::abs(p.leak_a_w_per_k2.value()),
                p.g_w_per_k.value() / p.leak_theta_k.value(), 1e-12});
  if (r.peak_value < -critical_tol * scale) {
    r.cls = StabilityClass::kUnstable;
    r.num_fixed_points = 0;
    r.stable_x = r.unstable_x = kNan;
    r.stable_temp_k = r.unstable_temp_k = kNan;
    return r;
  }
  if (r.peak_value <= critical_tol * scale) {
    r.cls = StabilityClass::kCriticallyStable;
    r.num_fixed_points = 1;
    r.stable_x = r.unstable_x = r.peak_x;
    r.stable_temp_k = r.unstable_temp_k =
        temperature_of_auxiliary(p, r.peak_x);
    return r;
  }

  // Two roots: f(~0) = -A < 0 < f(peak), and f eventually goes negative to
  // the right of the peak (the -x^2 term dominates).
  auto f = [&](double x) { return fixed_point_function(p, p_dyn_w, x); };
  r.unstable_x = bisect(f, x_lo, r.peak_x, 1e-12 * r.peak_x);
  double right = 2.0 * r.peak_x;
  while (f(right) > 0.0 && right < 1e12) {
    right *= 2.0;
  }
  r.stable_x = bisect(f, r.peak_x, right, 1e-12 * right);

  r.cls = StabilityClass::kStable;
  r.num_fixed_points = 2;
  r.stable_temp_k = temperature_of_auxiliary(p, r.stable_x);
  r.unstable_temp_k = temperature_of_auxiliary(p, r.unstable_x);
  return r;
}

std::vector<double> iterate_auxiliary(const Params& p, double p_dyn_w,
                                      double x0, int steps, double gamma,
                                      double x_floor) {
  if (x0 <= 0.0) {
    throw NumericError("iterate_auxiliary: start must be positive");
  }
  if (steps < 0) {
    throw NumericError("iterate_auxiliary: negative step count");
  }
  if (gamma <= 0.0) {
    // A stable default: the inverse of |f'| at the function's peak bounds
    // the slope magnitude near the roots, keeping x_{k+1} on the same side
    // of the stable root (monotone convergence).
    const FixedPointResult r = analyze(p, p_dyn_w);
    const double slope_scale =
        std::max(std::abs(fixed_point_derivative(p, p_dyn_w,
                                                 0.5 * r.peak_x)),
                 std::abs(fixed_point_derivative(p, p_dyn_w,
                                                 2.0 * r.peak_x)));
    gamma = slope_scale > 0.0 ? 0.5 / slope_scale : 1.0;
  }
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(steps) + 1);
  xs.push_back(x0);
  double x = x0;
  for (int i = 0; i < steps; ++i) {
    x += gamma * fixed_point_function(p, p_dyn_w, x);
    if (x <= x_floor) {
      x = x_floor;  // runaway: T -> infinity corresponds to x -> 0
      xs.push_back(x);
      break;
    }
    xs.push_back(x);
  }
  return xs;
}

double critical_power(const Params& p, double p_max_w, double tol_w) {
  auto peak_value = [&](double power) {
    return analyze(p, power, 0.0).peak_value;
  };
  if (peak_value(0.0) < 0.0) {
    return 0.0;  // unstable even at zero dynamic power
  }
  if (peak_value(p_max_w) > 0.0) {
    throw NumericError("critical_power: still stable at p_max_w");
  }
  double lo = 0.0;
  double hi = p_max_w;
  while (hi - lo > tol_w) {
    const double mid = 0.5 * (lo + hi);
    if (peak_value(mid) > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double stable_temperature(const Params& p, double p_dyn_w) {
  const FixedPointResult r = analyze(p, p_dyn_w);
  if (r.cls == StabilityClass::kUnstable) {
    throw NumericError("stable_temperature: system has no fixed point");
  }
  return r.stable_temp_k;
}

}  // namespace mobitherm::stability
