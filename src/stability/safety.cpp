#include "stability/safety.h"

#include <algorithm>
#include <cmath>

#include "thermal/lumped.h"

namespace mobitherm::stability {

double safe_power(const Params& p, double temp_limit_k, double tol_w) {
  if (temp_limit_k <= p.t_ambient_k.value()) {
    return 0.0;  // cannot cool below ambient with non-negative power
  }
  // At the stable fixed point: G (T - Tamb) = P + leak(T), and the stable
  // temperature increases monotonically with power, so the budget is the
  // balance power at the limit itself — provided the limit is on the
  // stable branch (below the critical temperature).
  const double balance =
      p.g_w_per_k.value() * (temp_limit_k - p.t_ambient_k.value()) -
      thermal::leakage_power(p, util::kelvin(temp_limit_k)).value();
  if (balance <= 0.0) {
    return 0.0;  // leakage alone exceeds the removable heat at the limit
  }
  // The balance power makes the limit a root of the fixed-point function,
  // but it might be the *unstable* root (limit past the peak) or exceed
  // the critical power; verify and fall back to bisection in those cases.
  double budget = balance;
  const FixedPointResult at_budget = analyze(p, budget);
  if (at_budget.cls == StabilityClass::kUnstable ||
      at_budget.stable_temp_k > temp_limit_k + 1e-6) {
    // The limit lies on the unstable branch: bisect for the largest power
    // whose stable temperature respects it.
    double lo = 0.0;
    double hi = budget;
    while (hi - lo > tol_w) {
      const double mid = 0.5 * (lo + hi);
      const FixedPointResult r = analyze(p, mid);
      if (r.cls != StabilityClass::kUnstable &&
          r.stable_temp_k <= temp_limit_k) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    budget = lo;
  }
  return budget;
}

double power_headroom(const Params& p, double temp_limit_k, double p_dyn_w) {
  return safe_power(p, temp_limit_k) - p_dyn_w;
}

}  // namespace mobitherm::stability
