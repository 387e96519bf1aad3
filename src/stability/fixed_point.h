// Power-temperature stability analysis (paper Sec. IV-A, ref. [2]).
//
// The lumped dynamics  C dT/dt = -G (T - T_amb) + P_dyn + A T^2 e^{-theta/T}
// are rewritten in the auxiliary temperature x = theta / T (inversely
// proportional to the actual temperature, as in the paper). Multiplying the
// steady-state balance by x^2/theta^2 gives the fixed-point function
//
//     f(x) = (G/theta) x - ((G T_amb + P_dyn)/theta^2) x^2 - A e^{-x}
//
// with the properties the paper illustrates in Fig. 7:
//  * f is concave everywhere:  f'' = -2 (G T_amb + P_dyn)/theta^2 - A e^{-x} < 0,
//  * f < 0 at both ends of the positive axis, so f has 0, 1 or 2 roots,
//  * sign(f(x)) = sign(dx/dt): between two roots the auxiliary temperature
//    increases, so the larger root (lower actual temperature) is the stable
//    fixed point and the smaller root is unstable,
//  * increasing P_dyn only lowers f, so the roots approach each other,
//    merge at the critical power (critically stable) and then vanish
//    (thermal runaway).
#pragma once

#include <vector>

#include "thermal/lumped.h"

namespace mobitherm::stability {

/// Parameters of the analysis; identical to the lumped thermal model
/// parameters (C is only needed for trajectories, not for fixed points).
using Params = thermal::LumpedParams;

enum class StabilityClass {
  kStable,            // two fixed points; trajectories right of the
                      // unstable one converge to the stable one
  kCriticallyStable,  // roots have merged (within tolerance)
  kUnstable           // no fixed point: thermal runaway for any start
};

const char* to_string(StabilityClass cls);

/// Result of analyzing the dynamics at one dynamic power level.
struct FixedPointResult {
  StabilityClass cls = StabilityClass::kUnstable;
  int num_fixed_points = 0;

  /// Auxiliary-temperature roots; stable_x > unstable_x when both exist.
  /// NaN when absent.
  double stable_x = 0.0;
  double unstable_x = 0.0;

  /// The same fixed points as actual temperatures (K); the *stable* one is
  /// the lower temperature. NaN when absent.
  double stable_temp_k = 0.0;
  double unstable_temp_k = 0.0;

  /// Argmax / max of the concave fixed-point function; max < 0 means no
  /// fixed points, max ~ 0 critical.
  double peak_x = 0.0;
  double peak_value = 0.0;
};

// This module's API stays in the raw auxiliary/analysis domain: x is
// dimensionless and powers/temperatures are plain SI magnitudes (watts,
// kelvin) so they can be swept, bisected and plotted directly.
// MOBILINT: raw-units-ok

/// The fixed-point function f(x) at dynamic power `p_dyn_w`.
double fixed_point_function(const Params& p, double p_dyn_w, double x);

/// df/dx.
double fixed_point_derivative(const Params& p, double p_dyn_w, double x);

/// Actual temperature of auxiliary temperature x = theta / T.
double temperature_of_auxiliary(const Params& p, double x);

/// Full fixed-point analysis at the given dynamic power.
/// `critical_tol` is the peak-value tolerance below which the system is
/// reported critically stable.
FixedPointResult analyze(const Params& p, double p_dyn_w,
                         double critical_tol = 1e-9);

/// Largest dynamic power with at least one fixed point, found by bisection
/// on the (monotonically decreasing) peak value of f.
double critical_power(const Params& p, double p_max_w = 100.0,
                      double tol_w = 1e-6);

/// Steady-state (stable fixed point) temperature at `p_dyn_w`; throws
/// NumericError if the system has no fixed point.
double stable_temperature(const Params& p, double p_dyn_w);

/// The fixed-point iteration Fig. 7's arrows illustrate: the auxiliary
/// temperature moves in the direction of f's sign (x_{k+1} = x_k +
/// gamma f(x_k), gamma > 0), so iterates between the roots climb toward
/// the larger (stable) root, iterates right of it fall back to it, and
/// iterates left of the unstable root run away toward x -> 0 (T -> inf).
/// Returns the iterate sequence including the start. `gamma` is clamped
/// to keep steps stable; iteration stops early at `x_floor` (runaway).
std::vector<double> iterate_auxiliary(const Params& p, double p_dyn_w,
                                      double x0, int steps,
                                      double gamma = 0.0,
                                      double x_floor = 1e-3);

}  // namespace mobitherm::stability
