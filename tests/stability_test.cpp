// Tests for the power-temperature stability analysis — the paper's core
// machinery (Sec. IV-A / Fig. 7): concavity of the fixed-point function,
// root structure vs. power, the auxiliary-temperature iteration, critical
// power, trajectories, calibration.
#include <gtest/gtest.h>

#include <cmath>

#include "stability/calibrate.h"
#include "stability/fixed_point.h"
#include "stability/presets.h"
#include "stability/trajectory.h"
#include "thermal/lumped.h"
#include "util/error.h"

namespace mobitherm::stability {
namespace {

using util::NumericError;

Params odroid() { return odroid_xu3_params(); }

// --- fixed-point function properties ----------------------------------------

TEST(FixedPoint, AuxiliaryTemperatureIsInverse) {
  const Params p = odroid();
  const double t = 350.0;
  const double x = p.leak_theta_k.value() / t;
  EXPECT_NEAR(temperature_of_auxiliary(p, x), t, 1e-9);
  EXPECT_THROW(temperature_of_auxiliary(p, -1.0), NumericError);
}

class ConcavitySweep : public ::testing::TestWithParam<double> {};

TEST_P(ConcavitySweep, FunctionIsConcaveEverywhere) {
  // Numeric second derivative must be negative for all x and powers.
  const Params p = odroid();
  const double power = GetParam();
  const double h = 1e-4;
  for (double x = 0.5; x < 12.0; x += 0.25) {
    const double second =
        (fixed_point_function(p, power, x + h) -
         2.0 * fixed_point_function(p, power, x) +
         fixed_point_function(p, power, x - h)) /
        (h * h);
    EXPECT_LT(second, 0.0) << "x=" << x << " P=" << power;
  }
}

INSTANTIATE_TEST_SUITE_P(Powers, ConcavitySweep,
                         ::testing::Values(0.0, 1.0, 2.0, 5.5, 8.0, 20.0));

TEST(FixedPoint, DerivativeMatchesNumericGradient) {
  const Params p = odroid();
  const double h = 1e-6;
  for (double x = 1.0; x < 8.0; x += 0.7) {
    const double numeric = (fixed_point_function(p, 3.0, x + h) -
                            fixed_point_function(p, 3.0, x - h)) /
                           (2.0 * h);
    EXPECT_NEAR(fixed_point_derivative(p, 3.0, x), numeric, 1e-5);
  }
}

TEST(FixedPoint, FunctionMovesDownWithPower) {
  // Fig. 7: increasing power only lowers the curve.
  const Params p = odroid();
  for (double x = 1.0; x < 8.0; x += 0.5) {
    EXPECT_LT(fixed_point_function(p, 5.0, x),
              fixed_point_function(p, 2.0, x));
  }
}

TEST(FixedPoint, NegativeAtBothEnds) {
  const Params p = odroid();
  EXPECT_LT(fixed_point_function(p, 2.0, 1e-6), 0.0);
  EXPECT_LT(fixed_point_function(p, 2.0, 1e3), 0.0);
}

// --- root structure (Fig. 7 panels) ------------------------------------------

TEST(Analyze, TwoFixedPointsAt2W) {
  const FixedPointResult r = analyze(odroid(), 2.0);
  EXPECT_EQ(r.cls, StabilityClass::kStable);
  EXPECT_EQ(r.num_fixed_points, 2);
  // Stable fixed point is the larger auxiliary root = lower temperature.
  EXPECT_GT(r.stable_x, r.unstable_x);
  EXPECT_LT(r.stable_temp_k, r.unstable_temp_k);
  // Roots actually sit on the function's zero level.
  EXPECT_NEAR(fixed_point_function(odroid(), 2.0, r.stable_x), 0.0, 1e-12);
  EXPECT_NEAR(fixed_point_function(odroid(), 2.0, r.unstable_x), 0.0, 1e-12);
}

TEST(Analyze, CriticallyStableAt5p5W) {
  // The calibration pins the critical power at exactly 5.5 W (Fig. 7b).
  const FixedPointResult r = analyze(odroid(), 5.5, 1e-5);
  EXPECT_EQ(r.cls, StabilityClass::kCriticallyStable);
  EXPECT_EQ(r.num_fixed_points, 1);
  EXPECT_NEAR(r.stable_x, r.unstable_x, 1e-6);
}

TEST(Analyze, NoFixedPointAt8W) {
  const FixedPointResult r = analyze(odroid(), 8.0);
  EXPECT_EQ(r.cls, StabilityClass::kUnstable);
  EXPECT_EQ(r.num_fixed_points, 0);
  EXPECT_TRUE(std::isnan(r.stable_temp_k));
  EXPECT_LT(r.peak_value, 0.0);
}

TEST(Analyze, StableTempCalibrationPoint) {
  // Calibrated so 2 W settles at 338 K (~65 degC).
  const FixedPointResult r = analyze(odroid(), 2.0);
  EXPECT_NEAR(r.stable_temp_k, 338.0, 0.5);
}

class RootStructureSweep : public ::testing::TestWithParam<double> {};

TEST_P(RootStructureSweep, ClassConsistentWithCriticalPower) {
  const Params p = odroid();
  const double pc = critical_power(p);
  const double power = GetParam();
  const FixedPointResult r = analyze(p, power);
  if (power < pc - 1e-3) {
    EXPECT_EQ(r.cls, StabilityClass::kStable) << power;
  } else if (power > pc + 1e-3) {
    EXPECT_EQ(r.cls, StabilityClass::kUnstable) << power;
  }
}

INSTANTIATE_TEST_SUITE_P(PowerGrid, RootStructureSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0,
                                           5.4, 5.6, 6.0, 7.0, 10.0, 50.0));

TEST(Analyze, StableTempIncreasesWithPower) {
  const Params p = odroid();
  double prev = 0.0;
  for (double power = 0.0; power < 5.0; power += 0.5) {
    const double t = stable_temperature(p, power);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Analyze, UnstableTempDecreasesWithPower) {
  // The two roots approach each other as power grows.
  const Params p = odroid();
  const FixedPointResult lo = analyze(p, 1.0);
  const FixedPointResult hi = analyze(p, 5.0);
  EXPECT_GT(lo.unstable_temp_k, hi.unstable_temp_k);
  EXPECT_LT(lo.stable_temp_k, hi.stable_temp_k);
}

TEST(Analyze, ZeroLeakageDegeneratesToLinearModel) {
  Params p = odroid();
  p.leak_a_w_per_k2 = util::watts_per_kelvin2(0.0);
  const FixedPointResult r = analyze(p, 3.0);
  EXPECT_EQ(r.cls, StabilityClass::kStable);
  EXPECT_EQ(r.num_fixed_points, 1);
  EXPECT_NEAR(r.stable_temp_k,
              p.t_ambient_k.value() + 3.0 / p.g_w_per_k.value(), 1e-6);
  EXPECT_TRUE(std::isnan(r.unstable_temp_k));
}

TEST(Analyze, ValidatesInputs) {
  Params p = odroid();
  EXPECT_THROW(analyze(p, -1.0), NumericError);
  p.g_w_per_k = util::watts_per_kelvin(0.0);
  EXPECT_THROW(analyze(p, 1.0), NumericError);
}

TEST(Analyze, FixedPointBalancesHeatEquation) {
  // The analysis roots must be equilibria of the lumped ODE.
  const Params p = odroid();
  const FixedPointResult r = analyze(p, 3.0);
  EXPECT_NEAR(thermal::temperature_derivative(p, util::kelvin(r.stable_temp_k),
                                              util::watts(3.0))
                  .value(),
              0.0, 1e-9);
  EXPECT_NEAR(thermal::temperature_derivative(p, util::kelvin(r.unstable_temp_k),
                                              util::watts(3.0))
                  .value(),
              0.0, 1e-9);
}

// --- critical power ----------------------------------------------------------

TEST(CriticalPower, MatchesPaperCalibration) {
  EXPECT_NEAR(critical_power(odroid()), 5.5, 1e-3);
}

TEST(CriticalPower, ZeroWhenUnstableAtIdle) {
  Params p = odroid();
  p.leak_a_w_per_k2 *= 1e6;  // absurd leakage: runaway even at idle
  EXPECT_DOUBLE_EQ(critical_power(p), 0.0);
}

TEST(CriticalPower, ThrowsWhenStillStableAtCap) {
  EXPECT_THROW(critical_power(odroid(), 1.0), NumericError);
}

TEST(StableTemperature, ThrowsAboveCritical) {
  EXPECT_THROW(stable_temperature(odroid(), 8.0), NumericError);
}

// --- trajectories -------------------------------------------------------------

TEST(Trajectory, TemperatureAfterApproachesFixedPoint) {
  const Params p = odroid();
  const double t_end = temperature_after(p, 2.0, p.t_ambient_k.value(), 3000.0);
  EXPECT_NEAR(t_end, stable_temperature(p, 2.0), 0.01);
}

TEST(Trajectory, TimeToTemperatureIsPositiveAndOrdered) {
  const Params p = odroid();
  const double t40 = time_to_temperature(p, 3.0, 298.15, 313.15);
  const double t60 = time_to_temperature(p, 3.0, 298.15, 333.15);
  EXPECT_GT(t40, 0.0);
  EXPECT_GT(t60, t40);  // farther targets take longer
}

TEST(Trajectory, MorePowerReachesTargetSooner) {
  const Params p = odroid();
  const double slow = time_to_temperature(p, 2.5, 298.15, 330.0);
  const double fast = time_to_temperature(p, 4.5, 298.15, 330.0);
  EXPECT_LT(fast, slow);
}

TEST(Trajectory, UnreachableTargetIsNever) {
  const Params p = odroid();
  // Target beyond the stable fixed point of a 2 W load.
  const double t_ss = stable_temperature(p, 2.0);
  EXPECT_EQ(time_to_temperature(p, 2.0, 298.15, t_ss + 10.0), kNever);
  // Cooling target below ambient while heating.
  EXPECT_EQ(time_to_temperature(p, 2.0, 298.15, 290.0), kNever);
}

TEST(Trajectory, AlreadyAtTargetIsZero) {
  const Params p = odroid();
  EXPECT_DOUBLE_EQ(time_to_temperature(p, 2.0, 320.0, 320.0), 0.0);
}

TEST(Trajectory, CoolingTowardFixedPoint) {
  const Params p = odroid();
  const double t_ss = stable_temperature(p, 1.0);
  const double t = time_to_temperature(p, 1.0, t_ss + 30.0, t_ss + 5.0);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1000.0);
}

TEST(Trajectory, TimeToFixedPointStableCase) {
  const Params p = odroid();
  const double t = time_to_fixed_point(p, 2.0, 298.15, 1.0);
  EXPECT_GT(t, 10.0);
  EXPECT_LT(t, 2000.0);
  // Verify against direct integration: after that time we are within the
  // band around the fixed point.
  const double reached = temperature_after(p, 2.0, 298.15, t);
  EXPECT_NEAR(reached, stable_temperature(p, 2.0) - 1.0, 0.1);
}

TEST(Trajectory, TimeToFixedPointUnstableIsNever) {
  EXPECT_EQ(time_to_fixed_point(odroid(), 8.0, 298.15), kNever);
}

TEST(Trajectory, RunawayRegionIsNever) {
  const Params p = odroid();
  const FixedPointResult r = analyze(p, 2.0);
  // Start hotter than the unstable fixed point: trajectories diverge.
  EXPECT_EQ(time_to_fixed_point(p, 2.0, r.unstable_temp_k + 5.0), kNever);
}

TEST(Trajectory, ConsistentWithTimeLimitSemantics) {
  // The governor's "imminent violation" check: time to cross the limit
  // shrinks as the system heats up.
  const Params p = odroid();
  const double limit = 358.15;  // 85 degC
  const double from_cold = time_to_temperature(p, 4.5, 310.0, limit);
  const double from_warm = time_to_temperature(p, 4.5, 340.0, limit);
  EXPECT_LT(from_warm, from_cold);
}

// --- calibration -----------------------------------------------------------------

TEST(Calibrate, RecoversTargetsExactly) {
  CalibrationTargets t;
  t.t_ambient_k = 298.15;
  t.p_observed_w = 2.0;
  t.t_stable_k = 338.0;
  t.p_critical_w = 5.5;
  t.t_critical_k = 450.0;
  const Params p = calibrate(t, 5.9);

  EXPECT_NEAR(stable_temperature(p, 2.0), 338.0, 1e-3);
  EXPECT_NEAR(critical_power(p), 5.5, 1e-3);
  const FixedPointResult crit = analyze(p, 5.5, 1e-4);
  EXPECT_NEAR(crit.stable_temp_k, 450.0, 0.5);
}

TEST(Calibrate, RejectsInconsistentTargets) {
  CalibrationTargets t;
  t.t_stable_k = 250.0;  // below ambient
  EXPECT_THROW(calibrate(t, 5.9), NumericError);

  CalibrationTargets t2;
  t2.p_critical_w = 1.0;
  t2.p_observed_w = 2.0;
  EXPECT_THROW(calibrate(t2, 5.9), NumericError);

  CalibrationTargets t3;
  EXPECT_THROW(calibrate(t3, -1.0), NumericError);
}

// --- fixed-point iteration (Fig. 7 arrows) --------------------------------

TEST(Iteration, ConvergesToStableRootFromBetweenRoots) {
  const Params p = odroid();
  const FixedPointResult r = analyze(p, 2.0);
  const double start = 0.5 * (r.unstable_x + r.stable_x);
  const auto xs = iterate_auxiliary(p, 2.0, start, 400);
  // Between the roots f > 0: the auxiliary temperature increases
  // monotonically toward the stable root (the paper's rightward arrows).
  for (std::size_t i = 1; i < xs.size(); ++i) {
    EXPECT_GE(xs[i], xs[i - 1] - 1e-12);
    EXPECT_LE(xs[i], r.stable_x + 1e-6);
  }
  EXPECT_NEAR(xs.back(), r.stable_x, 1e-3);
}

TEST(Iteration, FallsBackFromRightOfStableRoot) {
  const Params p = odroid();
  const FixedPointResult r = analyze(p, 2.0);
  const auto xs = iterate_auxiliary(p, 2.0, r.stable_x + 1.0, 400);
  // Right of the stable root f < 0: iterates decrease back to it.
  for (std::size_t i = 1; i < xs.size(); ++i) {
    EXPECT_LE(xs[i], xs[i - 1] + 1e-12);
  }
  EXPECT_NEAR(xs.back(), r.stable_x, 1e-3);
}

TEST(Iteration, RunsAwayLeftOfUnstableRoot) {
  const Params p = odroid();
  const FixedPointResult r = analyze(p, 2.0);
  const auto xs = iterate_auxiliary(p, 2.0, 0.9 * r.unstable_x, 4000);
  // Left of the unstable root f < 0: the auxiliary temperature keeps
  // falling (actual temperature keeps rising — thermal runaway).
  EXPECT_LT(xs.back(), 0.5 * r.unstable_x);
}

TEST(Iteration, NoFixedPointAlwaysRunsAway) {
  const Params p = odroid();
  const auto xs = iterate_auxiliary(p, 8.0, 4.5, 20000);
  EXPECT_NEAR(xs.back(), 1e-3, 1e-9);  // hit the floor (T -> infinity)
}

TEST(Iteration, FixedPointIsStationary) {
  const Params p = odroid();
  const FixedPointResult r = analyze(p, 2.0);
  const auto xs = iterate_auxiliary(p, 2.0, r.stable_x, 10);
  for (double x : xs) {
    EXPECT_NEAR(x, r.stable_x, 1e-9);
  }
}

TEST(Iteration, ValidatesArguments) {
  const Params p = odroid();
  EXPECT_THROW(iterate_auxiliary(p, 2.0, 0.0, 10), NumericError);
  EXPECT_THROW(iterate_auxiliary(p, 2.0, 1.0, -1), NumericError);
}

TEST(Calibrate, InfeasibleTargetsThrowWithDiagnostics) {
  CalibrationTargets t;
  t.p_observed_w = 2.0;
  t.t_stable_k = 310.0;   // implies huge G...
  t.p_critical_w = 5.5;   // ...but critical power implies small G
  t.t_critical_k = 450.0;
  EXPECT_THROW(calibrate(t, 5.9), NumericError);
}

TEST(Presets, OdroidParamsMatchFig7) {
  const Params p = odroid();
  EXPECT_GT(p.g_w_per_k.value(), 0.0);
  EXPECT_GT(p.leak_a_w_per_k2.value(), 0.0);
  // Fig. 7's auxiliary-temperature axis spans ~2..6 for these parameters.
  const FixedPointResult r = analyze(p, 2.0);
  EXPECT_GT(r.stable_x, 2.0);
  EXPECT_LT(r.stable_x, 7.0);
}

TEST(Presets, NexusSpreadsHeatBetterThanOdroid) {
  EXPECT_GT(nexus6p_params().g_w_per_k.value(),
            2.0 * odroid().g_w_per_k.value());
  // And correspondingly tolerates more power before runaway.
  EXPECT_GT(critical_power(nexus6p_params(), 100.0),
            critical_power(odroid()));
}

}  // namespace
}  // namespace mobitherm::stability
