// Visualize the power-temperature stability landscape (paper Sec. IV-A):
// sweep dynamic power, print the stable/unstable fixed points, and show a
// trajectory on each side of the unstable fixed point — convergence below
// it, runaway above it.
//
// Usage:   thermal_runaway_demo
#include <cstdio>
#include <initializer_list>

#include "stability/fixed_point.h"
#include "stability/presets.h"
#include "stability/trajectory.h"
#include "thermal/lumped.h"
#include "util/units.h"

int main() {
  using namespace mobitherm;
  const stability::Params p = stability::odroid_xu3_params();
  const double p_crit = stability::critical_power(p);

  std::printf("Odroid-XU3 lumped model: G=%.4f W/K, C=%.1f J/K, "
              "theta=%.0f K, A=%.2e W/K^2\n",
              p.g_w_per_k.value(), p.c_j_per_k.value(), p.leak_theta_k.value(),
              p.leak_a_w_per_k2.value());
  std::printf("critical power = %.3f W\n\n", p_crit);

  std::printf("%-8s %-20s %-22s %-22s\n", "P (W)", "class",
              "stable fixed point", "unstable fixed point");
  for (double power = 0.5; power <= 7.0; power += 0.5) {
    const stability::FixedPointResult r = stability::analyze(p, power, 1e-6);
    std::printf("%-8.1f %-20s ", power, to_string(r.cls));
    if (r.num_fixed_points >= 1) {
      std::printf("%6.1f degC            ",
                  util::kelvin_to_celsius(r.stable_temp_k));
    } else {
      std::printf("%-22s ", "-");
    }
    if (r.num_fixed_points == 2) {
      std::printf("%6.1f degC",
                  util::kelvin_to_celsius(r.unstable_temp_k));
    } else {
      std::printf("-");
    }
    std::printf("\n");
  }

  // Trajectories around the unstable fixed point at 4 W.
  const stability::FixedPointResult r4 = stability::analyze(p, 4.0);
  std::printf("\nAt 4.0 W the unstable fixed point sits at %.1f degC.\n",
              util::kelvin_to_celsius(r4.unstable_temp_k));
  for (double offset : {-10.0, +10.0}) {
    thermal::LumpedModel model(p);
    model.set_temperature(util::kelvin(r4.unstable_temp_k + offset));
    std::printf("trajectory from %+.0f K of it:",
                offset);
    for (int i = 0; i < 8; ++i) {
      model.step(util::watts(4.0), util::seconds(60.0));
      std::printf(" %.0f",
                  util::kelvin_to_celsius(model.temperature_k().value()));
    }
    std::printf("  degC -> %s\n",
                model.temperature_k().value() >
                        r4.unstable_temp_k + 1.0
                    ? "RUNAWAY"
                    : "converges to the stable fixed point");
  }
  return 0;
}
