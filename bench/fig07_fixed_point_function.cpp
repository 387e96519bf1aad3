// Fig. 7: the fixed-point function of the auxiliary temperature at three
// power levels on the Odroid-XU3 parameters:
//   (a) 2.0 W — two roots (stable + unstable fixed point),
//   (b) 5.5 W — critically stable (roots merged),
//   (c) 8.0 W — no fixed points (thermal runaway).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "stability/fixed_point.h"
#include "stability/presets.h"

int main() {
  using namespace mobitherm;
  bench::header("Figure 7",
                "fixed-point function at 2 / 5.5 / 8 W (Odroid-XU3 params)");

  const stability::Params p = stability::odroid_xu3_params();
  std::printf("\ncalibrated parameters: G=%.4f W/K  A=%.4e W/K^2  "
              "theta=%.1f K  T_amb=%.2f K\n",
              p.g_w_per_k.value(), p.leak_a_w_per_k2.value(),
              p.leak_theta_k.value(), p.t_ambient_k.value());
  std::printf("critical power: paper 5.50 W, measured %.3f W\n",
              stability::critical_power(p));

  const std::vector<double> powers = {2.0, 5.5, 8.0};
  // The curve itself, sampled over the auxiliary-temperature range of the
  // paper's plots; scaled by 1e4 for readability (the paper's y-axis is in
  // arbitrary units of the same shape).
  std::vector<std::vector<double>> rows;
  for (double x = 1.5; x <= 6.5; x += 0.1) {
    std::vector<double> row = {x};
    for (double power : powers) {
      row.push_back(1e4 * stability::fixed_point_function(p, power, x));
    }
    rows.push_back(row);
  }
  bench::series_block(
      "fixed-point function f(x) (x = theta/T; values x 1e4)",
      {"aux_temp", "P=2.0W", "P=5.5W", "P=8.0W"}, rows);

  std::printf("\n");
  for (double power : powers) {
    const stability::FixedPointResult r = stability::analyze(p, power, 1e-5);
    std::printf("P = %.1f W: %-18s", power, to_string(r.cls));
    if (r.num_fixed_points >= 1) {
      std::printf(" stable fixed point x=%.3f (T=%.1f degC)", r.stable_x,
                  r.stable_temp_k - 273.15);
    }
    if (r.num_fixed_points == 2) {
      std::printf(", unstable x=%.3f (T=%.1f degC)", r.unstable_x,
                  r.unstable_temp_k - 273.15);
    }
    std::printf("\n");
  }
  // The arrows in Fig. 7: fixed-point iterates move right where f > 0
  // (between the roots) and left where f < 0.
  const stability::FixedPointResult two_w = stability::analyze(p, 2.0);
  std::printf("\n-- fixed-point iteration at 2 W (the figure's arrows) --\n");
  for (double x0 : {0.5 * (two_w.unstable_x + two_w.stable_x),
                    two_w.stable_x + 1.0, 0.9 * two_w.unstable_x}) {
    const auto xs = stability::iterate_auxiliary(p, 2.0, x0, 2000);
    std::printf("from x=%.3f:", x0);
    for (std::size_t i = 0; i < xs.size();
         i += std::max<std::size_t>(1, xs.size() / 6)) {
      std::printf(" %.3f", xs[i]);
    }
    std::printf(" -> %.3f (%s)\n", xs.back(),
                std::abs(xs.back() - two_w.stable_x) < 0.01
                    ? "stable fixed point"
                    : "runaway");
  }

  std::printf("\nPaper shape: two roots at 2 W, roots merge at exactly\n"
              "5.5 W, no roots at 8 W; the larger auxiliary root (lower\n"
              "temperature) is the stable fixed point.\n");
  return 0;
}
