// SoC power model: frequency/voltage-dependent dynamic power plus
// temperature-dependent leakage.
//
// Dynamic power of a cluster with fractional busy cores b at OPP (f, V):
//     P_dyn = idle + b * ceff * V^2 * f
// Leakage of a cluster at absolute temperature T and voltage V:
//     P_leak = share * A * T^2 * exp(-theta / T) * (V / V_nom)
// where theta = q*Vth/(eta*k) is the leakage temperature constant and A is
// the SoC-level leakage coefficient. This is the BSIM-style model the
// paper's stability analysis (ref. [2], Bhat et al. TECS'17) is built on;
// using the same form in the simulator and the analyzer keeps the
// fixed-point predictions consistent with the simulated physics.
#pragma once

#include <cstddef>
#include <vector>

#include "platform/soc.h"
#include "util/units.h"

namespace mobitherm::power {

/// Leakage model strategy. The paper's analysis uses the BSIM quadratic
/// form; De Vogeleer et al. model leakage as a pure exponential in
/// temperature. power::ModelRegistry names the strategies and derives the
/// alternate parameterizations from a platform's baseline calibration.
enum class LeakageForm {
  /// P_leak = share * A * T^2 * exp(-theta/T) * (V/V_nom)  (paper baseline)
  kBsim,
  /// P_leak = share * A_e * exp(B * T) * (V/V_nom)  (De Vogeleer bias)
  kExpTempBias,
};

/// SoC-level leakage parameters (see file comment).
struct LeakageParams {
  /// Leakage temperature constant theta = q*Vth/(eta*k). (kBsim)
  util::Kelvin theta_k{1857.8};
  /// SoC leakage coefficient A at nominal voltage; distributed over
  /// clusters by ClusterSpec::leakage_share. (kBsim)
  util::WattPerKelvin2 a_w_per_k2{1.5736e-3};
  /// Which of the two functional forms above evaluates the leakage.
  LeakageForm form = LeakageForm::kBsim;
  /// Exponential prefactor A_e at nominal voltage. (kExpTempBias)
  util::Watt exp_a_w{0.0};
  /// Exponential temperature slope B in 1/K. (kExpTempBias)
  double exp_b_per_k = 0.0;
};

/// Per-cluster inputs for one power evaluation.
struct ClusterActivity {
  /// Busy cores, fractional, in [0, online_cores].
  double busy_cores = 0.0;
  /// Absolute temperature of the cluster's thermal node.
  util::Kelvin temp_k{300.0};
};

/// Breakdown of one cluster's power.
struct ClusterPower {
  util::Watt dynamic_w{};
  util::Watt idle_w{};
  util::Watt leakage_w{};
  util::Watt total() const { return dynamic_w + idle_w + leakage_w; }
};

/// Evaluates the SoC power model against a platform::Soc's current DVFS
/// state. Stateless apart from the spec/parameters; all activity is passed
/// in, so the same model instance serves the simulator, the IPA governor's
/// budget-to-frequency inversion, and the benches.
class PowerModel {
 public:
  PowerModel(const platform::SocSpec& spec, LeakageParams leakage,
             util::Watt board_base_w = {});

  /// Constant platform power (regulators, display path, ...) attributed to
  /// the board node; not part of any measured rail.
  util::Watt board_base_w() const { return board_base_w_; }

  /// Power of cluster `c` at the OPP/online state in `soc` under the given
  /// activity.
  ClusterPower cluster_power(const platform::Soc& soc, std::size_t c,
                             const ClusterActivity& activity) const;

  /// Dynamic power of a fully busy core of cluster `c` at OPP `opp`.
  /// Used by the IPA governor to translate power budgets into frequency
  /// caps.
  util::Watt dynamic_per_core_at(std::size_t c, std::size_t opp) const;

  /// SoC leakage at temperature `temp` with every cluster at nominal
  /// voltage (A * T^2 * exp(-theta/T) for the baseline form, A_e * exp(B*T)
  /// for the exponential form). This is the lumped form the stability
  /// analyzer uses.
  util::Watt soc_leakage_nominal(util::Kelvin temp) const;

  std::size_t num_clusters() const { return spec_.clusters.size(); }
  const platform::SocSpec& spec() const { return spec_; }

 private:
  platform::SocSpec spec_;
  LeakageParams leakage_;
  util::Watt board_base_w_;
};

}  // namespace mobitherm::power
