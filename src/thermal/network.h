// Compact RC thermal network (HotSpot-style).
//
// Nodes carry a heat capacitance and an optional conductance to ambient;
// links couple node pairs. The dynamics are
//     C dT/dt = -G_total T + P + g_amb * T_amb
// where G_total = Laplacian(links) + diag(g_amb) is symmetric positive
// definite whenever at least one node is grounded to ambient.
//
// Two integrators are provided:
//  * kExact — exact propagator for piecewise-constant power, built once per
//             step size from the eigendecomposition of the symmetrized
//             system matrix (robust to stiffness; the default, and the
//             only one any simulation path selects),
//  * kRk4   — classic Runge-Kutta with automatic substepping, kept as the
//             independent reference the tests check kExact against
//             (micro_thermal also times it next to kExact).
//
// Hot-path allocation policy: the spec is immutable after construction, so
// the G factorization is computed once and cached; the exact stepper is
// precomputed as the affine map T' = Phi T + Psi (P + amb) with
// Psi = (I - Phi) G^{-1} obtained via Cholesky solves; and both steppers
// write through network-owned scratch, so step() and steady_state_into()
// never touch the heap after the first step at a given dt.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "util/units.h"

namespace mobitherm::thermal {

struct ThermalNodeSpec {
  std::string name;
  util::JoulePerKelvin capacitance_j_per_k{1.0};
  util::WattPerKelvin g_ambient_w_per_k{};
};

struct ThermalLinkSpec {
  std::size_t a = 0;
  std::size_t b = 0;
  util::WattPerKelvin conductance_w_per_k{};
};

struct ThermalNetworkSpec {
  std::vector<ThermalNodeSpec> nodes;
  std::vector<ThermalLinkSpec> links;
  util::Kelvin t_ambient_k{298.15};
};

enum class StepMethod { kRk4, kExact };

class ThermalNetwork {
 public:
  explicit ThermalNetwork(ThermalNetworkSpec spec,
                          StepMethod method = StepMethod::kExact);

  std::size_t num_nodes() const { return spec_.nodes.size(); }
  const ThermalNetworkSpec& spec() const { return spec_; }

  /// Integration method chosen at construction.
  StepMethod method() const { return method_; }

  /// Current node temperatures (K; raw-double linalg boundary).
  const linalg::Vector& temperatures() const { return temp_; }
  /// Throws ConfigError for node >= num_nodes(). Inline: every tick
  /// reads it.
  util::Kelvin temperature(std::size_t node) const {
    if (node >= temp_.size()) {
      node_out_of_range();
    }
    return util::kelvin(temp_[node]);
  }
  util::Kelvin max_temperature() const;

  /// Reset all nodes to ambient (or to the given vector).
  void reset();
  void set_temperatures(const linalg::Vector& temps);

  /// Advance by dt with node power injection `power_w` (held constant
  /// over the step; entries in watts — the linalg boundary is raw).
  void step(const linalg::Vector& power_w, util::Seconds dt);

  /// Steady-state temperatures for constant power (solves G_total T = P +
  /// g_amb T_amb) against the factorization cached at construction.
  linalg::Vector steady_state(const linalg::Vector& power_w) const;

  /// Allocation-free steady_state: writes into caller-owned `out` (which
  /// may be reused across calls; resized on first use).
  void steady_state_into(const linalg::Vector& power_w,
                         linalg::Vector& out) const;

  /// Exact-stepper affine map for the last-prepared step size:
  /// T' = exact_phi() T + exact_psi() (P + ambient_injection()). Only valid
  /// after a kExact step (throws NumericError before).
  const linalg::Matrix& exact_phi() const;
  const linalg::Matrix& exact_psi() const;

  /// Per-node ambient injection g_amb * T_amb (W).
  const linalg::Vector& ambient_injection() const { return amb_inject_; }

  /// Total conductance to ambient; the lumped-model G equivalent.
  util::WattPerKelvin total_ambient_conductance() const;

  /// Sum of node capacitances; the lumped-model C equivalent.
  util::JoulePerKelvin total_capacitance() const;

  /// Slowest time constant of the network, from the smallest eigenvalue
  /// of C^{-1} G_total.
  util::Seconds slowest_time_constant() const;

  util::Kelvin ambient_k() const { return spec_.t_ambient_k; }

 private:
  [[noreturn]] static void node_out_of_range();
  void build_matrices();
  void prepare_exact(double dt);
  void step_rk4(const linalg::Vector& power_w, double dt);
  void step_exact(const linalg::Vector& power_w, double dt);
  void derivative_into(const linalg::Vector& temps,
                       const linalg::Vector& power_w,
                       linalg::Vector& out) const;

  ThermalNetworkSpec spec_;
  StepMethod method_;
  linalg::Matrix g_total_;    // conductance matrix incl. ambient ground
  linalg::Vector inv_c_;      // 1 / capacitance per node
  linalg::Vector amb_inject_; // g_amb * T_amb per node
  linalg::Vector temp_;

  // G factorization, built once at construction (the spec is immutable).
  std::optional<linalg::Cholesky> g_chol_;

  // Exact-propagator cache, keyed by the last step size.
  double cached_dt_ = -1.0;
  linalg::Matrix phi_;  // e^{-C^{-1} G dt}
  linalg::Matrix psi_;  // (I - Phi) G^{-1}: maps P + amb to the step input

  // Stepper scratch (sized at construction; reused every step).
  linalg::Vector scratch_p_;   // P + amb
  linalg::Vector scratch_a_;   // Phi T
  linalg::Vector scratch_b_;   // Psi (P + amb)
  linalg::Vector k1_, k2_, k3_, k4_, rk_stage_;

  // slowest_time_constant() memo (the spec is immutable, so it never
  // invalidates).
  mutable double tau_cache_ = -1.0;
};

}  // namespace mobitherm::thermal
