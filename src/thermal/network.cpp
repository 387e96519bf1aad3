#include "thermal/network.h"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.h"
#include "linalg/expm.h"
#include "linalg/jacobi.h"
#include "util/error.h"

namespace mobitherm::thermal {

using linalg::Matrix;
using linalg::Vector;
using util::ConfigError;
// Vector is an alias for std::vector<double>, so ADL does not reach the
// arithmetic operators defined in mobitherm::linalg; import them by name.
using linalg::operator+;
using linalg::operator-;
using linalg::operator*;

ThermalNetwork::ThermalNetwork(ThermalNetworkSpec spec, StepMethod method)
    : spec_(std::move(spec)), method_(method) {
  if (spec_.nodes.empty()) {
    throw ConfigError("ThermalNetwork: no nodes");
  }
  util::WattPerKelvin total_g_amb{};
  for (const ThermalNodeSpec& n : spec_.nodes) {
    if (n.capacitance_j_per_k <= util::joules_per_kelvin(0.0)) {
      throw ConfigError("ThermalNetwork: node " + n.name +
                        " needs positive capacitance");
    }
    if (n.g_ambient_w_per_k < util::watts_per_kelvin(0.0)) {
      throw ConfigError("ThermalNetwork: negative ambient conductance");
    }
    total_g_amb += n.g_ambient_w_per_k;
  }
  if (total_g_amb <= util::watts_per_kelvin(0.0)) {
    throw ConfigError(
        "ThermalNetwork: at least one node must couple to ambient");
  }
  for (const ThermalLinkSpec& l : spec_.links) {
    if (l.a >= spec_.nodes.size() || l.b >= spec_.nodes.size() ||
        l.a == l.b) {
      throw ConfigError("ThermalNetwork: invalid link endpoints");
    }
    if (l.conductance_w_per_k <= util::watts_per_kelvin(0.0)) {
      throw ConfigError("ThermalNetwork: link conductance must be positive");
    }
  }
  build_matrices();
  reset();
}

void ThermalNetwork::build_matrices() {
  const std::size_t n = spec_.nodes.size();
  g_total_ = Matrix(n, n);
  inv_c_.assign(n, 0.0);
  amb_inject_.assign(n, 0.0);
  // Raw-double linalg boundary: the typed spec feeds the matrices via
  // .value(), and dimensional consistency is re-established at the typed
  // query methods below.
  for (std::size_t i = 0; i < n; ++i) {
    g_total_(i, i) = spec_.nodes[i].g_ambient_w_per_k.value();
    inv_c_[i] = 1.0 / spec_.nodes[i].capacitance_j_per_k.value();
    amb_inject_[i] =
        (spec_.nodes[i].g_ambient_w_per_k * spec_.t_ambient_k).value();
  }
  for (const ThermalLinkSpec& l : spec_.links) {
    g_total_(l.a, l.a) += l.conductance_w_per_k.value();
    g_total_(l.b, l.b) += l.conductance_w_per_k.value();
    g_total_(l.a, l.b) -= l.conductance_w_per_k.value();
    g_total_(l.b, l.a) -= l.conductance_w_per_k.value();
  }
  // The spec is immutable from here on, so factor G once for every
  // steady-state and exact-propagator solve.
  g_chol_.emplace(g_total_);
  scratch_p_.assign(n, 0.0);
  scratch_a_.assign(n, 0.0);
  scratch_b_.assign(n, 0.0);
  k1_.assign(n, 0.0);
  k2_.assign(n, 0.0);
  k3_.assign(n, 0.0);
  k4_.assign(n, 0.0);
  rk_stage_.assign(n, 0.0);
}

void ThermalNetwork::node_out_of_range() {
  throw ConfigError("ThermalNetwork: node index out of range");
}

util::Kelvin ThermalNetwork::max_temperature() const {
  return util::kelvin(*std::max_element(temp_.begin(), temp_.end()));
}

void ThermalNetwork::reset() {
  temp_.assign(spec_.nodes.size(), spec_.t_ambient_k.value());
}

void ThermalNetwork::set_temperatures(const Vector& temps) {
  if (temps.size() != spec_.nodes.size()) {
    throw ConfigError("ThermalNetwork: temperature vector size mismatch");
  }
  temp_ = temps;
}

void ThermalNetwork::step(const Vector& power_w, util::Seconds dt) {
  if (power_w.size() != spec_.nodes.size()) {
    throw ConfigError("ThermalNetwork: power vector size mismatch");
  }
  if (dt <= util::seconds(0.0)) {
    return;
  }
  if (method_ == StepMethod::kExact) {
    step_exact(power_w, dt.value());
  } else {
    step_rk4(power_w, dt.value());
  }
}

// Allocation-free derivative: out = C^{-1} (P + amb - G T). Same
// accumulation order as the old value-semantics formulation.
// MOBILINT: hot-path
void ThermalNetwork::derivative_into(const Vector& temps,
                                     const Vector& power_w,
                                     Vector& out) const {
  linalg::gemv(g_total_, temps, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = inv_c_[i] * (power_w[i] + amb_inject_[i] - out[i]);
  }
}

// MOBILINT: hot-path
void ThermalNetwork::step_rk4(const Vector& power_w, double dt) {
  // Substep so that dt_sub stays below half the fastest time constant.
  double fastest = 1e300;
  for (std::size_t i = 0; i < temp_.size(); ++i) {
    const double gi = g_total_(i, i);
    if (gi > 0.0) {
      fastest = std::min(fastest, 1.0 / (gi * inv_c_[i]));
    }
  }
  const int substeps =
      std::max(1, static_cast<int>(std::ceil(dt / (0.5 * fastest))));
  const double h = dt / substeps;
  // Classic RK4 through preallocated k1..k4 / stage buffers; the stage and
  // update arithmetic keeps the original evaluation order, so trajectories
  // are bit-identical to the allocating formulation.
  const std::size_t n = temp_.size();
  for (int s = 0; s < substeps; ++s) {
    derivative_into(temp_, power_w, k1_);
    for (std::size_t i = 0; i < n; ++i) {
      rk_stage_[i] = temp_[i] + (h / 2.0) * k1_[i];
    }
    derivative_into(rk_stage_, power_w, k2_);
    for (std::size_t i = 0; i < n; ++i) {
      rk_stage_[i] = temp_[i] + (h / 2.0) * k2_[i];
    }
    derivative_into(rk_stage_, power_w, k3_);
    for (std::size_t i = 0; i < n; ++i) {
      rk_stage_[i] = temp_[i] + h * k3_[i];
    }
    derivative_into(rk_stage_, power_w, k4_);
    for (std::size_t i = 0; i < n; ++i) {
      temp_[i] = temp_[i] + (h / 6.0) * (k1_[i] + 2.0 * k2_[i] +
                                         2.0 * k3_[i] + k4_[i]);
    }
  }
}

void ThermalNetwork::prepare_exact(double dt) {
  if (cached_dt_ == dt) {
    return;
  }
  // A = -C^{-1} G. Phi = e^{A dt}.
  const std::size_t n = temp_.size();
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = -inv_c_[i] * g_total_(i, j) * dt;
    }
  }
  phi_ = linalg::expm(a);
  // Psi = (I - Phi) G^{-1}. G^{-1} is symmetric, so row i of Psi is the
  // Cholesky solve of G x = row i of (I - Phi) — no explicit inverse.
  psi_ = Matrix(n, n);
  Vector row(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = (i == j ? 1.0 : 0.0) - phi_(i, j);
    }
    g_chol_->solve_into(row, row);
    for (std::size_t j = 0; j < n; ++j) {
      psi_(i, j) = row[j];
    }
  }
  cached_dt_ = dt;
}

// Warm path is allocation-free; prepare_exact only rebuilds Phi/Psi on a
// dt cache miss (cold by design).
// MOBILINT: hot-path
void ThermalNetwork::step_exact(const Vector& power_w, double dt) {
  prepare_exact(dt);
  // For constant P over the step: T(t+dt) = Phi T + Psi (P + amb), the
  // affine form of T_ss + Phi (T - T_ss).
  const std::size_t n = temp_.size();
  scratch_p_ = power_w;
  linalg::axpy(1.0, amb_inject_, scratch_p_);
  linalg::gemv(phi_, temp_, scratch_a_);
  linalg::gemv(psi_, scratch_p_, scratch_b_);
  for (std::size_t i = 0; i < n; ++i) {
    temp_[i] = scratch_a_[i] + scratch_b_[i];
  }
}

const Matrix& ThermalNetwork::exact_phi() const {
  if (cached_dt_ < 0.0) {
    throw util::NumericError("ThermalNetwork: exact stepper not prepared");
  }
  return phi_;
}

const Matrix& ThermalNetwork::exact_psi() const {
  if (cached_dt_ < 0.0) {
    throw util::NumericError("ThermalNetwork: exact stepper not prepared");
  }
  return psi_;
}

Vector ThermalNetwork::steady_state(const Vector& power_w) const {
  Vector out;
  steady_state_into(power_w, out);
  return out;
}

// MOBILINT: hot-path
void ThermalNetwork::steady_state_into(const Vector& power_w,
                                       Vector& out) const {
  if (power_w.size() != spec_.nodes.size()) {
    throw ConfigError("ThermalNetwork: power vector size mismatch");
  }
  out = power_w;
  linalg::axpy(1.0, amb_inject_, out);
  g_chol_->solve_into(out, out);
}

util::WattPerKelvin ThermalNetwork::total_ambient_conductance() const {
  util::WattPerKelvin g{};
  for (const ThermalNodeSpec& n : spec_.nodes) {
    g += n.g_ambient_w_per_k;
  }
  return g;
}

util::JoulePerKelvin ThermalNetwork::total_capacitance() const {
  util::JoulePerKelvin c{};
  for (const ThermalNodeSpec& n : spec_.nodes) {
    c += n.capacitance_j_per_k;
  }
  return c;
}

util::Seconds ThermalNetwork::slowest_time_constant() const {
  // The spec (and hence G, C) is immutable after construction, so the
  // eigendecomposition is computed at most once.
  if (tau_cache_ > 0.0) {
    return util::seconds(tau_cache_);
  }
  // C^{-1} G is similar to the symmetric S = C^{-1/2} G C^{-1/2}; its
  // eigenvalues are the reciprocal time constants.
  const std::size_t n = temp_.size();
  Matrix s(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) = std::sqrt(inv_c_[i]) * g_total_(i, j) * std::sqrt(inv_c_[j]);
    }
  }
  const linalg::EigenDecomposition eig = linalg::jacobi_eigen(s);
  const double lambda_min = eig.eigenvalues.front();
  if (lambda_min <= 0.0) {
    throw util::NumericError(
        "ThermalNetwork: system matrix is not positive definite");
  }
  tau_cache_ = 1.0 / lambda_min;
  return util::seconds(tau_cache_);
}

}  // namespace mobitherm::thermal
