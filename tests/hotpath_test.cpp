// Hot-path contract tests for ISSUE 2: the allocation-free physics path.
//
// Three groups:
//  1. in-place linalg kernels (gemv/axpy/scal/solve_into) are bit-identical
//     to the value-semantics operators they shadow,
//  2. the rewritten exact stepper T' = Phi T + Psi (P + amb) matches both
//     the affine map evaluated with value semantics (tolerance 0) and the
//     pre-rewrite Phi/G^{-1} formulation, and the three solvers
//     (step_exact, step_rk4, steady_state) agree in the long-time limit on
//     the Odroid and Nexus networks,
//  3. a global operator-new hook proves the warmed-up steppers allocate
//     nothing, a warm engine tick allocates far less than the ~6
//     allocations/tick of the pre-rewrite engine, and a sliding window fed
//     a constant dt allocates its ring once.
//
// This binary replaces the global operator new/delete, so it must stay its
// own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "linalg/cholesky.h"
#include "linalg/lu.h"
#include "linalg/matrix.h"
#include "platform/presets.h"
#include "sim/engine.h"
#include "stability/presets.h"
#include "thermal/network.h"
#include "thermal/presets.h"
#include "util/sliding_window.h"
#include "workload/presets.h"

namespace {

std::atomic<std::size_t> g_alloc_count{0};

std::size_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace

// Not inlined: once GCC sees the malloc inside `new` and the free inside
// `delete` at one call site, it reports the correct pairing as
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mobitherm {
namespace {

using linalg::Matrix;
using linalg::Vector;
using linalg::operator+;
using linalg::operator-;
using linalg::operator*;

Matrix spd_test_matrix(std::size_t n) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0 + 0.25 * static_cast<double>(i);
    if (i + 1 < n) {
      a(i, i + 1) = -0.7;
      a(i + 1, i) = -0.7;
    }
  }
  return a;
}

// --- 1. kernel equivalence ------------------------------------------------

TEST(HotPathKernels, GemvMatchesOperatorBitwise) {
  const std::size_t n = 7;
  Matrix a(n, n);
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.3 * static_cast<double>(i) - 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = 1.0 / static_cast<double>(i + 2 * j + 1);
    }
  }
  const Vector expected = a * x;
  Vector y;
  linalg::gemv(a, x, y);
  ASSERT_EQ(expected.size(), y.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(expected[i], y[i]) << i;  // bitwise, no tolerance
  }
}

TEST(HotPathKernels, AxpyAndScalMatchOperatorsBitwise) {
  const Vector x = {1.0, -2.5, 3.75, 1e-9};
  Vector y = {0.5, 0.25, -1.0, 2.0};
  const Vector expected_axpy = y + 0.37 * x;
  Vector y2 = y;
  linalg::axpy(0.37, x, y2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(expected_axpy[i], y2[i]) << i;
  }

  const Vector expected_scal = y * 1.618;
  linalg::scal(1.618, y);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(expected_scal[i], y[i]) << i;
  }
}

TEST(HotPathKernels, SolveIntoMatchesSolveBitwiseAndAllowsAliasing) {
  const Matrix a = spd_test_matrix(6);
  const linalg::Cholesky chol(a);
  Vector b(6);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 - 0.2 * static_cast<double>(i);
  }
  const Vector expected = chol.solve(b);

  Vector x;
  chol.solve_into(b, x);
  ASSERT_EQ(expected.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(expected[i], x[i]) << i;
  }

  // In-place: solve over the right-hand side itself.
  Vector inplace = b;
  chol.solve_into(inplace, inplace);
  for (std::size_t i = 0; i < inplace.size(); ++i) {
    EXPECT_EQ(expected[i], inplace[i]) << i;
  }
}

// --- 2. exact-stepper equivalence ----------------------------------------

TEST(HotPathExactStepper, MatchesAffineMapWithToleranceZero) {
  thermal::ThermalNetwork net(thermal::odroidxu3_network(),
                              thermal::StepMethod::kExact);
  thermal::ThermalNetwork ref(thermal::odroidxu3_network(),
                              thermal::StepMethod::kExact);
  const Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  ref.step(power, util::seconds(0.001));  // prepare Phi/Psi on the reference
  const Matrix& phi = ref.exact_phi();
  const Matrix& psi = ref.exact_psi();

  // Walk both for 200 ticks; the in-place stepper must match the
  // value-semantics affine map Phi T + Psi (P + amb) exactly (tolerance 0).
  Vector expected = net.temperatures();
  for (int t = 0; t < 200; ++t) {
    expected = phi * expected + psi * (power + ref.ambient_injection());
    net.step(power, util::seconds(0.001));
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i], net.temperatures()[i]) << "tick " << t;
    }
  }
}

TEST(HotPathExactStepper, MatchesPreRewriteFormulation) {
  // Pre-rewrite stepper: T' = T_ss + Phi (T - T_ss), with
  // T_ss = G^{-1} (P + amb) through an explicitly inverted G.
  thermal::ThermalNetwork net(thermal::odroidxu3_network(),
                              thermal::StepMethod::kExact);
  const Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  net.step(power, util::seconds(0.001));

  const std::size_t n = net.num_nodes();
  Matrix g(n, n);
  {
    // Rebuild G_total from the spec exactly as build_matrices() does.
    const thermal::ThermalNetworkSpec spec = thermal::odroidxu3_network();
    for (std::size_t i = 0; i < n; ++i) {
      g(i, i) = spec.nodes[i].g_ambient_w_per_k.value();
    }
    for (const thermal::ThermalLinkSpec& l : spec.links) {
      g(l.a, l.a) += l.conductance_w_per_k.value();
      g(l.b, l.b) += l.conductance_w_per_k.value();
      g(l.a, l.b) -= l.conductance_w_per_k.value();
      g(l.b, l.a) -= l.conductance_w_per_k.value();
    }
  }
  const Matrix g_inverse = linalg::inverse(g);
  const Matrix& phi = net.exact_phi();

  thermal::ThermalNetwork probe(thermal::odroidxu3_network(),
                                thermal::StepMethod::kExact);
  Vector old_t = probe.temperatures();
  for (int t = 0; t < 500; ++t) {
    const Vector t_ss = g_inverse * (power + probe.ambient_injection());
    old_t = t_ss + phi * (old_t - t_ss);
    probe.step(power, util::seconds(0.001));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(old_t[i], probe.temperatures()[i], 1e-9)
          << "tick " << t << " node " << i;
    }
  }
}

class SolverConvergence
    : public ::testing::TestWithParam<thermal::ThermalNetworkSpec> {};

TEST_P(SolverConvergence, ExactRk4AndSteadyStateAgree) {
  const thermal::ThermalNetworkSpec spec = GetParam();
  thermal::ThermalNetwork exact(spec, thermal::StepMethod::kExact);
  thermal::ThermalNetwork rk4(spec, thermal::StepMethod::kRk4);
  Vector power(spec.nodes.size(), 0.0);
  for (std::size_t i = 0; i < power.size(); ++i) {
    power[i] = 0.3 + 0.4 * static_cast<double>(i % 3);
  }
  const Vector ss = exact.steady_state(power);

  // March both integrators far past the slowest time constant: the
  // transient decays by e^-25, leaving only integrator bias.
  const double tau = exact.slowest_time_constant().value();
  const double horizon = 25.0 * tau;
  const double dt = 0.05;
  const int ticks = static_cast<int>(horizon / dt) + 1;
  for (int t = 0; t < ticks; ++t) {
    exact.step(power, util::seconds(dt));
    rk4.step(power, util::seconds(dt));
  }
  for (std::size_t i = 0; i < power.size(); ++i) {
    EXPECT_NEAR(exact.temperatures()[i], ss[i], 1e-6) << "node " << i;
    EXPECT_NEAR(rk4.temperatures()[i], ss[i], 1e-3) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OdroidAndNexus, SolverConvergence,
    ::testing::Values(thermal::odroidxu3_network(),
                      thermal::nexus6p_network()),
    [](const ::testing::TestParamInfo<thermal::ThermalNetworkSpec>& info) {
      return info.index == 0 ? "odroidxu3" : "nexus6p";
    });

TEST(HotPathSteadyState, IntoVariantMatchesValueVariantBitwise) {
  thermal::ThermalNetwork net(thermal::nexus6p_network());
  Vector power(net.num_nodes(), 0.0);
  power[0] = 1.7;
  const Vector expected = net.steady_state(power);
  Vector out;
  net.steady_state_into(power, out);
  ASSERT_EQ(expected.size(), out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(expected[i], out[i]) << i;
  }
}

// --- 3. allocation counting ----------------------------------------------

TEST(HotPathAllocations, WarmExactStepIsAllocationFree) {
  thermal::ThermalNetwork net(thermal::odroidxu3_network(),
                              thermal::StepMethod::kExact);
  const Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  net.step(power, util::seconds(0.001));  // warm the propagator cache
  const std::size_t before = alloc_count();
  for (int t = 0; t < 1000; ++t) {
    net.step(power, util::seconds(0.001));
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(HotPathAllocations, WarmRk4StepIsAllocationFree) {
  thermal::ThermalNetwork net(thermal::odroidxu3_network(),
                              thermal::StepMethod::kRk4);
  const Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  net.step(power, util::seconds(0.001));
  const std::size_t before = alloc_count();
  for (int t = 0; t < 1000; ++t) {
    net.step(power, util::seconds(0.001));
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(HotPathAllocations, SteadyStateIntoIsAllocationFree) {
  thermal::ThermalNetwork net(thermal::odroidxu3_network());
  const Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  Vector out(net.num_nodes(), 0.0);
  net.steady_state_into(power, out);  // size the output once
  const std::size_t before = alloc_count();
  for (int t = 0; t < 1000; ++t) {
    net.steady_state_into(power, out);
  }
  EXPECT_EQ(alloc_count() - before, 0u);
}

TEST(HotPathAllocations, WarmEngineTicksStayWellUnderPreRewriteRate) {
  const stability::Params p = stability::odroid_xu3_params();
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k, p.leak_a_w_per_k2},
                     0.25);
  engine.add_app(workload::threedmark());
  engine.add_app(workload::bml());
  engine.run(2.0);  // warm sliding windows, trace and scratch buffers
  const std::size_t before = alloc_count();
  engine.run(1.0);  // 1000 ticks
  const std::size_t per_kilotick = alloc_count() - before;
  // Pre-rewrite: ~6 allocations per tick (~6000 per 1000 ticks). The
  // acceptance bar is >=2x fewer; in practice only the decimated trace
  // points remain (~20), so assert with an order-of-magnitude margin.
  EXPECT_LT(per_kilotick, 3000u);
  EXPECT_LT(per_kilotick, 100u) << "unexpected per-tick allocations crept "
                                   "into the engine hot path";
}

TEST(HotPathAllocations, ConstantDtWindowAllocatesAtMostTwice) {
  // The ring is sized for a full window on the first push, so a constant
  // dt never makes it grow.
  util::SlidingWindow window(1.0);
  const std::size_t before = alloc_count();
  for (int i = 0; i < 100000; ++i) {
    window.push(1e-3, static_cast<double>(i % 7));
  }
  EXPECT_LE(alloc_count() - before, 2u);
}

}  // namespace
}  // namespace mobitherm
