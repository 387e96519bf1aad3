// Microbenchmarks for the thermal substrate and the full engine tick: the
// simulator advances 1000 physics ticks per simulated second, so stepping
// must stay in the microsecond range — and, after warm-up, allocation-free.
// Every bench reports allocs_per_iter via the operator-new hook in
// bench_util.h; tests/hotpath_test.cpp asserts the budgets.
#define MOBITHERM_BENCH_COUNT_ALLOCS
#include "bench_util.h"

#include <benchmark/benchmark.h>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "platform/presets.h"
#include "sim/engine.h"
#include "stability/presets.h"
#include "thermal/network.h"
#include "thermal/presets.h"
#include "workload/presets.h"

namespace {

using namespace mobitherm;

// The allocs_per_iter counter: allocations per call of `f` over a plain
// loop, away from the benchmark library's own state machinery (which
// allocates a handful of times inside the `for (auto _ : state)` region).
template <typename F>
void report_allocs(benchmark::State& state, int iters, F&& f) {
  const bench::AllocationScope scope;
  for (int i = 0; i < iters; ++i) {
    f();
  }
  state.counters["allocs_per_iter"] =
      benchmark::Counter(static_cast<double>(scope.count()) / iters);
}

// --- linalg kernels ------------------------------------------------------

void BM_LinalgGemv(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = 1.0 / static_cast<double>(i + j + 1);
    }
  }
  linalg::Vector x(n, 1.0);
  linalg::Vector y(n, 0.0);
  for (auto _ : state) {
    linalg::gemv(a, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  report_allocs(state, 1000, [&] { linalg::gemv(a, x, y); });
}
BENCHMARK(BM_LinalgGemv)->Arg(5)->Arg(16);

void BM_CholeskySolveInto(benchmark::State& state) {
  // SPD conductance-style matrix: diagonally dominant Laplacian + ground.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  linalg::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.5;
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -1.0;
    }
  }
  const linalg::Cholesky chol(a);
  linalg::Vector b(n, 1.0);
  linalg::Vector x(n, 0.0);
  for (auto _ : state) {
    chol.solve_into(b, x);
    benchmark::DoNotOptimize(x.data());
  }
  report_allocs(state, 1000, [&] { chol.solve_into(b, x); });
}
BENCHMARK(BM_CholeskySolveInto)->Arg(5)->Arg(16);

// --- thermal network ------------------------------------------------------

void BM_NetworkStepExact(benchmark::State& state) {
  thermal::ThermalNetwork net(thermal::odroidxu3_network(),
                              thermal::StepMethod::kExact);
  const linalg::Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  net.step(power, util::seconds(0.001));  // warm the propagator cache
  for (auto _ : state) {
    net.step(power, util::seconds(0.001));
  }
  report_allocs(state, 1000, [&] { net.step(power, util::seconds(0.001)); });
  benchmark::DoNotOptimize(net.temperatures());
}
BENCHMARK(BM_NetworkStepExact);

void BM_NetworkStepRk4(benchmark::State& state) {
  thermal::ThermalNetwork net(thermal::odroidxu3_network(),
                              thermal::StepMethod::kRk4);
  const linalg::Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  net.step(power, util::seconds(0.001));  // warm the scratch buffers
  for (auto _ : state) {
    net.step(power, util::seconds(0.001));
  }
  report_allocs(state, 1000, [&] { net.step(power, util::seconds(0.001)); });
  benchmark::DoNotOptimize(net.temperatures());
}
BENCHMARK(BM_NetworkStepRk4);

void BM_NetworkSteadyState(benchmark::State& state) {
  thermal::ThermalNetwork net(thermal::odroidxu3_network());
  const linalg::Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.steady_state(power));
  }
  report_allocs(state, 1000, [&] {
    benchmark::DoNotOptimize(net.steady_state(power));
  });
}
BENCHMARK(BM_NetworkSteadyState);

// Governor-side steady_state at tick rate against the construction-time
// factorization, writing into caller-owned scratch: the fully cached path.
void BM_NetworkSteadyStateCached(benchmark::State& state) {
  thermal::ThermalNetwork net(thermal::odroidxu3_network());
  const linalg::Vector power = {0.2, 2.0, 1.5, 0.3, 0.25};
  linalg::Vector out(net.num_nodes(), 0.0);
  for (auto _ : state) {
    net.steady_state_into(power, out);
    benchmark::DoNotOptimize(out.data());
  }
  report_allocs(state, 1000, [&] { net.steady_state_into(power, out); });
}
BENCHMARK(BM_NetworkSteadyStateCached);

void BM_EngineTick(benchmark::State& state) {
  const stability::Params p = stability::odroid_xu3_params();
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k, p.leak_a_w_per_k2},
                     0.25);
  engine.add_app(workload::threedmark());
  engine.add_app(workload::bml());
  engine.run(2.0);  // warm sliding windows, trace and scratch buffers
  for (auto _ : state) {
    engine.run(0.001);  // one tick
  }
  // Pre-rewrite the engine allocated ~6 times per tick; only decimated
  // trace points remain (~0.02/tick).
  report_allocs(state, 1000, [&] { engine.run(0.001); });
  benchmark::DoNotOptimize(engine.total_power_w());
}
BENCHMARK(BM_EngineTick);

void BM_EngineSimulatedSecond(benchmark::State& state) {
  const stability::Params p = stability::odroid_xu3_params();
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     power::LeakageParams{p.leak_theta_k, p.leak_a_w_per_k2},
                     0.25);
  engine.add_app(workload::threedmark());
  engine.run(2.0);
  for (auto _ : state) {
    engine.run(1.0);
  }
  // Pre-rewrite: ~6040 allocations per simulated second.
  report_allocs(state, 5, [&] { engine.run(1.0); });
  state.SetItemsProcessed(state.iterations() * 1000);  // ticks
}
BENCHMARK(BM_EngineSimulatedSecond);

}  // namespace
