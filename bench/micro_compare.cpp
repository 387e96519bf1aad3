// Microbenchmarks for the best-arm comparison subsystem: the Welford
// accumulator, the normal quantile, one round's decision and a
// verdict-cache hit. compare_test asserts the early stop's seed saving
// and that a repeated comparison is at least 10x faster than the first.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "service/scenario_registry.h"
#include "service/service.h"
#include "sim/compare.h"
#include "sim/montecarlo.h"
#include "util/rng.h"

namespace {

using namespace mobitherm;

service::ServiceConfig quick_config() {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  cfg.cache_capacity = 128;
  return cfg;
}

// Odroid IPA vs. app-aware governor with BML: a ~15 degC peak-temperature
// gap against ~0.01 degC of seed noise — separated at the minimum sample
// count.
service::CompareRequest odroid_compare() {
  service::CompareRequest request;
  service::CompareArmRequest ipa;
  ipa.request.scenario = "odroid";
  ipa.request.policy = "default";
  ipa.request.with_bml = true;
  ipa.request.duration_s = 60.0;
  service::CompareArmRequest appaware = ipa;
  appaware.request.policy = "proposed";
  request.arms = {ipa, appaware};
  request.metric = "peak_temp_c";
  request.max_seeds = 8;
  request.round_seeds = 2;
  request.min_seeds = 2;
  return request;
}

/// Submit + wait; aborts on rejection so a misconfigured bench cannot
/// silently measure nothing. Returns the verdict payload.
std::string compare_and_wait(service::SimService& service,
                             const service::CompareRequest& request) {
  const service::SubmitOutcome out = service.submit_compare(request);
  if (!out.accepted || !service.wait(out.id, 600.0)) {
    std::fprintf(stderr, "micro_compare: submit_compare failed: %s\n",
                 out.reject_reason.c_str());
    std::abort();
  }
  const auto result = service.result(out.id);
  if (!result) {
    std::fprintf(stderr, "micro_compare: compare job produced no result\n");
    std::abort();
  }
  return result->payload;
}

void BM_WelfordAccumulate(benchmark::State& state) {
  // One seed's worth of accumulator traffic: stream 1024 metric-like
  // values through mean/M2/min/max.
  std::vector<double> xs(1024);
  std::uint64_t seed = 9;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    seed = util::derive_seed(seed, i);
    xs[i] = 50.0 + static_cast<double>(seed % 1000) * 0.01;
  }
  for (auto _ : state) {
    sim::WelfordAccumulator acc;
    for (double x : xs) {
      acc.add(x);
    }
    benchmark::DoNotOptimize(acc.mean());
    benchmark::DoNotOptimize(acc.variance());
  }
}
BENCHMARK(BM_WelfordAccumulate);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.5000001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::normal_quantile(p));
    p += 1e-7;
    if (p >= 0.9999) {
      p = 0.5000001;
    }
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_DecideBestArm(benchmark::State& state) {
  // Eight arms, 32 samples each: the per-round decision at full budget.
  std::vector<sim::WelfordAccumulator> arms(8);
  for (std::size_t a = 0; a < arms.size(); ++a) {
    for (int i = 0; i < 32; ++i) {
      arms[a].add(60.0 + static_cast<double>(a) * 0.5 +
                  0.01 * static_cast<double>(i % 7));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::decide_best_arm(arms, 0.95, true));
  }
}
BENCHMARK(BM_DecideBestArm);

void BM_CompareCacheHit(benchmark::State& state) {
  service::SimService service(service::ScenarioRegistry::standard(),
                              quick_config());
  const service::CompareRequest request = odroid_compare();
  compare_and_wait(service, request);  // warm the verdict cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(compare_and_wait(service, request));
  }
}
BENCHMARK(BM_CompareCacheHit)->Unit(benchmark::kMicrosecond);

}  // namespace
