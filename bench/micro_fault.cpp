// Microbenchmarks for the fault-injection layer: a disabled FaultPlan
// probe (a single branch; tests/hotpath_test.cpp asserts that it never
// allocates), an armed decision, an armed probe with its journal, the
// cache's checksummed round trip and the server's error path.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>

#include "service/result_cache.h"
#include "service/server.h"
#include "service/service.h"
#include "util/fault.h"

namespace {

using namespace mobitherm;
using util::FaultPlan;
using util::FaultPlanConfig;
using util::FaultSite;

FaultPlan armed_plan(std::uint64_t seed) {
  FaultPlanConfig config;
  config.seed = seed;
  for (int i = 0; i < util::kNumFaultSites; ++i) {
    config.probability[i] = 0.5;
  }
  return FaultPlan(config);
}

std::shared_ptr<service::JobResult> canned_result(std::size_t bytes) {
  auto result = std::make_shared<service::JobResult>();
  result->payload.assign(bytes, 'x');
  return result;
}

void BM_DisabledProbe(benchmark::State& state) {
  FaultPlan plan;  // default: disabled
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan.fires(FaultSite::kWorkerCrashBeforeSlice, key++));
  }
}
BENCHMARK(BM_DisabledProbe);

void BM_ArmedDecision(benchmark::State& state) {
  const FaultPlan plan = armed_plan(7);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan.should_inject(FaultSite::kWorkerCrashBeforeSlice, key++));
  }
}
BENCHMARK(BM_ArmedDecision);

void BM_ArmedProbeWithJournal(benchmark::State& state) {
  FaultPlan plan = armed_plan(7);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        plan.fires(FaultSite::kWorkerCrashBeforeSlice, key++));
  }
}
BENCHMARK(BM_ArmedProbeWithJournal);

/// Checksummed insert + lookup round trip (the cost the checksum adds to
/// every cache transaction, without injection).
void BM_CacheChecksumRoundTrip(benchmark::State& state) {
  service::ResultCache cache(/*capacity=*/64);
  const auto result = canned_result(16 * 1024);
  std::uint64_t key = 0;
  for (auto _ : state) {
    cache.insert(key, "canonical", result);
    benchmark::DoNotOptimize(cache.lookup(key, "canonical"));
    ++key;
  }
}
BENCHMARK(BM_CacheChecksumRoundTrip)->Unit(benchmark::kMicrosecond);

/// The server's structured-error path (parse failure -> error object).
void BM_ServerErrorPath(benchmark::State& state) {
  service::SimService service(service::ScenarioRegistry::standard(), {});
  service::SimServer server(service);
  const std::string line = "{\"op\":\"warp\"}";
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(line));
  }
}
BENCHMARK(BM_ServerErrorPath);

}  // namespace
