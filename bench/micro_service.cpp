// Microbenchmarks for the simulation service layer: a cold submit, a
// cache hit, the canonical key and the stats op. service_test asserts
// that a hit is byte-identical and at least 10x faster than the cold run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace mobitherm;

service::ServiceConfig quick_config() {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  cfg.cache_capacity = 8;
  return cfg;
}

// A short Nexus run: long enough that a cold simulation dwarfs the cache
// bookkeeping, short enough to keep the bench quick.
service::SimRequest quick_request(std::uint64_t seed) {
  service::SimRequest req;
  req.scenario = "nexus";
  req.app = "paperio";
  req.duration_s = 10.0;
  req.seed = seed;
  return req;
}

/// Submit + wait; returns the job id. Aborts the process on rejection so a
/// misconfigured bench cannot silently measure nothing.
std::uint64_t submit_and_wait(service::SimService& service,
                              const service::SimRequest& req) {
  const service::SubmitOutcome out = service.submit(req);
  if (!out.accepted || !service.wait(out.id, 600.0)) {
    std::fprintf(stderr, "micro_service: submit failed: %s\n",
                 out.reject_reason.c_str());
    std::abort();
  }
  return out.id;
}

void BM_ServiceColdMiss(benchmark::State& state) {
  service::SimService service(service::ScenarioRegistry::standard(),
                              quick_config());
  std::uint64_t seed = 1000;  // fresh seed per iteration: every run misses
  for (auto _ : state) {
    benchmark::DoNotOptimize(submit_and_wait(service, quick_request(seed++)));
  }
}
BENCHMARK(BM_ServiceColdMiss)->Unit(benchmark::kMillisecond);

void BM_ServiceCacheHit(benchmark::State& state) {
  service::SimService service(service::ScenarioRegistry::standard(),
                              quick_config());
  const service::SimRequest req = quick_request(42);
  submit_and_wait(service, req);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(submit_and_wait(service, req));
  }
}
BENCHMARK(BM_ServiceCacheHit)->Unit(benchmark::kMicrosecond);

void BM_CanonicalKey(benchmark::State& state) {
  const service::ScenarioRegistry& registry = service::standard_registry();
  const service::SimRequest req = quick_request(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.canonical_key(req));
  }
}
BENCHMARK(BM_CanonicalKey);

void BM_ServerStatsOp(benchmark::State& state) {
  service::SimService service(service::ScenarioRegistry::standard(),
                              quick_config());
  service::SimServer server(service);
  const std::string line = "{\"op\":\"stats\"}";
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(line));
  }
}
BENCHMARK(BM_ServerStatsOp);

}  // namespace
