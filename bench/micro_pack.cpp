// Microbenchmarks for the workload-pack catalog path: JSON pack parsing +
// content hashing, registry resolution of pack-qualified requests, and
// the per-tick cost of the synthetic stressor workloads. pack_test asserts
// that the content hash is deterministic and that a pack-qualified
// canonical key embeds it.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "service/scenario_registry.h"
#include "workload/app.h"
#include "workload/pack.h"
#include "workload/synthetic.h"

namespace {

using namespace mobitherm;

/// A representative pack document: one scripted app, one templated app.
const char* kBenchPackText = R"({
  "pack": "bench",
  "description": "micro_pack probe",
  "apps": [
    {"name": "spike", "target_fps": 60, "threads": 4,
     "phases": [
       {"duration_s": 20, "cpu_work_per_frame": 3.0e7,
        "gpu_work_per_frame": 1.5e7},
       {"duration_s": 10, "cpu_work_per_frame": 1.2e8,
        "gpu_work_per_frame": 6.0e7},
       {"duration_s": 30, "cpu_work_per_frame": 5.0e7,
        "gpu_work_per_frame": 2.0e7}
     ]},
    {"name": "burn", "template": {"name": "cpu_burn_ramp",
     "steps": 12, "step_s": 4, "cpu_from": 2.0e7, "cpu_to": 2.4e8}}
  ]
})";

service::ScenarioRegistry pack_registry() {
  service::ScenarioRegistry registry =
      service::ScenarioRegistry::standard();
  auto packs = std::make_shared<workload::PackSet>();
  packs->add(workload::synthetic_stressor_pack());
  packs->add(workload::parse_pack_text(kBenchPackText, "bench.json"));
  registry.attach_packs(std::move(packs));
  return registry;
}

service::SimRequest pack_request() {
  service::SimRequest req;
  req.scenario = "nexus";
  req.app = "bench/spike";
  req.duration_s = 10.0;
  return req;
}

void BM_PackParseAndHash(benchmark::State& state) {
  const std::string text = kBenchPackText;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        workload::parse_pack_text(text, "bench.json"));
  }
}
BENCHMARK(BM_PackParseAndHash)->Unit(benchmark::kMicrosecond);

void BM_SyntheticPackBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::synthetic_stressor_pack());
  }
}
BENCHMARK(BM_SyntheticPackBuild)->Unit(benchmark::kMicrosecond);

void BM_PackCanonicalKey(benchmark::State& state) {
  const service::ScenarioRegistry registry = pack_registry();
  const service::SimRequest req = pack_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.canonical_key(req));
  }
}
BENCHMARK(BM_PackCanonicalKey);

void BM_PackEngineBuild(benchmark::State& state) {
  const service::ScenarioRegistry registry = pack_registry();
  const service::SimRequest req = pack_request();
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.make_engine(req));
  }
}
BENCHMARK(BM_PackEngineBuild)->Unit(benchmark::kMicrosecond);

/// Tick cost of one synthetic stressor through the full engine loop: one
/// simulated second of the cpu-burn ramp per iteration.
void BM_SyntheticStressorSimSecond(benchmark::State& state) {
  const service::ScenarioRegistry registry = pack_registry();
  service::SimRequest req;
  req.scenario = "nexus";
  req.app = "synthetic/cpu_burn_ramp";
  req.duration_s = 1.0;
  for (auto _ : state) {
    auto engine = registry.make_engine(req);
    engine->run(1.0);
    benchmark::DoNotOptimize(engine);
  }
}
BENCHMARK(BM_SyntheticStressorSimSecond)->Unit(benchmark::kMillisecond);

}  // namespace
