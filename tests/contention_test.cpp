// Tests for the memory-bandwidth contention model.
#include <gtest/gtest.h>

#include "platform/presets.h"
#include "sim/engine.h"
#include "stability/presets.h"
#include "thermal/presets.h"
#include "util/error.h"
#include "util/units.h"
#include "workload/presets.h"

namespace mobitherm {
namespace {

power::LeakageParams odroid_leakage() {
  const stability::Params p = stability::odroid_xu3_params();
  return power::LeakageParams{p.leak_theta_k, p.leak_a_w_per_k2};
}

// --- memory contention -----------------------------------------------------------

workload::AppSpec streaming_app(const char* name, double intensity) {
  workload::AppSpec app;
  app.name = name;
  app.target_fps = 60.0;
  app.phases = {{10.0, 4.0e7, 8.0e6}};
  app.mem_bytes_per_work = intensity;
  return app;
}

TEST(MemoryContention, DisabledByDefault) {
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     odroid_leakage(), 0.25);
  engine.add_app(streaming_app("a", 8.0));
  engine.run(2.0);
  EXPECT_DOUBLE_EQ(engine.memory_bandwidth_gbps(), 0.0);
  EXPECT_DOUBLE_EQ(engine.memory_stall_fraction(), 0.0);
}

TEST(MemoryContention, TracksAggregateTraffic) {
  sim::EngineConfig cfg;
  cfg.enable_memory_contention = true;
  cfg.mem_peak_bandwidth_gbps = 1000.0;  // uncontended
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     odroid_leakage(), 0.25, cfg);
  engine.add_app(streaming_app("a", 8.0));
  engine.run(2.0);
  // Demand ~ (cpu 2.4e9 + gpu 4.8e8) * 8 bytes ~ 23 GB/s.
  EXPECT_GT(engine.memory_bandwidth_gbps(), 10.0);
  EXPECT_LT(engine.memory_bandwidth_gbps(), 40.0);
  EXPECT_DOUBLE_EQ(engine.memory_stall_fraction(), 0.0);
}

TEST(MemoryContention, StallsWhenOverPeak) {
  sim::EngineConfig cfg;
  cfg.enable_memory_contention = true;
  cfg.mem_peak_bandwidth_gbps = 5.0;  // scarce bandwidth
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     odroid_leakage(), 0.25, cfg);
  const std::size_t a = engine.add_app(streaming_app("a", 8.0));
  engine.run(5.0);
  EXPECT_GT(engine.memory_stall_fraction(), 0.1);

  // The stall costs frames relative to an unconstrained run.
  sim::EngineConfig free_cfg = cfg;
  free_cfg.mem_peak_bandwidth_gbps = 1000.0;
  sim::Engine unconstrained(platform::exynos5422(),
                            thermal::odroidxu3_network(), odroid_leakage(),
                            0.25, free_cfg);
  const std::size_t b = unconstrained.add_app(streaming_app("a", 8.0));
  unconstrained.run(5.0);
  EXPECT_LT(engine.app(a).total_frames(),
            0.9 * unconstrained.app(b).total_frames());
}

TEST(MemoryContention, SecondStreamHurtsTheFirst) {
  sim::EngineConfig cfg;
  cfg.enable_memory_contention = true;
  cfg.mem_peak_bandwidth_gbps = 20.0;
  auto run_with = [&](bool second) {
    sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                       odroid_leakage(), 0.25, cfg);
    const std::size_t a = engine.add_app(streaming_app("a", 6.0));
    if (second) {
      engine.add_app(streaming_app("b", 6.0));
    }
    engine.run(5.0);
    return engine.app(a).total_frames();
  };
  EXPECT_LT(run_with(true), run_with(false));
}

TEST(MemoryContention, ZeroIntensityAppsAreUnaffected) {
  sim::EngineConfig cfg;
  cfg.enable_memory_contention = true;
  cfg.mem_peak_bandwidth_gbps = 5.0;
  sim::Engine engine(platform::exynos5422(), thermal::odroidxu3_network(),
                     odroid_leakage(), 0.25, cfg);
  engine.add_app(workload::threedmark());  // intensity 0
  engine.run(2.0);
  EXPECT_DOUBLE_EQ(engine.memory_bandwidth_gbps(), 0.0);
  EXPECT_DOUBLE_EQ(engine.memory_stall_fraction(), 0.0);
}

}  // namespace
}  // namespace mobitherm
