// Unit tests for the workload module: app model, phases, fps accounting,
// presets, Nenamark scoring.
#include <gtest/gtest.h>

#include <algorithm>

#include "platform/presets.h"
#include "workload/app.h"
#include "workload/presets.h"
#include "util/error.h"

namespace mobitherm::workload {
namespace {

using platform::Soc;
using platform::SocSpec;
using util::ConfigError;

struct Fixture {
  SocSpec spec = platform::exynos5422();
  Soc soc{spec};
  sched::Scheduler sched{spec};

  Fixture() {
    for (std::size_t c = 0; c < soc.num_clusters(); ++c) {
      soc.set_opp(c, spec.clusters[c].opps.max_index());
    }
  }

  AppInstance make(AppSpec app, std::uint64_t seed = 1) {
    return AppInstance(std::move(app), sched, spec.big(), spec.gpu(), seed);
  }

  void tick(AppInstance& app, double now, double dt) {
    app.set_demands(sched, now, dt);
    sched.allocate(soc, dt);
    app.account(sched, dt);
  }
};

AppSpec simple_app(double cpu_work = 1.0e7, double gpu_work = 1.0e7,
                   double fps = 60.0) {
  AppSpec app;
  app.name = "test";
  app.target_fps = fps;
  app.phases = {{10.0, cpu_work, gpu_work}};
  return app;
}

TEST(App, ValidatesSpec) {
  Fixture f;
  AppSpec empty;
  empty.name = "empty";
  EXPECT_THROW(f.make(empty), ConfigError);

  AppSpec bad_phase = simple_app();
  bad_phase.phases[0].duration_s = 0.0;
  EXPECT_THROW(f.make(bad_phase), ConfigError);

  AppSpec bad_jitter = simple_app();
  bad_jitter.jitter = 1.5;
  EXPECT_THROW(f.make(bad_jitter), ConfigError);

  AppSpec neg_work = simple_app();
  neg_work.phases[0].cpu_work_per_frame = -1.0;
  EXPECT_THROW(f.make(neg_work), ConfigError);
}

TEST(App, SpawnsCpuAndGpuProcesses) {
  Fixture f;
  AppInstance app = f.make(simple_app());
  EXPECT_EQ(f.sched.process(app.cpu_pid()).cluster(), f.spec.big());
  EXPECT_EQ(f.sched.process(app.gpu_pid()).cluster(), f.spec.gpu());
}

TEST(App, CpuOnlyAppHasNoGpuProcess) {
  Fixture f;
  AppInstance app = f.make(simple_app(1.0e7, 0.0));
  EXPECT_EQ(app.gpu_pid(), -1);
  EXPECT_THROW(f.sched.process(app.cpu_pid() + 1), ConfigError);
}

TEST(App, GpuAppWithoutGpuClusterThrows) {
  Fixture f;
  EXPECT_THROW(
      AppInstance(simple_app(), f.sched, f.spec.big(), std::nullopt, 1),
      ConfigError);
}

TEST(App, VsyncCappedWhenResourcesSuffice) {
  Fixture f;
  // Tiny work: demand is met, fps == target.
  AppInstance app = f.make(simple_app(1.0e5, 1.0e5));
  f.tick(app, 0.0, 0.01);
  EXPECT_NEAR(app.instantaneous_fps(), 60.0, 1e-9);
}

TEST(App, GpuBoundFpsMatchesRate) {
  Fixture f;
  // gpu_work 1.2e7 at 600 MHz (6e8 units/s) -> 50 fps.
  AppInstance app = f.make(simple_app(1.0e5, 1.2e7));
  f.tick(app, 0.0, 0.01);
  EXPECT_NEAR(app.instantaneous_fps(), 50.0, 0.1);
}

TEST(App, CpuBoundFpsMatchesRate) {
  Fixture f;
  // 1 thread at 4e9 units/s, cpu_work 1e8 -> 40 fps.
  AppSpec spec = simple_app(1.0e8, 0.0);
  spec.cpu_threads = 1;
  AppInstance app = f.make(spec);
  f.tick(app, 0.0, 0.01);
  EXPECT_NEAR(app.instantaneous_fps(), 40.0, 0.1);
}

TEST(App, FpsFollowsFrequency) {
  Fixture f;
  AppInstance app = f.make(simple_app(1.0e5, 1.2e7));
  f.tick(app, 0.0, 0.01);
  const double fast = app.instantaneous_fps();
  // Halve the GPU frequency: fps drops proportionally.
  f.soc.set_opp(f.spec.gpu(), 2);  // 350 MHz
  f.tick(app, 0.01, 0.01);
  const double slow = app.instantaneous_fps();
  EXPECT_NEAR(slow / fast, 350.0 / 600.0, 0.01);
}

TEST(App, PhaseScheduleAndLooping) {
  Fixture f;
  AppSpec spec;
  spec.name = "phased";
  spec.phases = {{2.0, 1.0, 0.0}, {3.0, 2.0, 0.0}};
  AppInstance app = f.make(spec);
  EXPECT_EQ(app.phase_index_at(0.5), 0u);
  EXPECT_EQ(app.phase_index_at(2.5), 1u);
  EXPECT_EQ(app.phase_index_at(4.9), 1u);
  EXPECT_EQ(app.phase_index_at(5.5), 0u);   // looped
  EXPECT_EQ(app.phase_index_at(7.2), 1u);
  EXPECT_FALSE(app.finished(100.0));        // looping never finishes
}

TEST(App, NonLoopingFinishesAndStopsDemanding) {
  Fixture f;
  AppSpec spec = simple_app();
  spec.loop = false;
  spec.phases = {{1.0, 1.0e7, 0.0}};
  AppInstance app = f.make(spec);
  EXPECT_FALSE(app.finished(0.5));
  EXPECT_TRUE(app.finished(1.0));
  f.tick(app, 2.0, 0.01);
  EXPECT_DOUBLE_EQ(f.sched.process(app.cpu_pid()).demand_rate(), 0.0);
  EXPECT_DOUBLE_EQ(app.instantaneous_fps(), 0.0);
}

TEST(App, TickPhaseMatchesPhaseAtOverLoopsAndPastTheEnd) {
  // set_demands() finds the tick's phase once and account() reuses it;
  // both must agree with phase_at(now) on every 1 ms tick. Phase 0 is
  // vsync-capped and phase 1 GPU-bound, so a stale phase changes the fps.
  Fixture f;
  AppSpec spec = simple_app();
  spec.phases = {{0.25, 1.0e5, 1.0e5}, {0.5, 2.0e6, 1.2e7}};
  AppInstance looping = f.make(spec, 1);
  spec.loop = false;
  AppInstance once = f.make(spec, 2);
  const double dt = 0.001;
  const auto expect_tick = [&f, &spec](const AppInstance& app, double now,
                                       long i) {
    const double cpu = f.sched.process(app.cpu_pid()).demand_rate();
    const double gpu = f.sched.process(app.gpu_pid()).demand_rate();
    if (app.finished(now)) {
      EXPECT_EQ(cpu, 0.0) << i;
      EXPECT_EQ(gpu, 0.0) << i;
      EXPECT_EQ(app.instantaneous_fps(), 0.0) << i;
      return;
    }
    const Phase& ph = app.phase_at(now);
    EXPECT_EQ(cpu, ph.cpu_work_per_frame * spec.target_fps) << i;
    EXPECT_EQ(gpu, ph.gpu_work_per_frame * spec.target_fps) << i;
    double fps = spec.target_fps;
    fps = std::min(fps, f.sched.process(app.cpu_pid()).granted_rate() /
                            ph.cpu_work_per_frame);
    fps = std::min(fps, f.sched.process(app.gpu_pid()).granted_rate() /
                            ph.gpu_work_per_frame);
    EXPECT_EQ(app.instantaneous_fps(), fps) << i;
  };
  // Three loops of the 0.75 s schedule and then some; the non-looping app
  // ends after the first.
  const long ticks = 2600;
  for (long i = 0; i < ticks; ++i) {
    const double now = static_cast<double>(i) * dt;
    looping.set_demands(f.sched, now, dt);
    once.set_demands(f.sched, now, dt);
    f.sched.allocate(f.soc, dt);
    looping.account(f.sched, dt);
    once.account(f.sched, dt);
    expect_tick(looping, now, i);
    expect_tick(once, now, i);
  }
  EXPECT_TRUE(once.finished(static_cast<double>(ticks - 1) * dt));
  EXPECT_FALSE(looping.finished(static_cast<double>(ticks - 1) * dt));
}

TEST(App, BatchTaskDemandsUnbounded) {
  Fixture f;
  AppSpec spec = bml();
  AppInstance app = f.make(spec);
  f.tick(app, 0.0, 0.01);
  // BML saturates one big core: 4e9 units/s granted.
  EXPECT_NEAR(f.sched.process(app.cpu_pid()).granted_rate(), 4.0e9, 1.0);
  EXPECT_DOUBLE_EQ(app.instantaneous_fps(), 0.0);
}

TEST(App, FpsSamplesOncePerSecond) {
  Fixture f;
  AppInstance app = f.make(simple_app(1.0e5, 1.2e7));
  for (int i = 0; i < 250; ++i) {
    f.tick(app, i * 0.01, 0.01);
  }
  EXPECT_EQ(app.fps_samples().size(), 2u);
  EXPECT_NEAR(app.fps_samples()[0], 50.0, 0.5);
  EXPECT_NEAR(app.median_fps(), 50.0, 0.5);
  EXPECT_NEAR(app.total_frames(), 125.0, 2.0);
}

TEST(App, MedianRequiresFullSecond) {
  Fixture f;
  AppInstance app = f.make(simple_app());
  f.tick(app, 0.0, 0.01);
  EXPECT_THROW(app.median_fps(), ConfigError);
}

TEST(App, JitterIsDeterministicAndBounded) {
  Fixture f1;
  Fixture f2;
  AppSpec spec = simple_app(1.0e5, 1.2e7);
  spec.jitter = 0.2;
  AppInstance a = f1.make(spec, 99);
  AppInstance b = f2.make(spec, 99);
  for (int i = 0; i < 500; ++i) {
    f1.tick(a, i * 0.01, 0.01);
    f2.tick(b, i * 0.01, 0.01);
    EXPECT_DOUBLE_EQ(a.instantaneous_fps(), b.instantaneous_fps());
    // Jittered gpu-bound fps stays within the +-20% band around 50.
    EXPECT_GE(a.instantaneous_fps(), 50.0 / 1.2 - 0.5);
    EXPECT_LE(a.instantaneous_fps(), 50.0 / 0.8 + 0.5);
  }
}

// --- presets ---------------------------------------------------------------

TEST(Presets, FiveNexusApps) {
  const std::vector<AppSpec> apps = nexus_apps();
  ASSERT_EQ(apps.size(), 5u);
  EXPECT_EQ(apps[0].name, "paperio");
  EXPECT_EQ(apps[1].name, "stickman-hook");
  EXPECT_EQ(apps[2].name, "amazon");
  EXPECT_EQ(apps[3].name, "hangouts");
  EXPECT_EQ(apps[4].name, "facebook");
}

TEST(Presets, GamesAreGpuHeavyAmazonIsCpuHeavy) {
  // Games have large GPU work relative to Amazon (Sec. III-B: Amazon
  // "primarily uses the CPU when it is active").
  EXPECT_GT(paperio().phases[0].gpu_work_per_frame,
            5.0 * amazon().phases[0].gpu_work_per_frame);
  EXPECT_GT(amazon().phases[0].cpu_work_per_frame,
            paperio().phases[0].cpu_work_per_frame);
}

TEST(Presets, ExtraWorkloadsAreSane) {
  Fixture f;
  for (const AppSpec& spec : {youtube(), navigation()}) {
    AppInstance app = f.make(spec);
    for (int i = 0; i < 300; ++i) {
      f.tick(app, i * 0.01, 0.01);
    }
    EXPECT_GT(app.median_fps(), 10.0) << spec.name;
    EXPECT_LE(app.median_fps(), spec.target_fps + 1e-9) << spec.name;
  }
  // Video is paced at 30 fps; navigation targets vsync.
  EXPECT_DOUBLE_EQ(youtube().target_fps, 30.0);
  EXPECT_DOUBLE_EQ(navigation().target_fps, 60.0);
}

TEST(Presets, ThreedmarkShape) {
  const AppSpec app = threedmark();
  ASSERT_EQ(app.phases.size(), 2u);  // GT1, GT2
  EXPECT_TRUE(app.realtime);
  EXPECT_TRUE(app.loop);
  // GT2 is the heavier graphics test.
  EXPECT_GT(app.phases[1].gpu_work_per_frame,
            app.phases[0].gpu_work_per_frame);
}

TEST(Presets, NenamarkLevelsGrow) {
  const AppSpec app = nenamark(6, 15.0);
  ASSERT_EQ(app.phases.size(), 6u);
  EXPECT_FALSE(app.loop);
  for (std::size_t i = 1; i < app.phases.size(); ++i) {
    EXPECT_GT(app.phases[i].gpu_work_per_frame,
              app.phases[i - 1].gpu_work_per_frame);
  }
  EXPECT_THROW(nenamark(0), ConfigError);
}

TEST(Presets, BmlIsBackgroundSingleThreadBatch) {
  const AppSpec app = bml();
  EXPECT_EQ(app.cls, sched::ProcessClass::kBackground);
  EXPECT_EQ(app.cpu_threads, 1);
  EXPECT_DOUBLE_EQ(app.target_fps, 0.0);
  EXPECT_FALSE(app.realtime);
}

// --- nenamark score ----------------------------------------------------------

TEST(NenamarkScore, AllLevelsPass) {
  EXPECT_DOUBLE_EQ(nenamark_score({60.0, 50.0, 40.0}, 30.0), 3.0);
}

TEST(NenamarkScore, InterpolatesFirstFailingLevel) {
  // Passes 2 levels; level 3 fails: 40 -> 20 crossing 30 halfway.
  EXPECT_NEAR(nenamark_score({60.0, 40.0, 20.0}, 30.0), 2.5, 1e-9);
}

TEST(NenamarkScore, FirstLevelFails) {
  EXPECT_DOUBLE_EQ(nenamark_score({10.0, 5.0}, 30.0), 0.0);
}

TEST(NenamarkScore, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(nenamark_score({}, 30.0), 0.0);
}

TEST(NenamarkScore, HigherThrottlingLowersScore) {
  const std::vector<double> fast = {50.0, 41.7, 34.7, 28.9};
  std::vector<double> slow;
  for (double v : fast) {
    slow.push_back(v * 0.9);
  }
  EXPECT_GT(nenamark_score(fast), nenamark_score(slow));
}

}  // namespace
}  // namespace mobitherm::workload
