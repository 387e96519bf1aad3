// Unit tests for the scheduler: spawning, allocation, contention,
// migration, windows, power attribution, victim selection.
#include <gtest/gtest.h>

#include "platform/presets.h"
#include "sched/process.h"
#include "sched/scheduler.h"
#include "util/error.h"

namespace mobitherm::sched {
namespace {

using platform::Soc;
using platform::SocSpec;
using util::ConfigError;

struct Fixture {
  SocSpec spec = platform::exynos5422();
  Soc soc{spec};
  Scheduler sched{spec};

  Fixture() {
    // Pin clusters to their top OPPs for predictable rates.
    for (std::size_t c = 0; c < soc.num_clusters(); ++c) {
      soc.set_opp(c, spec.clusters[c].opps.max_index());
    }
  }

  Pid spawn(const std::string& name, std::size_t cluster, int threads = 1,
            bool realtime = false,
            ProcessClass cls = ProcessClass::kForeground) {
    ProcessSpec ps;
    ps.name = name;
    ps.threads = threads;
    ps.realtime = realtime;
    ps.cls = cls;
    return sched.spawn(ps, cluster);
  }
};

TEST(Scheduler, SpawnAssignsDensePids) {
  Fixture f;
  EXPECT_EQ(f.spawn("a", f.spec.big()), 1);
  EXPECT_EQ(f.spawn("b", f.spec.little()), 2);
  EXPECT_EQ(f.sched.process(1).spec().name, "a");
  EXPECT_EQ(f.sched.process(2).cluster(), f.spec.little());
  EXPECT_THROW(f.sched.process(0), ConfigError);
  EXPECT_THROW(f.sched.process(3), ConfigError);
  EXPECT_THROW(f.sched.process(-1), ConfigError);
}

TEST(Scheduler, ValidatesArguments) {
  Fixture f;
  ProcessSpec ps;
  ps.threads = 0;
  EXPECT_THROW(f.sched.spawn(ps, 0), ConfigError);
  ps.threads = 1;
  EXPECT_THROW(f.sched.spawn(ps, 99), ConfigError);
  const Pid pid = f.spawn("a", 0);
  EXPECT_THROW(f.sched.migrate(pid, 99), ConfigError);
  EXPECT_THROW(f.sched.cluster_busy_cores(99), ConfigError);
  EXPECT_THROW(f.sched.governor_utilization(99), ConfigError);
}

TEST(Scheduler, DemandFullyGrantedWhenUncontended) {
  Fixture f;
  const std::size_t big = f.spec.big();
  const Pid pid = f.spawn("a", big, 2);
  f.sched.process(pid).set_demand_rate(1.0e9);
  f.sched.allocate(f.soc, 0.01);
  EXPECT_NEAR(f.sched.process(pid).granted_rate(), 1.0e9, 1.0);
  // One A15 at 2 GHz ipc 2 retires 4e9/s -> 0.25 busy cores.
  EXPECT_NEAR(f.sched.process(pid).busy_cores(), 0.25, 1e-9);
  EXPECT_NEAR(f.sched.cluster_busy_cores(big), 0.25, 1e-9);
}

TEST(Scheduler, ThreadLimitCapsSingleProcess) {
  Fixture f;
  const std::size_t big = f.spec.big();
  const Pid pid = f.spawn("a", big, 1);
  f.sched.process(pid).set_demand_rate(1.0e18);
  f.sched.allocate(f.soc, 0.01);
  // Capped to one core's rate (4e9).
  EXPECT_NEAR(f.sched.process(pid).granted_rate(), 4.0e9, 1.0);
  EXPECT_NEAR(f.sched.process(pid).busy_cores(), 1.0, 1e-9);
}

TEST(Scheduler, ContentionScalesProportionally) {
  Fixture f;
  const std::size_t big = f.spec.big();
  // Two 4-thread hogs on a 4-core cluster: each wants 16e9, capacity 16e9.
  const Pid a = f.spawn("a", big, 4);
  const Pid b = f.spawn("b", big, 4);
  f.sched.process(a).set_demand_rate(1.0e18);
  f.sched.process(b).set_demand_rate(1.0e18);
  f.sched.allocate(f.soc, 0.01);
  EXPECT_NEAR(f.sched.process(a).granted_rate(), 8.0e9, 1e3);
  EXPECT_NEAR(f.sched.process(b).granted_rate(), 8.0e9, 1e3);
  EXPECT_NEAR(f.sched.cluster_busy_cores(big), 4.0, 1e-9);
}

TEST(Scheduler, AsymmetricContentionKeepsProportions) {
  Fixture f;
  const std::size_t big = f.spec.big();
  const Pid a = f.spawn("a", big, 4);
  const Pid b = f.spawn("b", big, 4);
  f.sched.process(a).set_demand_rate(12.0e9);
  f.sched.process(b).set_demand_rate(6.0e9);
  f.sched.allocate(f.soc, 0.01);
  // Total demand 18e9 > 16e9 capacity: scale 8/9.
  EXPECT_NEAR(f.sched.process(a).granted_rate(), 12.0e9 * 8.0 / 9.0, 1e3);
  EXPECT_NEAR(f.sched.process(b).granted_rate(), 6.0e9 * 8.0 / 9.0, 1e3);
}

TEST(Scheduler, MigrationMovesLoadBetweenClusters) {
  Fixture f;
  const std::size_t big = f.spec.big();
  const std::size_t little = f.spec.little();
  const Pid pid = f.spawn("a", big, 1);
  f.sched.process(pid).set_demand_rate(1.0e18);
  f.sched.allocate(f.soc, 0.01);
  const double big_rate = f.sched.process(pid).granted_rate();

  f.sched.migrate(pid, little);
  f.sched.allocate(f.soc, 0.01);
  const double little_rate = f.sched.process(pid).granted_rate();
  EXPECT_DOUBLE_EQ(f.sched.cluster_busy_cores(big), 0.0);
  EXPECT_NEAR(f.sched.cluster_busy_cores(little), 1.0, 1e-9);
  // A7 at 1.4 GHz ipc 1 is much slower than A15 at 2 GHz ipc 2.
  EXPECT_LT(little_rate, 0.5 * big_rate);
}

TEST(Scheduler, GovernorUtilizationSeesSaturatedSingleThread) {
  // One batch thread saturating its core must read ~1.0 even though only
  // one of the cluster's four cores is busy.
  Fixture f;
  const std::size_t big = f.spec.big();
  const Pid pid = f.spawn("bml", big, 1);
  f.sched.process(pid).set_demand_rate(1.0e18);
  f.sched.allocate(f.soc, 0.01);
  EXPECT_NEAR(f.sched.cluster_busy_cores(big), 1.0, 1e-9);
  EXPECT_NEAR(f.sched.governor_utilization(big), 1.0, 1e-9);
}

TEST(Scheduler, GovernorUtilizationPartialLoad) {
  Fixture f;
  const std::size_t big = f.spec.big();
  const Pid pid = f.spawn("a", big, 2);
  f.sched.process(pid).set_demand_rate(4.0e9);  // half of its 8e9 cap
  f.sched.allocate(f.soc, 0.01);
  EXPECT_NEAR(f.sched.governor_utilization(big), 0.5, 1e-9);
}

TEST(Scheduler, GovernorUtilizationZeroWhenIdle) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.sched.governor_utilization(f.spec.big()), 0.0);
}

TEST(Scheduler, PowerAttributionSplitsByBusyShare) {
  Fixture f;
  const std::size_t big = f.spec.big();
  const Pid a = f.spawn("a", big, 1);
  const Pid b = f.spawn("b", big, 1);
  f.sched.process(a).set_demand_rate(4.0e9);   // 1 core
  f.sched.process(b).set_demand_rate(2.0e9);   // 0.5 core
  f.sched.allocate(f.soc, 1.0);
  f.sched.attribute_power(big, 3.0, 1.0);
  EXPECT_NEAR(f.sched.process(a).windowed_power_w(), 2.0, 1e-9);
  EXPECT_NEAR(f.sched.process(b).windowed_power_w(), 1.0, 1e-9);
}

TEST(Scheduler, TopPowerProcessSkipsRealtime) {
  Fixture f;
  const std::size_t big = f.spec.big();
  const Pid rt = f.spawn("game", big, 2, /*realtime=*/true);
  const Pid bg = f.spawn("bml", big, 1, /*realtime=*/false,
                         ProcessClass::kBackground);
  f.sched.process(rt).set_demand_rate(8.0e9);
  f.sched.process(bg).set_demand_rate(2.0e9);
  f.sched.allocate(f.soc, 1.0);
  f.sched.attribute_power(big, 4.0, 1.0);
  // The realtime process draws more power but must not be picked.
  const auto victim = f.sched.top_power_process(big);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, bg);
}

TEST(Scheduler, TopPowerProcessEmptyCases) {
  Fixture f;
  EXPECT_FALSE(f.sched.top_power_process(f.spec.big()).has_value());
  // Only realtime processes -> still empty.
  f.spawn("rt", f.spec.big(), 1, /*realtime=*/true);
  EXPECT_FALSE(f.sched.top_power_process(f.spec.big()).has_value());
}

TEST(Scheduler, WindowedPowerSmoothsSpikes) {
  Fixture f;
  const std::size_t big = f.spec.big();
  const Pid pid = f.spawn("a", big, 1);
  // 0.9 s idle, then 0.1 s drawing all of the cluster's 2 W: the 1 s
  // window reads 0.2 W.
  const auto tick = [&](double demand) {
    f.sched.process(pid).set_demand_rate(demand);
    f.sched.allocate(f.soc, 0.01);
    f.sched.attribute_power(big, 2.0, 0.01);
  };
  for (int i = 0; i < 90; ++i) {
    tick(0.0);
  }
  for (int i = 0; i < 10; ++i) {
    tick(1.0e18);
  }
  EXPECT_NEAR(f.sched.process(pid).windowed_power_w(), 0.2, 1e-9);
  // One more idle second slides the spike out of the window.
  for (int i = 0; i < 100; ++i) {
    tick(0.0);
  }
  EXPECT_NEAR(f.sched.process(pid).windowed_power_w(), 0.0, 1e-9);
}

TEST(Scheduler, CompletedWorkAccumulates) {
  Fixture f;
  const Pid pid = f.spawn("a", f.spec.big(), 1);
  f.sched.process(pid).set_demand_rate(4.0e9);
  for (int i = 0; i < 100; ++i) {
    f.sched.allocate(f.soc, 0.01);
  }
  EXPECT_NEAR(f.sched.process(pid).completed_work(), 4.0e9, 1e6);
}

TEST(Scheduler, ZeroOnlineCoresGrantNothing) {
  Fixture f;
  const std::size_t big = f.spec.big();
  f.soc.set_online_cores(big, 0);
  const Pid pid = f.spawn("a", big, 2);
  f.sched.process(pid).set_demand_rate(1.0e9);
  f.sched.allocate(f.soc, 0.01);
  EXPECT_DOUBLE_EQ(f.sched.process(pid).granted_rate(), 0.0);
  EXPECT_DOUBLE_EQ(f.sched.cluster_busy_cores(big), 0.0);
}

}  // namespace
}  // namespace mobitherm::sched
