// End-to-end integration tests: the paper's qualitative results must hold
// in full simulation runs (shortened durations to keep the suite fast).
//
//  * Sec. III: thermal throttling lowers both temperature and frame rate
//    on the Nexus 6P model; residency shifts to lower OPPs.
//  * Sec. IV-C: on the Odroid-XU3 model, a background BML task heats the
//    system and costs foreground fps under the default policy, while the
//    proposed application-aware governor migrates BML and recovers the
//    foreground performance at a lower temperature than the default.
#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "workload/presets.h"

namespace mobitherm::sim {
namespace {

NexusResult nexus(const workload::AppSpec& app, bool throttling,
                  double duration = 80.0) {
  NexusRun run;
  run.app = app;
  run.throttling = throttling;
  run.duration_s = duration;
  return run_nexus_app(run);
}

TEST(NexusStudy, ThrottlingReducesGameFpsAndTemperature) {
  const NexusResult off = nexus(workload::paperio(), false);
  const NexusResult on = nexus(workload::paperio(), true);
  EXPECT_GT(off.median_fps, on.median_fps);
  EXPECT_GT(off.peak_temp_c, on.peak_temp_c + 3.0);
  EXPECT_GT(off.mean_power_w, on.mean_power_w);
  // Paper ballpark: ~35 fps unthrottled, ~23 throttled (-34%).
  EXPECT_NEAR(off.median_fps, 35.0, 5.0);
  const double drop = 1.0 - on.median_fps / off.median_fps;
  EXPECT_GT(drop, 0.15);
  EXPECT_LT(drop, 0.50);
}

TEST(NexusStudy, ThrottlingShiftsGpuResidencyDown) {
  const NexusResult off = nexus(workload::paperio(), false);
  const NexusResult on = nexus(workload::paperio(), true);
  // Without throttling the two highest OPPs dominate (Fig. 2 top); with
  // throttling their share collapses and mid frequencies take over.
  const double top2_off = off.gpu_residency[4] + off.gpu_residency[5];
  const double top2_on = on.gpu_residency[4] + on.gpu_residency[5];
  EXPECT_GT(top2_off, 0.5);
  EXPECT_LT(top2_on, 0.5 * top2_off);
  // 390 MHz becomes the modal frequency with throttling (Fig. 2 bottom).
  const double mid_on = on.gpu_residency[1] + on.gpu_residency[2];
  EXPECT_GT(mid_on, 0.4);
}

TEST(NexusStudy, CpuAppIsCpuBoundNotGpuBound) {
  const NexusResult r = nexus(workload::amazon(), false);
  // Amazon's GPU never leaves the lowest OPP (tiny render load).
  EXPECT_GT(r.gpu_residency[0], 0.9);
  // But the big cluster uses its high OPPs.
  double high_big = 0.0;
  for (std::size_t i = r.big_residency.size() - 4; i < r.big_residency.size();
       ++i) {
    high_big += r.big_residency[i];
  }
  EXPECT_GT(high_big, 0.3);
}

TEST(NexusStudy, MildAppThrottlesLess) {
  // Hangouts loses ~10% in the paper, games lose ~32-34%.
  const double hang_drop =
      1.0 - nexus(workload::hangouts(), true).median_fps /
                nexus(workload::hangouts(), false).median_fps;
  const double game_drop =
      1.0 - nexus(workload::stickman_hook(), true).median_fps /
                nexus(workload::stickman_hook(), false).median_fps;
  EXPECT_LT(hang_drop, game_drop);
  EXPECT_LT(hang_drop, 0.25);
}

TEST(NexusStudy, TemperatureTraceRisesMonotonicallySmoothed) {
  const NexusResult r = nexus(workload::paperio(), false, 120.0);
  ASSERT_GT(r.temp_trace_c.size(), 10u);
  // Starts warm (~36 degC) and ends much hotter.
  EXPECT_NEAR(r.temp_trace_c.front().second, 36.0, 2.0);
  EXPECT_GT(r.temp_trace_c.back().second, 45.0);
}

TEST(NexusStudy, DeterministicAcrossIdenticalRuns) {
  const NexusResult a = nexus(workload::facebook(), true, 30.0);
  const NexusResult b = nexus(workload::facebook(), true, 30.0);
  EXPECT_DOUBLE_EQ(a.median_fps, b.median_fps);
  EXPECT_DOUBLE_EQ(a.peak_temp_c, b.peak_temp_c);
  ASSERT_EQ(a.gpu_residency.size(), b.gpu_residency.size());
  for (std::size_t i = 0; i < a.gpu_residency.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.gpu_residency[i], b.gpu_residency[i]);
  }
}

TEST(NexusStudy, SeedChangesJitterButNotTheStory) {
  NexusRun run;
  run.app = workload::paperio();
  run.throttling = false;
  run.duration_s = 40.0;
  run.seed = 1;
  const NexusResult a = run_nexus_app(run);
  run.seed = 2;
  const NexusResult b = run_nexus_app(run);
  EXPECT_NE(a.median_fps, b.median_fps);          // jitter differs
  EXPECT_NEAR(a.median_fps, b.median_fps, 5.0);   // but story holds
}

// --- Odroid (Sec. IV-C) ------------------------------------------------------

OdroidResult odroid(bool with_bml, ThermalPolicy policy,
                    double duration = 120.0) {
  OdroidRun run;
  run.foreground = workload::threedmark();
  run.with_bml = with_bml;
  run.policy = policy;
  run.duration_s = duration;
  return run_odroid(run);
}

TEST(OdroidStudy, BmlRaisesTemperatureAndBigPower) {
  const OdroidResult alone = odroid(false, ThermalPolicy::kNone);
  const OdroidResult with = odroid(true, ThermalPolicy::kNone);
  EXPECT_GT(with.peak_temp_c, alone.peak_temp_c + 5.0);
  const std::size_t big = 1;  // cluster order: little, big, gpu, mem
  EXPECT_GT(with.mean_rail_w[big], alone.mean_rail_w[big] + 0.5);
}

TEST(OdroidStudy, DefaultPolicyThrottlesForegroundUnderBml) {
  // The default policy only bites as the board approaches its high control
  // temperature, so run the full experiment length.
  const OdroidResult alone = odroid(false, ThermalPolicy::kDefault, 250.0);
  const OdroidResult with = odroid(true, ThermalPolicy::kDefault, 250.0);
  // GT1 drops (paper: 97 -> 86) and GT2 drops (51 -> 49).
  EXPECT_LT(with.phase_fps[0], alone.phase_fps[0] - 2.0);
  EXPECT_LE(with.phase_fps[1], alone.phase_fps[1]);
  EXPECT_EQ(with.migrations, 0u);
}

TEST(OdroidStudy, ProposedGovernorMigratesAndRecoversFps) {
  const OdroidResult alone = odroid(false, ThermalPolicy::kDefault, 250.0);
  const OdroidResult def = odroid(true, ThermalPolicy::kDefault, 250.0);
  const OdroidResult prop = odroid(true, ThermalPolicy::kProposed, 250.0);

  EXPECT_GE(prop.migrations, 1u);
  // Proposed recovers (almost) the standalone fps (Table II: 93 vs 86).
  EXPECT_GT(prop.phase_fps[0], def.phase_fps[0] + 2.0);
  EXPECT_NEAR(prop.phase_fps[0], alone.phase_fps[0], 3.0);
  EXPECT_NEAR(prop.phase_fps[1], alone.phase_fps[1], 2.0);
  // And runs cooler than the default policy's peak.
  EXPECT_LT(prop.peak_temp_c, def.peak_temp_c);
}

TEST(OdroidStudy, ProposedShiftsPowerFromBigToLittle) {
  const OdroidResult def = odroid(true, ThermalPolicy::kDefault);
  const OdroidResult prop = odroid(true, ThermalPolicy::kProposed);
  const std::size_t little = 0;
  const std::size_t big = 1;
  // Fig. 9: big-cluster share falls (60% -> 42%), little rises (7 -> 16%).
  EXPECT_LT(prop.mean_rail_w[big], def.mean_rail_w[big] - 0.3);
  EXPECT_GT(prop.mean_rail_w[little], def.mean_rail_w[little] + 0.1);
}

TEST(OdroidStudy, BmlStillMakesProgressOnLittle) {
  const OdroidResult def = odroid(true, ThermalPolicy::kDefault);
  const OdroidResult prop = odroid(true, ThermalPolicy::kProposed);
  EXPECT_GT(prop.bml_work, 0.0);
  // ...but slower than on the big cluster (it is being throttled).
  EXPECT_LT(prop.bml_work, def.bml_work);
}

TEST(OdroidStudy, NenamarkScoresFollowTableII) {
  OdroidRun run;
  run.foreground = workload::nenamark(6, 15.0);
  run.duration_s = 6 * 15.0;
  run.policy = ThermalPolicy::kDefault;
  run.with_bml = false;
  const OdroidResult alone = run_odroid(run);
  run.with_bml = true;
  const OdroidResult with = run_odroid(run);
  run.policy = ThermalPolicy::kProposed;
  const OdroidResult prop = run_odroid(run);

  const double s_alone = workload::nenamark_score(alone.phase_fps);
  const double s_with = workload::nenamark_score(with.phase_fps);
  const double s_prop = workload::nenamark_score(prop.phase_fps);
  // Table II: 3.5 / 3.4 / 3.5 levels.
  EXPECT_GT(s_alone, 2.5);
  EXPECT_LT(s_alone, 5.0);
  EXPECT_LE(s_with, s_alone);
  EXPECT_NEAR(s_prop, s_alone, 0.3);
}

}  // namespace
}  // namespace mobitherm::sim
