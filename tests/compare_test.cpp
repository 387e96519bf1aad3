// Best-arm policy comparison (sim/compare.h) and its service face: the
// Welford accumulators behind the statistics, the inverse-normal quantile,
// the shared seed schedule, the pure decide_best_arm() rule, CompareRunner
// round slicing, and the service-layer `compare` job (verdict caching,
// lane-cache sharing with plain submits, lanes run by idle workers,
// fault-injected retries, deadlines, cancellation and shutdown).
//
// The load-bearing property is the determinism rule: the stop/continue
// decision is a pure function of the ordered per-seed results, so a
// comparison replays byte-identically at any thread or worker count, and
// under fault-injected retries. Every replay comparison here is
// EXPECT_EQ on doubles / payload strings — no tolerances.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/service.h"
#include "sim/batch.h"
#include "sim/compare.h"
#include "sim/experiment.h"
#include "sim/montecarlo.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/seed_schedule.h"
#include "workload/presets.h"

namespace mobitherm {
namespace {

using service::CompareArmRequest;
using service::CompareRequest;
using service::JobState;
using service::ScenarioRegistry;
using service::ServiceConfig;
using service::SimService;
using service::SubmitOutcome;
using sim::ArmStats;
using sim::CompareArm;
using sim::CompareDecision;
using sim::CompareOptions;
using sim::CompareResult;
using sim::CompareRunner;
using sim::WelfordAccumulator;
using util::ConfigError;
using util::FaultPlan;
using util::FaultPlanConfig;
using util::FaultSite;
using util::SeedSchedule;

// --- WelfordAccumulator ----------------------------------------------------

TEST(Welford, MatchesTwoPassOnPinnedSample) {
  // The classic sample {2,4,4,4,5,5,7,9}: mean exactly 5, sum of squared
  // deviations exactly 32. Both the streaming and the two-pass form are
  // exact here, so the comparison is bitwise.
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  WelfordAccumulator acc;
  for (double x : xs) {
    acc.add(x);
  }
  EXPECT_EQ(acc.count(), 8);
  EXPECT_EQ(acc.mean(), 5.0);
  EXPECT_EQ(acc.variance(), 32.0 / 7.0);
  EXPECT_EQ(acc.stddev(), std::sqrt(32.0 / 7.0));
  EXPECT_EQ(acc.min(), 2.0);
  EXPECT_EQ(acc.max(), 9.0);
}

TEST(Welford, EmptyAndSingleSample) {
  WelfordAccumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.variance(), 0.0);
  acc.add(3.5);
  EXPECT_EQ(acc.count(), 1);
  EXPECT_EQ(acc.mean(), 3.5);
  EXPECT_EQ(acc.variance(), 0.0);  // sample variance undefined; reported 0
  EXPECT_EQ(acc.min(), 3.5);
  EXPECT_EQ(acc.max(), 3.5);
}

TEST(Welford, AgreesWithSummarize) {
  // summarize() now streams through a WelfordAccumulator internally; a
  // hand-driven accumulator over the same values must agree bitwise.
  const std::vector<double> xs = {100.0, 101.0, 102.0, 103.0};
  const sim::SeedStats stats = sim::summarize(xs);
  WelfordAccumulator acc;
  for (double x : xs) {
    acc.add(x);
  }
  EXPECT_EQ(stats.mean, acc.mean());
  EXPECT_EQ(stats.stddev, acc.stddev());
  EXPECT_EQ(stats.min, acc.min());
  EXPECT_EQ(stats.max, acc.max());
}

// --- normal_quantile / ci_half_width --------------------------------------

TEST(NormalQuantile, KnownValuesAndSymmetry) {
  EXPECT_EQ(sim::normal_quantile(0.5), 0.0);
  // z_{0.975} = 1.959963984540054; the Acklam approximation is good to
  // ~1e-9 relative.
  EXPECT_NEAR(sim::normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(sim::normal_quantile(0.995), 2.5758293035489004, 1e-8);
  for (double p : {0.6, 0.9, 0.975, 0.999}) {
    EXPECT_NEAR(sim::normal_quantile(p), -sim::normal_quantile(1.0 - p),
                1e-9)
        << "p=" << p;
  }
  EXPECT_THROW(sim::normal_quantile(0.0), ConfigError);
  EXPECT_THROW(sim::normal_quantile(1.0), ConfigError);
}

TEST(CiHalfWidth, InfiniteBelowTwoSamples) {
  EXPECT_TRUE(std::isinf(sim::ci_half_width(1.0, 0, 0.95)));
  EXPECT_TRUE(std::isinf(sim::ci_half_width(1.0, 1, 0.95)));
  const double hw4 = sim::ci_half_width(2.0, 4, 0.95);
  EXPECT_NEAR(hw4, 1.959963984540054 * 2.0 / 2.0, 1e-7);
  // More samples, tighter interval.
  EXPECT_LT(sim::ci_half_width(2.0, 16, 0.95), hw4);
}

TEST(ArmStatsFn, SummarizesAccumulator) {
  WelfordAccumulator acc;
  for (double x : {10.0, 12.0, 11.0, 13.0}) {
    acc.add(x);
  }
  const ArmStats s = sim::arm_stats(acc, 0.95);
  EXPECT_EQ(s.n, 4);
  EXPECT_EQ(s.mean, acc.mean());
  EXPECT_EQ(s.stddev, acc.stddev());
  EXPECT_EQ(s.confidence, 0.95);
  EXPECT_EQ(s.half_width, sim::ci_half_width(acc.stddev(), 4, 0.95));
}

// --- SeedSchedule ----------------------------------------------------------

TEST(SeedScheduleTest, PureFunctionOfBaseAndIndex) {
  const SeedSchedule schedule(7);
  EXPECT_EQ(schedule.base(), 7u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(schedule.at(i), util::derive_seed(7, i)) << "index " << i;
    // Re-slicing rounds never changes which seed the i-th sample runs.
    EXPECT_EQ(schedule.at(i), SeedSchedule(7).at(i));
  }
  // Distinct indices, distinct seeds (splitmix64 is a bijection).
  for (std::size_t i = 1; i < 16; ++i) {
    EXPECT_NE(schedule.at(i), schedule.at(i - 1));
  }
  EXPECT_NE(SeedSchedule(7).at(0), SeedSchedule(8).at(0));
}

// --- decide_best_arm -------------------------------------------------------

WelfordAccumulator acc_of(const std::vector<double>& xs) {
  WelfordAccumulator acc;
  for (double x : xs) {
    acc.add(x);
  }
  return acc;
}

TEST(DecideBestArm, SeparatedPairPicksDirection) {
  const std::vector<WelfordAccumulator> arms = {
      acc_of({10.0, 10.1, 9.9}), acc_of({5.0, 5.1, 4.9})};
  const CompareDecision hi = sim::decide_best_arm(arms, 0.95, true);
  EXPECT_EQ(hi.best, 0u);
  EXPECT_TRUE(hi.separated);
  const CompareDecision lo = sim::decide_best_arm(arms, 0.95, false);
  EXPECT_EQ(lo.best, 1u);
  EXPECT_TRUE(lo.separated);
}

TEST(DecideBestArm, TiedMeansKeepLowestIndexUnseparated) {
  const std::vector<WelfordAccumulator> arms = {acc_of({3.0, 3.2}),
                                                acc_of({3.0, 3.2})};
  const CompareDecision d = sim::decide_best_arm(arms, 0.95, true);
  EXPECT_EQ(d.best, 0u);
  EXPECT_FALSE(d.separated);  // zero gap can never exceed the half-widths
}

TEST(DecideBestArm, NoVerdictBeforeTwoSamplesEverywhere) {
  // A single-sample arm has an infinite half-width: even a huge gap is
  // not a separation claim.
  const std::vector<WelfordAccumulator> arms = {acc_of({100.0, 100.1}),
                                                acc_of({1.0})};
  const CompareDecision d = sim::decide_best_arm(arms, 0.95, true);
  EXPECT_EQ(d.best, 0u);
  EXPECT_FALSE(d.separated);
}

TEST(DecideBestArm, MustSeparateFromEveryRival) {
  // Arm 0 clears arm 2 by a mile but overlaps arm 1.
  const std::vector<WelfordAccumulator> arms = {
      acc_of({10.0, 12.0}), acc_of({9.5, 11.5}), acc_of({1.0, 1.1})};
  const CompareDecision d = sim::decide_best_arm(arms, 0.95, true);
  EXPECT_EQ(d.best, 0u);
  EXPECT_FALSE(d.separated);
}

TEST(DecideBestArm, ValidatesInputs) {
  EXPECT_THROW(sim::decide_best_arm({}, 0.95, true), ConfigError);
  const std::vector<WelfordAccumulator> arms = {acc_of({1, 2}),
                                                acc_of({3, 4})};
  EXPECT_THROW(sim::decide_best_arm(arms, 0.0, true), ConfigError);
  EXPECT_THROW(sim::decide_best_arm(arms, 1.0, true), ConfigError);
}

// --- CompareRunner ---------------------------------------------------------

// Nexus Paper.io with vs. without throttling: ~5 fps of median-FPS gap
// against well under 1 fps of seed noise, so the pair separates at the
// minimum sample count.
sim::EngineFactory nexus_arm_factory(bool throttling) {
  return [throttling](std::size_t, std::uint64_t seed) {
    sim::NexusRun run;
    run.app = workload::paperio();
    run.throttling = throttling;
    run.seed = seed;
    return sim::make_nexus_engine(run);
  };
}

CompareOptions nexus_compare_options() {
  CompareOptions options;
  options.metric = [](const sim::BatchRecord& record) {
    return record.metrics.median_fps.front();
  };
  options.higher_is_better = true;
  options.duration_s = 60.0;
  options.max_seeds = 8;
  options.round_seeds = 2;
  options.min_seeds = 2;
  options.base_seed = 11;
  options.batch.threads = 1;
  return options;
}

std::vector<CompareArm> nexus_arms() {
  return {{"unthrottled", nexus_arm_factory(false)},
          {"throttled", nexus_arm_factory(true)}};
}

TEST(CompareRunnerTest, EarlyStopsOnSeparatedPair) {
  const CompareRunner runner(nexus_compare_options());
  const CompareResult result = runner.run(nexus_arms());
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.separated);
  EXPECT_TRUE(result.early_stop);
  EXPECT_EQ(result.best, 0u);  // unthrottled runs faster
  EXPECT_LT(result.seeds_per_arm, 8);
  EXPECT_EQ(result.rounds * 2, result.seeds_per_arm);
  ASSERT_EQ(result.arms.size(), 2u);
  EXPECT_GT(result.arms[0].mean, result.arms[1].mean);
  EXPECT_EQ(result.names[0], "unthrottled");
  // Every arm consumed >= min_seeds samples with finite intervals.
  for (const ArmStats& s : result.arms) {
    EXPECT_GE(s.n, 2);
    EXPECT_TRUE(std::isfinite(s.half_width));
  }
}

TEST(CompareRunnerTest, ThreadCountDoesNotChangeTheVerdict) {
  CompareOptions serial = nexus_compare_options();
  CompareOptions threaded = nexus_compare_options();
  threaded.batch.threads = 4;
  const CompareResult a = CompareRunner(serial).run(nexus_arms());
  const CompareResult b = CompareRunner(threaded).run(nexus_arms());
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.separated, b.separated);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.seeds_per_arm, b.seeds_per_arm);
  ASSERT_EQ(a.arms.size(), b.arms.size());
  for (std::size_t i = 0; i < a.arms.size(); ++i) {
    EXPECT_EQ(a.arms[i].mean, b.arms[i].mean) << "arm " << i;
    EXPECT_EQ(a.arms[i].stddev, b.arms[i].stddev) << "arm " << i;
    EXPECT_EQ(a.arms[i].half_width, b.arms[i].half_width) << "arm " << i;
  }
}

TEST(CompareRunnerTest, IdenticalArmsRefuseToSeparate) {
  // Same policy on both arms: common random numbers make the per-seed
  // metric values identical, the gap is exactly zero, and the comparison
  // must run to its full budget and say so.
  const CompareOptions options = nexus_compare_options();
  const std::vector<CompareArm> arms = {
      {"a", nexus_arm_factory(true)}, {"b", nexus_arm_factory(true)}};
  const CompareResult result = CompareRunner(options).run(arms);
  ASSERT_TRUE(result.completed);
  EXPECT_FALSE(result.separated);
  EXPECT_FALSE(result.early_stop);
  EXPECT_EQ(result.best, 0u);  // tie resolves to the lowest index
  EXPECT_EQ(result.seeds_per_arm, 8);
  EXPECT_EQ(result.arms[0].mean, result.arms[1].mean);
}

TEST(CompareRunnerTest, StopTokenAbortsWithoutAVerdict) {
  const std::atomic<bool> stop{true};
  const CompareResult result =
      CompareRunner(nexus_compare_options()).run(nexus_arms(), &stop);
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.separated);
  EXPECT_EQ(result.seeds_per_arm, 0);
}

TEST(CompareRunnerTest, ValidatesOptionsAndArms) {
  CompareOptions options = nexus_compare_options();
  const CompareRunner runner(options);
  EXPECT_THROW(runner.run({nexus_arms()[0]}), ConfigError);  // one arm
  options.metric = nullptr;
  EXPECT_THROW(CompareRunner{options}, ConfigError);
  options = nexus_compare_options();
  options.min_seeds = 1;
  EXPECT_THROW(CompareRunner{options}, ConfigError);
  options = nexus_compare_options();
  options.max_seeds = 2;
  options.min_seeds = 4;
  EXPECT_THROW(CompareRunner{options}, ConfigError);
  options = nexus_compare_options();
  options.confidence = 1.0;
  EXPECT_THROW(CompareRunner{options}, ConfigError);
}

// --- service-layer compare jobs -------------------------------------------

// Odroid IPA (default) vs. app-aware (proposed) with BML: identical
// median FPS but a ~15 degC peak-temperature gap, so peak_temp_c is the
// discriminating verdict metric (the paper's Sec. IV-C case study).
CompareRequest odroid_compare_request() {
  CompareRequest request;
  CompareArmRequest ipa;
  ipa.request.scenario = "odroid";
  ipa.request.policy = "default";
  ipa.request.with_bml = true;
  ipa.request.duration_s = 120.0;
  CompareArmRequest appaware;
  appaware.request.scenario = "odroid";
  appaware.request.policy = "proposed";
  appaware.request.with_bml = true;
  appaware.request.duration_s = 120.0;
  request.arms = {ipa, appaware};
  request.metric = "peak_temp_c";
  request.max_seeds = 8;
  request.round_seeds = 2;
  request.min_seeds = 2;
  return request;
}

ServiceConfig compare_config(unsigned workers = 1) {
  ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = 16;
  config.cache_capacity = 128;
  return config;
}

std::string run_compare_payload(SimService& service,
                                const CompareRequest& request) {
  const SubmitOutcome out = service.submit_compare(request);
  EXPECT_TRUE(out.accepted) << out.reject_reason;
  EXPECT_TRUE(service.wait(out.id, 600.0));
  const auto result = service.result(out.id);
  EXPECT_NE(result, nullptr);
  return result ? result->payload : std::string();
}

TEST(ServiceCompare, VerdictNamesSeparationAndEarlyStop) {
  SimService service(ScenarioRegistry::standard(), compare_config());
  const SubmitOutcome out = service.submit_compare(odroid_compare_request());
  ASSERT_TRUE(out.accepted) << out.reject_reason;
  EXPECT_FALSE(out.cached);
  ASSERT_TRUE(service.wait(out.id, 600.0));
  const auto status = service.status(out.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  const auto result = service.result(out.id);
  ASSERT_NE(result, nullptr);
  const std::string& payload = result->payload;
  // The app-aware governor wins on peak temperature, separated at the
  // minimum sample count (the gap is ~15 degC against ~0.01 of noise).
  EXPECT_NE(payload.find("\"winner\":\"proposed+bml\""), std::string::npos)
      << payload;
  EXPECT_NE(payload.find("\"separated\":true"), std::string::npos);
  EXPECT_NE(payload.find("\"early_stop\":true"), std::string::npos);
  EXPECT_NE(payload.find("\"seeds_per_arm\":2"), std::string::npos);
  EXPECT_NE(payload.find("\"name\":\"default+bml\""), std::string::npos);
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.compares, 1u);
  EXPECT_EQ(stats.compare_rounds, 1u);
  EXPECT_EQ(stats.compare_lane_runs, 4u);  // 2 arms x 2 seeds
  EXPECT_EQ(stats.compare_early_stops, 1u);
}

TEST(ServiceCompare, RepeatComparisonIsServedFromCache) {
  SimService service(ScenarioRegistry::standard(), compare_config());
  const std::string first =
      run_compare_payload(service, odroid_compare_request());
  const SubmitOutcome again = service.submit_compare(odroid_compare_request());
  ASSERT_TRUE(again.accepted);
  EXPECT_TRUE(again.cached);
  const auto cached = service.result(again.id);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached->payload, first);  // byte-identical verdict
  EXPECT_EQ(service.stats().compare_rounds, 1u);  // nothing re-ran
}

// perfbench serve_cold's pair: Odroid 3DMark+BML, IPA vs. app-aware, on
// 10-s lanes, which never separate, so the verdict runs all 16 lanes in
// two rounds of 8.
CompareRequest benchmark_compare_request() {
  CompareRequest request = odroid_compare_request();
  for (CompareArmRequest& arm : request.arms) {
    arm.request.app = "threedmark";
    arm.request.duration_s = 10.0;
  }
  request.max_seeds = 8;
  request.round_seeds = 4;
  request.min_seeds = 4;
  return request;
}

TEST(ServiceCompare, WorkerCountDoesNotChangeTheVerdictBytes) {
  SimService one(ScenarioRegistry::standard(), compare_config(1));
  SimService three(ScenarioRegistry::standard(), compare_config(3));
  const std::string a = run_compare_payload(one, odroid_compare_request());
  const std::string b = run_compare_payload(three, odroid_compare_request());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // Idle workers run the rounds' lanes beside the owner: each lane runs
  // exactly once, none is skipped, and the bytes do not move.
  std::string reference;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SimService service(ScenarioRegistry::standard(), compare_config(workers));
    const std::string payload =
        run_compare_payload(service, benchmark_compare_request());
    ASSERT_FALSE(payload.empty()) << workers << " workers";
    if (reference.empty()) {
      reference = payload;
    }
    EXPECT_EQ(payload, reference) << workers << " workers";
    const service::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.compare_rounds, 2u) << workers << " workers";
    EXPECT_EQ(stats.compare_lane_runs, 16u) << workers << " workers";
    EXPECT_EQ(stats.compare_lane_hits, 0u) << workers << " workers";
  }
  EXPECT_NE(reference.find("\"rounds\":2"), std::string::npos) << reference;
}

TEST(ServiceCompare, IdenticalArmsRunEachLaneOnce) {
  // A round looks its lanes up before any of them runs, and may run them
  // on two workers at once; still each twin lane is served from its first
  // arm's run, a cache hit as in a serial loop, and never runs itself.
  CompareRequest request = benchmark_compare_request();
  request.arms[1] = request.arms[0];
  request.arms[1].name = "twin";
  SimService service(ScenarioRegistry::standard(), compare_config(2));
  const std::string payload = run_compare_payload(service, request);
  EXPECT_NE(payload.find("\"separated\":false"), std::string::npos)
      << payload;
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.compare_lane_runs, 8u);
  EXPECT_EQ(stats.compare_lane_hits, 8u);
  EXPECT_EQ(stats.cache.hits, 8u);
}

TEST(ServiceCompare, LaneResultsShareTheCacheWithPlainSubmits) {
  SimService service(ScenarioRegistry::standard(), compare_config());
  const CompareRequest request = odroid_compare_request();

  // Pre-run arm 0's first schedule seed as a plain submit: the compare
  // must pick it up from the cache instead of re-running it.
  service::SimRequest lane = request.arms[0].request;
  lane.seed = SeedSchedule(request.base_seed).at(0);
  const SubmitOutcome warm = service.submit(lane);
  ASSERT_TRUE(warm.accepted);
  ASSERT_TRUE(service.wait(warm.id, 600.0));

  const std::string payload = run_compare_payload(service, request);
  ASSERT_FALSE(payload.empty());
  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.compare_lane_hits, 1u);
  EXPECT_EQ(stats.compare_lane_runs, 3u);

  // A wider re-comparison (different verdict key) reuses all four lanes.
  CompareRequest wider = request;
  wider.max_seeds = 12;
  const SubmitOutcome out = service.submit_compare(wider);
  ASSERT_TRUE(out.accepted);
  EXPECT_FALSE(out.cached);  // different budget, different verdict key
  ASSERT_TRUE(service.wait(out.id, 600.0));
  EXPECT_EQ(service.stats().compare_lane_hits, 5u);
  EXPECT_EQ(service.stats().compare_lane_runs, 3u);  // no new runs
}

TEST(ServiceCompare, FaultedRoundsRetryWithoutPerturbingTheVerdict) {
  // Reference verdict with no injection.
  SimService clean(ScenarioRegistry::standard(), compare_config());
  const std::string expected =
      run_compare_payload(clean, odroid_compare_request());
  ASSERT_FALSE(expected.empty());

  // Same comparison under worker crashes: attempts consume retries, but
  // completed lanes are cached before the crash aborts the attempt, the
  // schedule is pure in base_seed, and the verdict bytes must not move.
  // With more than one worker the crashes also fire in lanes that idle
  // workers run for the owner.
  for (const unsigned workers : {1u, 2u, 4u}) {
    FaultPlanConfig fault_config;
    fault_config.seed = 3;
    fault_config.probability[static_cast<int>(
        FaultSite::kWorkerCrashBeforeSlice)] = 0.002;
    FaultPlan plan(fault_config);
    ServiceConfig config = compare_config(workers);
    config.max_attempts = 10;
    config.retry_backoff_s = 0.001;
    config.faults = &plan;
    SimService faulty(ScenarioRegistry::standard(), config);
    const std::string payload =
        run_compare_payload(faulty, odroid_compare_request());
    EXPECT_EQ(payload, expected) << workers << " workers";
    EXPECT_GT(plan.injected(FaultSite::kWorkerCrashBeforeSlice), 0u)
        << "fault plan never fired at " << workers
        << " workers; raise the probability";
    EXPECT_GT(faulty.stats().retries, 0u) << workers << " workers";
  }
}

// The Sec. IV-C pair on lanes no test waits out.
CompareRequest endless_compare_request() {
  CompareRequest request = odroid_compare_request();
  request.arms[0].request.duration_s = 100000.0;
  request.arms[1].request.duration_s = 100000.0;
  return request;
}

void wait_until_running(SimService& service, std::uint64_t id) {
  for (int spin = 0; spin < 2000; ++spin) {
    const auto s = service.status(id);
    ASSERT_TRUE(s.has_value());
    if (s->state == JobState::kRunning) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// At 2 workers the second worker runs lanes of the job too, and every one
// of them must stop on the job's deadline or cancellation.
TEST(ServiceCompare, DeadlineExpiresACompareJob) {
  for (const unsigned workers : {1u, 2u}) {
    SimService service(ScenarioRegistry::standard(), compare_config(workers));
    const SubmitOutcome out =
        service.submit_compare(endless_compare_request(), /*deadline_s=*/0.05);
    ASSERT_TRUE(out.accepted);
    ASSERT_TRUE(service.wait(out.id, 600.0));
    const auto status = service.status(out.id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kExpired) << workers << " workers";
    EXPECT_EQ(service.result(out.id), nullptr);
  }
}

TEST(ServiceCompare, CancelAbortsACompareJob) {
  for (const unsigned workers : {1u, 2u}) {
    SimService service(ScenarioRegistry::standard(), compare_config(workers));
    const SubmitOutcome out = service.submit_compare(endless_compare_request());
    ASSERT_TRUE(out.accepted);
    // Let it start running, then cancel cooperatively. The job settles
    // once every lane has stopped, in far less than a lane would run.
    wait_until_running(service, out.id);
    EXPECT_TRUE(service.cancel(out.id));
    ASSERT_TRUE(service.wait(out.id, 10.0)) << workers << " workers";
    EXPECT_EQ(service.status(out.id)->state, JobState::kCancelled)
        << workers << " workers";
  }
}

TEST(ServiceCompare, DestroyingTheServiceStopsEveryLane) {
  // The destructor stops the running job and joins both workers, so it
  // returns promptly only if the lane the helping worker runs sees the
  // stop token as well as the owner's.
  auto service = std::make_unique<SimService>(ScenarioRegistry::standard(),
                                              compare_config(2));
  const SubmitOutcome out = service->submit_compare(endless_compare_request());
  ASSERT_TRUE(out.accepted);
  wait_until_running(*service, out.id);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(service->status(out.id)->state, JobState::kRunning);
  const auto start = std::chrono::steady_clock::now();
  service.reset();
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            10.0);
}

TEST(ServiceCompare, InvalidComparisonsRejectAtAdmission) {
  SimService service(ScenarioRegistry::standard(), compare_config());
  CompareRequest one_arm = odroid_compare_request();
  one_arm.arms.pop_back();
  const SubmitOutcome a = service.submit_compare(one_arm);
  EXPECT_FALSE(a.accepted);
  EXPECT_EQ(a.reject_code, service::errc::kInvalidRequest);

  CompareRequest bad_metric = odroid_compare_request();
  bad_metric.metric = "frame_jank";
  EXPECT_FALSE(service.submit_compare(bad_metric).accepted);

  CompareRequest bad_budget = odroid_compare_request();
  bad_budget.min_seeds = 1;
  EXPECT_FALSE(service.submit_compare(bad_budget).accepted);

  CompareRequest bad_scenario = odroid_compare_request();
  bad_scenario.arms[0].request.scenario = "nokia";
  EXPECT_FALSE(service.submit_compare(bad_scenario).accepted);
  EXPECT_EQ(service.stats().compares, 0u);
}

// --- one round loop --------------------------------------------------------

/// Runs `request` through sim::CompareRunner (a two-thread BatchRunner over
/// registry-built engines) and through SimService::submit_compare, and
/// expects the same verdict bit for bit. Returns the runner's verdict.
CompareResult expect_same_verdict(const CompareRequest& request) {
  const ScenarioRegistry registry = ScenarioRegistry::standard();
  CompareOptions options;
  options.confidence = request.confidence;
  options.max_seeds = request.max_seeds;
  options.round_seeds = request.round_seeds;
  options.min_seeds = request.min_seeds;
  options.base_seed = request.base_seed;
  options.higher_is_better =
      sim::compare_metric_higher_is_better(request.metric);
  options.duration_s = request.arms[0].request.duration_s;
  options.metric = [&request](const sim::BatchRecord& record) {
    return sim::compare_metric_value(record.metrics, request.metric);
  };
  options.batch.threads = 2;
  std::vector<CompareArm> arms;
  for (const CompareArmRequest& arm : request.arms) {
    const service::SimRequest resolved = registry.resolve(arm.request);
    arms.push_back({arm.name, [&registry, resolved](std::size_t,
                                                    std::uint64_t seed) {
                      service::SimRequest lane = resolved;
                      lane.seed = seed;
                      return registry.make_engine(lane);
                    }});
  }
  const CompareResult expected = CompareRunner(options).run(arms);

  SimService service(ScenarioRegistry::standard(), compare_config(2));
  const util::json::Value payload =
      util::json::Value::parse(run_compare_payload(service, request));
  const util::json::Value& verdict = *payload.find("compare");
  EXPECT_EQ(verdict.find("winner")->as_string(),
            expected.names[expected.best]);
  EXPECT_EQ(verdict.find("separated")->as_bool(), expected.separated);
  EXPECT_EQ(verdict.find("early_stop")->as_bool(), expected.early_stop);
  EXPECT_EQ(verdict.find("rounds")->as_number(), expected.rounds);
  EXPECT_EQ(verdict.find("seeds_per_arm")->as_number(),
            expected.seeds_per_arm);
  const std::vector<util::json::Value>& arm_stats =
      verdict.find("arms")->items();
  EXPECT_EQ(arm_stats.size(), expected.arms.size());
  for (std::size_t a = 0; a < arm_stats.size() && a < expected.arms.size();
       ++a) {
    EXPECT_EQ(arm_stats[a].find("mean")->as_number(), expected.arms[a].mean)
        << "arm " << a;
    EXPECT_EQ(arm_stats[a].find("ci95")->as_number(),
              expected.arms[a].half_width)
        << "arm " << a;
    EXPECT_EQ(arm_stats[a].find("stddev")->as_number(),
              expected.arms[a].stddev)
        << "arm " << a;
    EXPECT_EQ(arm_stats[a].find("n")->as_number(), expected.arms[a].n)
        << "arm " << a;
  }
  return expected;
}

CompareArmRequest arm_request(const std::string& scenario,
                              const std::string& app,
                              const std::string& policy, bool with_bml,
                              double duration_s) {
  CompareArmRequest arm;
  arm.name = policy;
  arm.request.scenario = scenario;
  arm.request.app = app;
  arm.request.policy = policy;
  arm.request.with_bml = with_bml;
  arm.request.duration_s = duration_s;
  return arm;
}

TEST(CompareParity, RunnerAndServiceAgreeOnAnEarlyStop) {
  CompareRequest request;
  request.arms = {arm_request("nexus", "paperio", "unthrottled", false, 30.0),
                  arm_request("nexus", "paperio", "throttled", false, 30.0)};
  request.metric = "median_fps";
  request.max_seeds = 8;
  request.round_seeds = 2;
  request.min_seeds = 2;
  const CompareResult verdict = expect_same_verdict(request);
  EXPECT_TRUE(verdict.early_stop);
}

TEST(CompareParity, RunnerAndServiceAgreeOverTheFullBudget) {
  // The end-to-end benchmark's pair: Odroid 3DMark + BML, default vs
  // proposed, 10 s runs.
  CompareRequest request;
  request.arms = {
      arm_request("odroid", "threedmark", "default", true, 10.0),
      arm_request("odroid", "threedmark", "proposed", true, 10.0)};
  request.metric = "peak_temp_c";
  request.max_seeds = 8;
  request.round_seeds = 4;
  request.min_seeds = 4;
  const CompareResult verdict = expect_same_verdict(request);
  EXPECT_EQ(verdict.seeds_per_arm, 8);
}

// --- NDJSON protocol -------------------------------------------------------

TEST(ServerCompare, CompareOpRoundTripsAndCaches) {
  SimService service(ScenarioRegistry::standard(), compare_config());
  service::SimServer server(service);
  const std::string request =
      "{\"op\":\"compare\",\"arms\":["
      "{\"scenario\":\"odroid\",\"policy\":\"default\",\"with_bml\":true,"
      "\"duration_s\":120},"
      "{\"scenario\":\"odroid\",\"policy\":\"proposed\",\"with_bml\":true,"
      "\"duration_s\":120}],"
      "\"metric\":\"peak_temp_c\",\"max_seeds\":8,\"round_seeds\":2,"
      "\"min_seeds\":2}";
  const std::string submitted = server.handle_line(request);
  EXPECT_NE(submitted.find("\"ok\":true"), std::string::npos) << submitted;
  EXPECT_NE(submitted.find("\"op\":\"compare\""), std::string::npos);
  EXPECT_NE(submitted.find("\"cached\":false"), std::string::npos);
  const std::string waited =
      server.handle_line("{\"op\":\"wait\",\"job\":1,\"timeout_s\":600}");
  EXPECT_NE(waited.find("\"done\":true"), std::string::npos) << waited;
  const std::string result =
      server.handle_line("{\"op\":\"result\",\"job\":1}");
  EXPECT_NE(result.find("\"compare\":{"), std::string::npos) << result;
  EXPECT_NE(result.find("\"winner\":\"proposed+bml\""), std::string::npos);
  EXPECT_NE(result.find("\"separated\":true"), std::string::npos);
  EXPECT_NE(result.find("\"ci95\":"), std::string::npos);

  // Byte-identical repeat, served from the verdict cache.
  const std::string again = server.handle_line(request);
  EXPECT_NE(again.find("\"cached\":true"), std::string::npos) << again;
  const std::string cached =
      server.handle_line("{\"op\":\"result\",\"job\":2}");
  const auto splice = [](const std::string& response) {
    return response.substr(response.find("\"result\":"));
  };
  EXPECT_EQ(splice(cached), splice(result));
}

TEST(ServerCompare, MalformedCompareRequestsGetStructuredErrors) {
  SimService service(ScenarioRegistry::standard(), compare_config());
  service::SimServer server(service);
  for (const char* line : {
           "{\"op\":\"compare\"}",                        // no arms
           "{\"op\":\"compare\",\"arms\":[]}",            // empty arms
           "{\"op\":\"compare\",\"arms\":\"x\"}",         // wrong type
           "{\"op\":\"compare\",\"arms\":[{\"scenario\":\"odroid\"}],"
           "\"metric\":\"nope\"}",                        // bad metric
           "{\"op\":\"compare\",\"arms\":[{\"scenario\":\"odroid\"},"
           "{\"scenario\":\"odroid\"}],\"round_seeds\":0}",  // bad ints
       }) {
    const std::string response = server.handle_line(line);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << line;
    EXPECT_NE(response.find("\"error\":{"), std::string::npos) << line;
  }
}

TEST(ServerCompare, ScenariosOpListsCompareMetrics) {
  SimService service(ScenarioRegistry::standard(), compare_config());
  service::SimServer server(service);
  const std::string response = server.handle_line("{\"op\":\"scenarios\"}");
  EXPECT_NE(response.find("\"compare_metrics\":["), std::string::npos);
  EXPECT_NE(response.find("\"median_fps\""), std::string::npos);
  EXPECT_NE(response.find("\"peak_temp_c\""), std::string::npos);
  EXPECT_NE(response.find("\"mean_power_w\""), std::string::npos);
}

}  // namespace
}  // namespace mobitherm
