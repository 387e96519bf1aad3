// Batch-runner tests: the parallel multi-seed sweep must be bit-identical
// to the serial evaluation (one isolated engine per run, results stored by
// index), and worker failures must surface as exceptions, not hangs — the
// lowest failing run's, whatever the thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch.h"
#include "sim/experiment.h"
#include "sim/montecarlo.h"
#include "sim/report.h"
#include "util/error.h"
#include "workload/presets.h"

namespace mobitherm::sim {
namespace {

using util::ConfigError;

double nexus_fps_metric(std::uint64_t seed) {
  NexusRun run;
  run.app = workload::paperio();
  run.duration_s = 3.0;
  run.seed = seed;
  return run_nexus_app(run).median_fps;
}

TEST(ParallelForIndex, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for_index(hits.size(), 4,
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const std::atomic<int>& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  // Degenerate shapes: empty range and more workers than items.
  parallel_for_index(0, 4, [](std::size_t) { FAIL(); });
  std::atomic<int> count{0};
  parallel_for_index(2, 16, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 2);
}

TEST(ParallelForIndex, PropagatesFirstWorkerException) {
  EXPECT_THROW(parallel_for_index(8, 4,
                                  [](std::size_t i) {
                                    if (i == 5) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
               std::runtime_error);
}

TEST(AcrossSeeds, SerialAndParallelAreBitIdentical) {
  const SeedStats serial = across_seeds(nexus_fps_metric, 6, 1, 1);
  const SeedStats parallel = across_seeds(nexus_fps_metric, 6, 1, 4);
  EXPECT_EQ(serial.mean, parallel.mean);
  EXPECT_EQ(serial.stddev, parallel.stddev);
  EXPECT_EQ(serial.min, parallel.min);
  EXPECT_EQ(serial.max, parallel.max);
}

TEST(BatchRunner, SweepMatchesManualSerialLoop) {
  BatchOptions opts;
  opts.threads = 4;
  BatchRunner runner(opts);
  const std::vector<double> swept = runner.sweep(nexus_fps_metric, 5, 7);
  ASSERT_EQ(swept.size(), 5u);
  for (std::size_t i = 0; i < swept.size(); ++i) {
    EXPECT_EQ(swept[i], nexus_fps_metric(7 + i));
  }
}

TEST(BatchRunner, RunProducesOrderedFullRecords) {
  BatchOptions opts;
  opts.threads = 4;
  BatchRunner runner(opts);
  EXPECT_GE(runner.resolved_threads(), 1u);
  const std::vector<BatchRecord> records = runner.run(
      3, /*base_seed=*/21, /*duration_s=*/3.0,
      [](std::size_t, std::uint64_t seed) {
        NexusRun run;
        run.app = workload::paperio();
        run.seed = seed;
        return make_nexus_engine(run);
      });
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BatchRecord& r = records[i];
    EXPECT_EQ(r.index, i);
    EXPECT_EQ(r.seed, 21 + i);
    EXPECT_GT(r.metrics.peak_temp_c, 0.0);
    EXPECT_GT(r.metrics.mean_power_w, 0.0);
    ASSERT_EQ(r.metrics.median_fps.size(), 1u);
    EXPECT_GT(r.metrics.median_fps[0], 0.0);
    EXPECT_GT(r.report.peak_temp_c, 0.0);
    EXPECT_GE(r.wall_s, 0.0);
  }
  // Distinct seeds perturb the workload, so the records differ.
  EXPECT_NE(records[0].metrics.median_fps[0],
            records[1].metrics.median_fps[0]);

  // The same sweep again is deterministic run-to-run.
  const std::vector<BatchRecord> again = runner.run(
      3, 21, 3.0, [](std::size_t, std::uint64_t seed) {
        NexusRun run;
        run.app = workload::paperio();
        run.seed = seed;
        return make_nexus_engine(run);
      });
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].metrics.median_fps[0],
              again[i].metrics.median_fps[0]);
    EXPECT_EQ(records[i].metrics.peak_temp_c, again[i].metrics.peak_temp_c);
    EXPECT_EQ(records[i].metrics.mean_power_w,
              again[i].metrics.mean_power_w);
  }
}

// A fan that mixes platforms the way the benchmark sweep does: even runs
// are Nexus Paper.io, odd runs Odroid 3DMark+BML under the proposed policy.
std::unique_ptr<Engine> mixed_fan_engine(std::size_t index,
                                         std::uint64_t seed) {
  if (index % 2 == 0) {
    NexusRun run;
    run.app = workload::paperio();
    run.seed = seed;
    return make_nexus_engine(run);
  }
  OdroidRun run;
  run.foreground = workload::threedmark();
  run.policy = ThermalPolicy::kProposed;
  run.with_bml = true;
  run.seed = seed;
  return make_odroid_engine(run);
}

void expect_same_record(const BatchRecord& a, const BatchRecord& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.metrics.temp_trace_c, b.metrics.temp_trace_c);
  EXPECT_EQ(a.metrics.peak_temp_c, b.metrics.peak_temp_c);
  EXPECT_EQ(a.metrics.final_temp_c, b.metrics.final_temp_c);
  EXPECT_EQ(a.metrics.mean_power_w, b.metrics.mean_power_w);
  EXPECT_EQ(a.metrics.residency, b.metrics.residency);
  EXPECT_EQ(a.metrics.mean_rail_w, b.metrics.mean_rail_w);
  EXPECT_EQ(a.metrics.median_fps, b.metrics.median_fps);
  EXPECT_EQ(a.metrics.phase_fps, b.metrics.phase_fps);
  EXPECT_EQ(format_report(a.report), format_report(b.report));
}

TEST(BatchRunner, FansAreIdenticalAtAnyThreadCount) {
  // The fan sizes a Table I confidence fan (16) and a CompareRunner round
  // (8) produce; every run is its own pool job, so the records must not
  // depend on how many workers shared them out.
  for (const std::size_t runs : {std::size_t{8}, std::size_t{16}}) {
    BatchOptions serial_opts;
    serial_opts.threads = 1;
    const std::vector<BatchRecord> serial =
        BatchRunner(serial_opts).run(runs, 61, 2.0, mixed_fan_engine);
    ASSERT_EQ(serial.size(), runs);
    for (std::size_t i = 0; i < runs; ++i) {
      EXPECT_EQ(serial[i].index, i);
      EXPECT_EQ(serial[i].seed, 61 + i);
      EXPECT_TRUE(serial[i].completed);
      EXPECT_GT(serial[i].wall_s, 0.0);
    }
    for (const unsigned threads : {2u, 4u}) {
      BatchOptions opts;
      opts.threads = threads;
      const std::vector<BatchRecord> parallel =
          BatchRunner(opts).run(runs, 61, 2.0, mixed_fan_engine);
      ASSERT_EQ(parallel.size(), runs);
      for (std::size_t i = 0; i < runs; ++i) {
        SCOPED_TRACE("runs=" + std::to_string(runs) +
                     " threads=" + std::to_string(threads) +
                     " index=" + std::to_string(i));
        expect_same_record(serial[i], parallel[i]);
      }
    }
  }
}

TEST(BatchRunner, RethrowsLowestFailingRunAtAnyThreadCount) {
  // Run 3 fails late and run 6 fails at once, so in wall-clock order run
  // 6 usually fails first. The batch must still report run 3, as the
  // serial loop does.
  const EngineFactory factory = [](std::size_t index,
                                   std::uint64_t seed) {
    if (index == 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      throw std::runtime_error("run 3 failed");
    }
    if (index == 6) {
      throw std::runtime_error("run 6 failed");
    }
    return mixed_fan_engine(index, seed);
  };
  for (const unsigned threads : {1u, 2u, 4u}) {
    BatchOptions opts;
    opts.threads = threads;
    try {
      BatchRunner(opts).run(8, 1, 2.0, factory);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "run 3 failed") << "threads=" << threads;
    }
  }
}

TEST(BatchRunner, RejectsInvalidInputs) {
  BatchRunner runner;
  EXPECT_THROW(runner.run(0, 1, 1.0,
                          [](std::size_t, std::uint64_t) {
                            return std::unique_ptr<Engine>();
                          }),
               ConfigError);
  EXPECT_THROW(runner.run(1, 1, 1.0, nullptr), ConfigError);
  EXPECT_THROW(runner.run(1, 1, 1.0,
                          [](std::size_t, std::uint64_t) {
                            return std::unique_ptr<Engine>();
                          }),
               ConfigError);
  EXPECT_THROW(runner.sweep(nullptr, 3, 1), ConfigError);
}

}  // namespace
}  // namespace mobitherm::sim
