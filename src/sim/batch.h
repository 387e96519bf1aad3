// Parallel multi-seed / multi-config batch execution.
//
// The journal follow-up to the paper (Bhat et al., arXiv:2003.11081)
// sweeps policies and seeds at a scale a serial loop cannot support. The
// batch runner fans a scenario factory across a worker pool: every run
// gets its own freshly constructed Engine (no shared mutable state between
// workers — the only sharing is the read-only factory), so a parallel
// sweep is bit-identical to the serial one, just reordered in wall-clock
// time. Results are stored by run index, which keeps downstream statistics
// (sim/montecarlo.h) byte-stable regardless of thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/report.h"

namespace mobitherm::sim {

/// Worker-pool options shared by every batch entry point.
struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;
};

/// Invoke `fn(0) .. fn(n-1)` across `threads` workers and block until all
/// complete. Indices are claimed in ascending order from an atomic
/// counter, so no two workers ever run the same index; `fn` must not touch
/// state shared across indices. When invocations throw, the exception of
/// the lowest failing index is rethrown on the calling thread after the
/// pool drains — the one a serial loop would have hit — at any thread
/// count. After a failure no new index is claimed (every later claim is a
/// higher index), but indices already claimed run to completion.
void parallel_for_index(std::size_t n, unsigned threads,
                        const std::function<void(std::size_t)>& fn);

/// One run of a batch: which seed it was, its full metric record, and the
/// post-run report.
struct BatchRecord {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  RunMetrics metrics;
  RunReport report;
  /// Wall-clock seconds this run took on its worker: its own engine
  /// construction and simulation, not the summary.
  double wall_s = 0.0;
  /// False when the batch's stop token fired before or during this run:
  /// the metrics/report then summarize a partial (or empty) run.
  bool completed = true;
};

/// Builds a fully wired engine (platform, governors, apps) for one batch
/// job. Called once per run, possibly concurrently — it must only read
/// shared state.
using EngineFactory =
    std::function<std::unique_ptr<Engine>(std::size_t index,
                                          std::uint64_t seed)>;

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Fan `factory` across seeds base_seed..base_seed+runs-1, run each
  /// engine for `duration_s`, and return the per-run records in seed
  /// order. Every run is its own job on the pool (build, run, summarize),
  /// so a fan of N runs spreads over min(N, threads) workers. `metrics`
  /// parameterizes the per-run summaries. A failing run rethrows as
  /// parallel_for_index() does: the lowest failing index wins.
  ///
  /// `stop` is an optional cooperative cancellation token shared by the
  /// whole batch (threaded into every Engine::run, checked once per
  /// tick): setting it aborts in-flight runs at their next tick and
  /// skips unstarted ones. Affected records come back with
  /// `completed == false`.
  std::vector<BatchRecord> run(std::size_t runs, std::uint64_t base_seed,
                               double duration_s,
                               const EngineFactory& factory,
                               MetricsOptions metrics = {},
                               const std::atomic<bool>* stop =
                                   nullptr) const;

  /// Evaluate `metric(seed)` for seeds base_seed..base_seed+n-1 across the
  /// pool; results come back indexed by seed order, bit-identical to the
  /// serial loop.
  std::vector<double> sweep(
      const std::function<double(std::uint64_t)>& metric, int n,
      std::uint64_t base_seed) const;

  unsigned resolved_threads() const;

 private:
  BatchOptions options_;
};

}  // namespace mobitherm::sim
