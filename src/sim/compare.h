// Best-arm policy comparison with statistical early stopping.
//
// The paper's headline tables are point-estimate policy comparisons (IPA
// vs. the app-aware governor, with/without BML). This module turns that
// into a statistical verdict: K policy "arms" are evaluated round by round
// over a shared deterministic seed schedule (util/seed_schedule.h — common
// random numbers, so per-seed jitter cancels out of the arm-vs-arm
// difference), each arm accrues into a streaming WelfordAccumulator, and
// the run stops as soon as the best arm's confidence interval separates
// from every rival's — or the per-arm seed budget is exhausted.
//
// Separation criterion: arm b (best by mean, direction per
// `higher_is_better`) is separated from rival r when
//
//     |mean_b - mean_r| > half_width_b + half_width_r
//
// with half-widths z * s / sqrt(n) at the configured confidence. Every arm
// must hold >= 2 samples before any separation claim (a single sample has
// an infinite half-width by construction).
//
// Determinism rule (the hard one): the adaptive stop/continue decision is
// a *pure function of the ordered per-seed results*. Arms consume schedule
// entries in index order, accumulators are fed arm-major in slot order
// after each round completes, and decide_best_arm() reads only
// accumulator state — never wall-clock, never thread identity. Replays
// are therefore byte-identical at any thread count (BatchRunner already
// guarantees per-record bit-identity). The round loop lives in one place,
// run_compare_rounds(): CompareRunner feeds it rounds of BatchRunner runs,
// and the service layer's `compare` jobs (service/service.h) feed it
// rounds of cached or sliced lanes, so they inherit the same guarantee
// across worker counts and fault-injected retries.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/batch.h"
#include "sim/metrics.h"
#include "sim/montecarlo.h"

namespace mobitherm::sim {

/// One policy variant under comparison: a label plus an engine factory.
/// The factory receives the flat (round-local) run index and the schedule
/// seed for its slot and must build a fully wired engine for that seed —
/// pure, like every BatchRunner factory.
struct CompareArm {
  std::string name;
  EngineFactory factory;
};

/// The best-arm stopping rule shared by CompareRunner and the service's
/// compare job (service::CompareRequest derives from it as well).
struct CompareRule {
  /// Two-sided confidence level of the per-arm intervals.
  double confidence = 0.95;
  /// Per-arm seed budget: the comparison never runs more than this many
  /// schedule entries per arm.
  int max_seeds = 32;
  /// Seeds added per arm per round (the decision cadence).
  int round_seeds = 4;
  /// No separation verdict before each arm holds this many seeds (>= 2).
  int min_seeds = 4;
  /// Base of the shared seed schedule; arm a's i-th sample always runs
  /// seed SeedSchedule(base_seed).at(i), whatever the round slicing.
  std::uint64_t base_seed = 1;
};

/// Throws util::ConfigError unless confidence is in (0, 1), min_seeds >= 2,
/// max_seeds >= min_seeds and round_seeds >= 1.
void validate_rule(const CompareRule& rule);

struct CompareOptions : CompareRule {
  /// Metric direction: true picks the highest mean as best (fps), false
  /// the lowest (peak temperature, power).
  bool higher_is_better = true;
  /// Simulated seconds per run (shared by every arm and seed).
  double duration_s = 10.0;
  /// Metric extracted from each finished run; must be non-null.
  std::function<double(const BatchRecord&)> metric;
  /// Per-run summary options forwarded to BatchRunner.
  MetricsOptions metrics;
  /// Worker-pool shape for the per-round fan-out: every (arm, seed) run of
  /// a round is its own pool job.
  BatchOptions batch;
};

/// The pure stop/continue decision over current accumulator state.
struct CompareDecision {
  std::size_t best = 0;  // arm index with the best mean (ties: lowest index)
  bool separated = false;
};

/// Pick the best arm by mean and test CI separation against every rival.
/// Pure: depends only on the accumulators' (mean, stddev, n) state, the
/// confidence level and the direction — never on evaluation order, time or
/// thread count. Throws util::ConfigError on an empty arm list or an
/// out-of-range confidence.
CompareDecision decide_best_arm(const std::vector<WelfordAccumulator>& arms,
                                double confidence, bool higher_is_better);

/// Verdict of a comparison run.
struct CompareResult {
  std::size_t best = 0;
  bool separated = false;
  /// Rounds executed and schedule entries consumed per arm.
  int rounds = 0;
  int seeds_per_arm = 0;
  /// True when the run stopped on CI separation before exhausting the
  /// per-arm budget.
  bool early_stop = false;
  /// False when the cooperative stop token aborted the run; `arms` then
  /// summarize only the completed rounds.
  bool completed = true;
  /// Final per-arm statistics at the configured confidence, arm order.
  std::vector<ArmStats> arms;
  std::vector<std::string> names;
};

/// One round: run every arm on each schedule seed of the round and write
/// arm a's value at slot s into values[a * seeds.size() + s]. Returns
/// false when the round was cut short; none of its values is used.
using CompareRound = std::function<bool(
    const std::vector<std::uint64_t>& seeds, std::vector<double>& values)>;

/// The one round loop: rounds of round_seeds schedule entries per arm,
/// accumulated in (arm, slot) order, then decide_best_arm() and the
/// min_seeds / early-stop rule. A round cut short ends the run with
/// `completed` false. The caller validates the rule.
CompareResult run_compare_rounds(const CompareRule& rule,
                                 bool higher_is_better,
                                 std::vector<std::string> names,
                                 const CompareRound& round);

/// Round-by-round best-arm evaluation over a shared seed schedule.
class CompareRunner {
 public:
  explicit CompareRunner(CompareOptions options);

  /// Run the comparison: run_compare_rounds() with a round that fans
  /// round_seeds schedule entries per arm through one BatchRunner::run
  /// call (arm-major flat indexing). `stop` is the optional cooperative
  /// cancellation token shared with the whole batch. Throws
  /// util::ConfigError on bad options or fewer than two arms.
  CompareResult run(const std::vector<CompareArm>& arms,
                    const std::atomic<bool>* stop = nullptr) const;

 private:
  CompareOptions options_;
};

/// Named verdict metrics the service layer exposes: extract one summary
/// number from a finished run's RunMetrics. "median_fps" reads the
/// foreground (first) app; "peak_temp_c" and "mean_power_w" read the run
/// summaries. Throws util::ConfigError on unknown names.
double compare_metric_value(const RunMetrics& metrics,
                            const std::string& name);

/// Direction of a named metric (fps up, temperature/power down). Throws
/// util::ConfigError on unknown names.
bool compare_metric_higher_is_better(const std::string& name);

/// The supported metric names, stable order (for the `scenarios` op).
const std::vector<std::string>& compare_metric_names();

}  // namespace mobitherm::sim
