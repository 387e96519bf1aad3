#include "sim/compare.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.h"
#include "util/seed_schedule.h"

namespace mobitherm::sim {

void validate_rule(const CompareRule& rule) {
  if (!(rule.confidence > 0.0) || !(rule.confidence < 1.0)) {
    throw util::ConfigError("compare: confidence must be in (0, 1)");
  }
  if (rule.min_seeds < 2) {
    throw util::ConfigError("compare: min_seeds must be >= 2");
  }
  if (rule.max_seeds < rule.min_seeds) {
    throw util::ConfigError("compare: max_seeds must be >= min_seeds");
  }
  if (rule.round_seeds < 1) {
    throw util::ConfigError("compare: round_seeds must be >= 1");
  }
}

CompareDecision decide_best_arm(const std::vector<WelfordAccumulator>& arms,
                                double confidence, bool higher_is_better) {
  if (arms.empty()) {
    throw util::ConfigError("decide_best_arm: no arms");
  }
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    throw util::ConfigError("decide_best_arm: confidence must be in (0, 1)");
  }
  CompareDecision decision;
  for (std::size_t a = 1; a < arms.size(); ++a) {
    const double mean = arms[a].mean();
    const double best = arms[decision.best].mean();
    // Strict comparison: ties keep the lowest arm index, so the pick is a
    // pure function of the accumulator state.
    if (higher_is_better ? mean > best : mean < best) {
      decision.best = a;
    }
  }
  decision.separated = true;
  for (std::size_t a = 0; a < arms.size() && decision.separated; ++a) {
    if (arms[a].count() < 2) {
      decision.separated = false;  // infinite half-width by construction
    }
  }
  const WelfordAccumulator& best = arms[decision.best];
  const double best_hw = ci_half_width(best.stddev(), best.count(),
                                       confidence);
  for (std::size_t a = 0; a < arms.size() && decision.separated; ++a) {
    if (a == decision.best) {
      continue;
    }
    const double rival_hw =
        ci_half_width(arms[a].stddev(), arms[a].count(), confidence);
    if (!(std::abs(best.mean() - arms[a].mean()) > best_hw + rival_hw)) {
      decision.separated = false;
    }
  }
  return decision;
}

CompareResult run_compare_rounds(const CompareRule& rule,
                                 bool higher_is_better,
                                 std::vector<std::string> names,
                                 const CompareRound& round) {
  const std::size_t arm_count = names.size();
  const util::SeedSchedule schedule(rule.base_seed);
  std::vector<WelfordAccumulator> accs(arm_count);
  CompareResult result;
  result.names = std::move(names);
  std::vector<std::uint64_t> seeds;
  std::vector<double> values;

  int seeds_done = 0;
  while (seeds_done < rule.max_seeds) {
    const std::size_t slots = static_cast<std::size_t>(
        std::min(rule.round_seeds, rule.max_seeds - seeds_done));
    seeds.resize(slots);
    for (std::size_t s = 0; s < slots; ++s) {
      seeds[s] = schedule.at(static_cast<std::uint64_t>(seeds_done) + s);
    }
    values.assign(arm_count * slots, 0.0);
    if (!round(seeds, values)) {
      // The round's samples are partial, so none of them may enter the
      // accumulators (a half-fed round would depend on which lanes
      // finished first — a thread-count artifact).
      result.completed = false;
      break;
    }
    // Accumulate arm-major, slot order — the ordered per-seed results the
    // decision below is a pure function of.
    for (std::size_t a = 0; a < arm_count; ++a) {
      for (std::size_t s = 0; s < slots; ++s) {
        accs[a].add(values[a * slots + s]);
      }
    }
    seeds_done += static_cast<int>(slots);
    ++result.rounds;
    const CompareDecision decision =
        decide_best_arm(accs, rule.confidence, higher_is_better);
    result.best = decision.best;
    if (seeds_done >= rule.min_seeds && decision.separated) {
      result.separated = true;
      result.early_stop = seeds_done < rule.max_seeds;
      break;
    }
  }
  result.seeds_per_arm = seeds_done;
  for (const WelfordAccumulator& acc : accs) {
    result.arms.push_back(arm_stats(acc, rule.confidence));
  }
  return result;
}

CompareRunner::CompareRunner(CompareOptions options)
    : options_(std::move(options)) {
  validate_rule(options_);
  if (options_.duration_s <= 0.0) {
    throw util::ConfigError("compare: duration_s must be positive");
  }
  if (!options_.metric) {
    throw util::ConfigError("compare: null metric");
  }
}

CompareResult CompareRunner::run(const std::vector<CompareArm>& arms,
                                 const std::atomic<bool>* stop) const {
  if (arms.size() < 2) {
    throw util::ConfigError("compare: need at least two arms");
  }
  std::vector<std::string> names;
  names.reserve(arms.size());
  for (const CompareArm& arm : arms) {
    if (!arm.factory) {
      throw util::ConfigError("compare: arm '" + arm.name +
                              "' has a null factory");
    }
    names.push_back(arm.name);
  }
  const BatchRunner batch(options_.batch);
  return run_compare_rounds(
      options_, options_.higher_is_better, std::move(names),
      [&](const std::vector<std::uint64_t>& seeds,
          std::vector<double>& values) {
        // Arm-major fan-out: run k is arm k/slots at slot k%slots, on the
        // slot's schedule seed, not BatchRunner's — the CRN contract.
        const std::size_t slots = seeds.size();
        const EngineFactory factory = [&](std::size_t index, std::uint64_t) {
          return arms[index / slots].factory(index, seeds[index % slots]);
        };
        const std::vector<BatchRecord> records =
            batch.run(values.size(), /*base_seed=*/0, options_.duration_s,
                      factory, options_.metrics, stop);
        if (std::any_of(records.begin(), records.end(),
                        [](const BatchRecord& r) { return !r.completed; })) {
          return false;  // the stop token fired mid-round
        }
        std::transform(records.begin(), records.end(), values.begin(),
                       options_.metric);
        return true;
      });
}

double compare_metric_value(const RunMetrics& metrics,
                            const std::string& name) {
  if (name == "median_fps") {
    if (metrics.median_fps.empty()) {
      throw util::ConfigError(
          "compare: run has no app fps to read for metric 'median_fps'");
    }
    return metrics.median_fps.front();
  }
  if (name == "peak_temp_c") {
    return metrics.peak_temp_c;
  }
  if (name == "mean_power_w") {
    return metrics.mean_power_w;
  }
  throw util::ConfigError("compare: unknown metric '" + name + "'");
}

bool compare_metric_higher_is_better(const std::string& name) {
  if (name == "median_fps") {
    return true;
  }
  if (name == "peak_temp_c" || name == "mean_power_w") {
    return false;
  }
  throw util::ConfigError("compare: unknown metric '" + name + "'");
}

const std::vector<std::string>& compare_metric_names() {
  static const std::vector<std::string> names = {"median_fps", "peak_temp_c",
                                                 "mean_power_w"};
  return names;
}

}  // namespace mobitherm::sim
