// Multi-seed experiment statistics.
//
// Workload jitter and sensor noise are seeded, so any scenario can be
// replayed across seeds to attach confidence information to a reported
// number — what a careful reproduction does before comparing against the
// paper's single hardware run. Seed fan-out is delegated to the parallel
// batch runner (sim/batch.h): every seed gets an isolated engine, results
// are collected in seed order, and the summary is bit-identical for any
// thread count (including the serial threads=1 path).
//
// The accumulation core is Welford's streaming algorithm: mean and M2 are
// updated one sample at a time, so adaptive consumers (sim/compare.h) can
// refine an arm's statistics round by round without rescanning samples.
// summarize() feeds the same accumulator in sample order, which keeps the
// batch/montecarlo callers bit-identical to the historical two-pass
// implementation for the pinned test vectors.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/batch.h"

namespace mobitherm::sim {

/// Streaming mean/variance accumulator (Welford 1962). One pass, O(1)
/// state, numerically stable; the update order is the sample order, so two
/// accumulators fed the same samples in the same order hold bit-identical
/// state regardless of when the samples arrived.
class WelfordAccumulator {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / n_;
    m2_ += delta * (x - mean_);
    if (n_ == 1) {
      min_ = x;
      max_ = x;
    } else {
      if (x < min_) min_ = x;
      if (x > max_) max_ = x;
    }
  }

  int count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 until two samples exist.
  double variance() const { return n_ > 1 ? m2_ / (n_ - 1) : 0.0; }
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct SeedStats {
  double mean = 0.0;
  double stddev = 0.0;  // sample standard deviation
  double min = 0.0;
  double max = 0.0;
  int n = 0;
};

/// One arm's statistics at a confidence level: the Welford summary plus
/// the normal-theory confidence-interval half-width z * s / sqrt(n).
/// `half_width` is +infinity until two samples exist (no interval can be
/// formed from one), which makes an under-sampled arm unseparable by
/// construction.
struct ArmStats {
  double mean = 0.0;
  double stddev = 0.0;
  double half_width = 0.0;
  double confidence = 0.0;
  int n = 0;
};

/// Inverse standard-normal CDF (Acklam's rational approximation, relative
/// error < 1.15e-9 — far below the seed noise it is applied to). Pure;
/// throws util::ConfigError unless 0 < p < 1.
double normal_quantile(double p);

/// Two-sided CI half-width z_{(1+confidence)/2} * stddev / sqrt(n);
/// +infinity when n < 2. Throws util::ConfigError unless
/// 0 < confidence < 1.
double ci_half_width(double stddev, int n, double confidence);

/// Snapshot an accumulator at a confidence level.
ArmStats arm_stats(const WelfordAccumulator& acc, double confidence);

/// Summary statistics of a sample set; throws ConfigError when empty.
SeedStats summarize(const std::vector<double>& samples);

/// Evaluate `metric(seed)` for seeds base_seed..base_seed+n-1 and
/// summarize. The metric typically wraps run_nexus_app/run_odroid.
/// `threads` > 1 fans the seeds across a worker pool; the metric is then
/// invoked concurrently and must be thread-safe (a metric that builds its
/// own engine per call, like the run_* scenarios, is). The statistics are
/// bit-identical to the serial threads=1 evaluation.
SeedStats across_seeds(const std::function<double(std::uint64_t)>& metric,
                       int n, std::uint64_t base_seed = 1,
                       unsigned threads = 1);

}  // namespace mobitherm::sim
