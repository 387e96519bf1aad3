// Trace-driven workloads.
//
// Instead of hand-written phases, an app can be driven by a measured (or
// synthesized) demand-rate trace: a sequence of (duration, cpu work rate,
// gpu work rate) samples, e.g. exported from real per-second utilization
// logs. A trace converts losslessly into an AppSpec whose phases reproduce
// the demanded rates, so everything downstream (scheduler, governors,
// tracing) works unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/app.h"

namespace mobitherm::workload {

struct RateSample {
  double duration_s = 1.0;
  double cpu_rate = 0.0;  // work units/s demanded of the CPU
  double gpu_rate = 0.0;  // work units/s demanded of the GPU
};

/// Load a trace from CSV with header "duration_s,cpu_rate,gpu_rate".
/// Throws ConfigError on malformed input.
std::vector<RateSample> load_rate_trace(const std::string& path);

/// Synthesize a bursty trace: each 1 s sample draws its rates from a
/// log-uniform band around the means, with occasional idle gaps.
/// Deterministic in `seed`.
std::vector<RateSample> synthetic_rate_trace(std::uint64_t seed,
                                             int seconds,
                                             double mean_cpu_rate,
                                             double mean_gpu_rate,
                                             double burstiness = 0.5);

/// Convert a rate trace into an app: phase i demands exactly trace[i]'s
/// rates (per-frame work = rate / target_fps).
AppSpec trace_to_app(const std::string& name,
                     const std::vector<RateSample>& trace,
                     double target_fps = 60.0, bool loop = true);

}  // namespace mobitherm::workload
