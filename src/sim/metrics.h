// Per-run metric summaries.
//
// Every figure/table bench and the run_nexus_app/run_odroid scenarios need
// the same handful of summaries out of a finished engine: the decimated
// max-chip-temperature trace, peak/final temperature, per-cluster OPP
// residency fractions, per-rail mean power, and per-app FPS statistics.
// RunMetrics collects them once; summarize_run() computes them from the
// engine's Trace (so the numbers are identical to what the benches
// historically hand-rolled), and MetricsObserver is the observer-bus
// flavour that attaches to an engine and summarizes it at the end.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/observer.h"
#include "sim/trace.h"
#include "workload/app.h"

namespace mobitherm::sim {

struct MetricsOptions {
  /// Decimation period of the reported temperature trace (the paper's
  /// figures plot one point per 2 s).
  double temp_trace_period_s = 2.0;
  /// Thermal limit of the run report's time-above-limit metric (degC).
  double temp_limit_c = 85.0;
};

/// One run's worth of summaries, cluster- and app-indexed like the engine.
struct RunMetrics {
  /// (time s, max chip temperature degC), decimated from the trace.
  std::vector<std::pair<double, double>> temp_trace_c;
  /// Peak / final of the decimated trace (what the figures report).
  double peak_temp_c = 0.0;
  double final_temp_c = 0.0;
  /// DAQ mean power when the capture is enabled, otherwise rail energy
  /// over duration plus the board base (W).
  double mean_power_w = 0.0;
  /// Per cluster: time-in-state fractions and the matching OPP MHz ladder.
  std::vector<std::vector<double>> residency;
  std::vector<std::vector<double>> freqs_mhz;
  /// Mean rail power (W) and rail names, cluster order.
  std::vector<double> mean_rail_w;
  std::vector<std::string> rail_names;
  /// Per app: median FPS over the run and mean FPS per phase index.
  std::vector<double> median_fps;
  std::vector<std::vector<double>> phase_fps;
};

/// Decimate the trace's max-chip-temperature series to one point per
/// `period_s` (degC).
std::vector<std::pair<double, double>> decimate_temp_trace(
    const Trace& trace, double period_s = 2.0);

/// Peak max-chip temperature over the decimated trace points (degC).
double trace_peak_temp_c(const Trace& trace);

/// Mean fps of `app` over every occurrence of phase `phase` in its looping
/// schedule, skipping `skip_s` seconds after each phase entry.
double phase_mean_fps(const workload::AppInstance& app, std::size_t phase,
                      double duration_s, double skip_s = 2.0);

/// phase_mean_fps for every phase, in one ascending pass over the seconds
/// that looks up each second's phase and its skip-back phase once. Each
/// phase sums the same samples in the same order, so every value equals
/// phase_mean_fps's exactly. Calling phase_mean_fps once per phase costs
/// phases^2 x seconds; this costs phases x seconds.
std::vector<double> phase_mean_fps_all(const workload::AppInstance& app,
                                       double duration_s,
                                       double skip_s = 2.0);

/// Compute the full summary from a finished (or in-flight) engine.
RunMetrics summarize_run(const Engine& engine,
                         const MetricsOptions& options = {});

/// Observer-bus metrics tap: attach before running, call metrics() at the
/// end.
class MetricsObserver final : public SimObserver {
 public:
  explicit MetricsObserver(MetricsOptions options = {});

  /// Full trace-based summary, identical to summarize_run(engine, options).
  RunMetrics metrics(const Engine& engine) const;

 private:
  MetricsOptions options_;
};

}  // namespace mobitherm::sim
