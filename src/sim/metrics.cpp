#include "sim/metrics.h"

#include <algorithm>
#include <cmath>

#include "sim/engine.h"
#include "util/units.h"

namespace mobitherm::sim {

using util::kelvin_to_celsius;

std::vector<std::pair<double, double>> decimate_temp_trace(
    const Trace& trace, double period_s) {
  std::vector<std::pair<double, double>> out;
  double next = 0.0;
  for (const TracePoint& p : trace.points()) {
    if (p.t_s + 1e-9 >= next) {
      out.emplace_back(p.t_s, kelvin_to_celsius(p.max_chip_temp_k));
      next += period_s;
    }
  }
  return out;
}

double trace_peak_temp_c(const Trace& trace) {
  double best = 0.0;
  for (const TracePoint& p : trace.points()) {
    best = std::max(best, kelvin_to_celsius(p.max_chip_temp_k));
  }
  return best;
}

double phase_mean_fps(const workload::AppInstance& app, std::size_t phase,
                      double duration_s, double skip_s) {
  const std::vector<double>& samples = app.fps_samples();
  double sum = 0.0;
  int count = 0;
  for (std::size_t sec = 0; sec < samples.size() &&
                            static_cast<double>(sec) < duration_s;
       ++sec) {
    const double mid = static_cast<double>(sec) + 0.5;
    if (app.phase_index_at(mid) != phase) {
      continue;
    }
    // Skip the transient right after a phase switch.
    if (app.phase_index_at(std::max(0.0, mid - skip_s)) != phase) {
      continue;
    }
    sum += samples[sec];
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

std::vector<double> phase_mean_fps_all(const workload::AppInstance& app,
                                       double duration_s, double skip_s) {
  const std::size_t phases = app.spec().phases.size();
  const std::vector<double>& samples = app.fps_samples();
  std::vector<double> sums(phases, 0.0);
  std::vector<int> counts(phases, 0);
  for (std::size_t sec = 0; sec < samples.size() &&
                            static_cast<double>(sec) < duration_s;
       ++sec) {
    const double mid = static_cast<double>(sec) + 0.5;
    const std::size_t phase = app.phase_index_at(mid);
    // Skip the transient right after a phase switch.
    if (app.phase_index_at(std::max(0.0, mid - skip_s)) != phase) {
      continue;
    }
    sums[phase] += samples[sec];
    ++counts[phase];
  }
  for (std::size_t ph = 0; ph < phases; ++ph) {
    sums[ph] = counts[ph] > 0 ? sums[ph] / counts[ph] : 0.0;
  }
  return sums;
}

RunMetrics summarize_run(const Engine& engine,
                         const MetricsOptions& options) {
  const Trace& trace = engine.trace();
  const platform::SocSpec& spec = engine.soc().spec();

  RunMetrics m;
  m.temp_trace_c = decimate_temp_trace(trace, options.temp_trace_period_s);
  m.peak_temp_c = trace_peak_temp_c(trace);
  m.final_temp_c = m.temp_trace_c.empty() ? 0.0 : m.temp_trace_c.back().second;

  if (engine.daq() != nullptr) {
    m.mean_power_w = engine.daq()->mean_power_w();
  } else if (trace.duration_s() > 0.0) {
    m.mean_power_w = trace.total_rail_energy_j() / trace.duration_s() +
                     engine.power_model().board_base_w().value();
  }

  for (std::size_t c = 0; c < spec.clusters.size(); ++c) {
    m.residency.push_back(trace.residency_fraction(c));
    std::vector<double> freqs;
    for (const platform::OperatingPoint& p : spec.clusters[c].opps) {
      freqs.push_back(util::hz_to_mhz(p.freq_hz.value()));
    }
    m.freqs_mhz.push_back(std::move(freqs));
    m.mean_rail_w.push_back(trace.mean_rail_power_w(c));
    m.rail_names.push_back(spec.clusters[c].name);
  }

  for (std::size_t i = 0; i < engine.num_apps(); ++i) {
    const workload::AppInstance& app = engine.app(i);
    m.median_fps.push_back(app.median_fps());
    m.phase_fps.push_back(phase_mean_fps_all(app, trace.duration_s()));
  }
  return m;
}

MetricsObserver::MetricsObserver(MetricsOptions options)
    : options_(options) {}

RunMetrics MetricsObserver::metrics(const Engine& engine) const {
  return summarize_run(engine, options_);
}

}  // namespace mobitherm::sim
