#include "workload/rate_trace.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/rng.h"

namespace mobitherm::workload {

using util::ConfigError;

std::vector<RateSample> load_rate_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ConfigError("load_rate_trace: cannot open " + path);
  }
  std::string line;
  if (!std::getline(in, line) || line != "duration_s,cpu_rate,gpu_rate") {
    throw ConfigError("load_rate_trace: bad header in " + path);
  }
  std::vector<RateSample> trace;
  int line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    std::istringstream row(line);
    RateSample s;
    char c1 = 0;
    char c2 = 0;
    if (!(row >> s.duration_s >> c1 >> s.cpu_rate >> c2 >> s.gpu_rate) ||
        c1 != ',' || c2 != ',') {
      throw ConfigError("load_rate_trace: malformed line " +
                        std::to_string(line_no) + " in " + path);
    }
    if (s.duration_s <= 0.0 || s.cpu_rate < 0.0 || s.gpu_rate < 0.0) {
      throw ConfigError("load_rate_trace: invalid values at line " +
                        std::to_string(line_no));
    }
    trace.push_back(s);
  }
  if (trace.empty()) {
    throw ConfigError("load_rate_trace: empty trace in " + path);
  }
  return trace;
}

std::vector<RateSample> synthetic_rate_trace(std::uint64_t seed, int seconds,
                                             double mean_cpu_rate,
                                             double mean_gpu_rate,
                                             double burstiness) {
  if (seconds <= 0) {
    throw ConfigError("synthetic_rate_trace: seconds must be positive");
  }
  if (burstiness < 0.0 || burstiness >= 1.0) {
    throw ConfigError("synthetic_rate_trace: burstiness must be in [0, 1)");
  }
  util::Xorshift64Star rng(seed);
  std::vector<RateSample> trace;
  trace.reserve(static_cast<std::size_t>(seconds));
  for (int s = 0; s < seconds; ++s) {
    RateSample sample;
    sample.duration_s = 1.0;
    if (rng.uniform() < 0.15 * burstiness) {
      // Idle gap (app in the background / user reading).
      sample.cpu_rate = 0.05 * mean_cpu_rate;
      sample.gpu_rate = 0.0;
    } else {
      // Log-uniform around the mean: exp(U[-b, b]) multiplier.
      const double span = -std::log(1.0 - burstiness);
      sample.cpu_rate =
          mean_cpu_rate * std::exp(rng.uniform(-span, span));
      sample.gpu_rate =
          mean_gpu_rate * std::exp(rng.uniform(-span, span));
    }
    trace.push_back(sample);
  }
  return trace;
}

AppSpec trace_to_app(const std::string& name,
                     const std::vector<RateSample>& trace, double target_fps,
                     bool loop) {
  if (trace.empty()) {
    throw ConfigError("trace_to_app: empty trace");
  }
  if (target_fps <= 0.0) {
    throw ConfigError("trace_to_app: target_fps must be positive");
  }
  AppSpec app;
  app.name = name;
  app.target_fps = target_fps;
  app.loop = loop;
  app.phases.reserve(trace.size());
  for (const RateSample& s : trace) {
    // Demanded rate = work_per_frame * target_fps, so dividing recovers
    // the trace's rates exactly.
    app.phases.push_back(
        {s.duration_s, s.cpu_rate / target_fps, s.gpu_rate / target_fps});
  }
  return app;
}

}  // namespace mobitherm::workload
