#include "power/sensors.h"

#include <algorithm>

#include "util/error.h"

namespace mobitherm::power {

using util::ConfigError;

DaqSimulator::DaqSimulator(Config config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.sample_rate_hz <= util::hertz(0.0)) {
    throw ConfigError("DaqSimulator: sample rate must be positive");
  }
}

void DaqSimulator::feed(double dt, double watts) {
  if (dt <= 0.0) {
    return;
  }
  const double period = (1.0 / config_.sample_rate_hz).value();
  const double end = now_ + dt;
  while (next_sample_at_ <= end) {
    double sample = watts;
    if (config_.noise_stddev_w > util::watts(0.0)) {
      sample += rng_.normal(0.0, config_.noise_stddev_w.value());
    }
    sample = std::max(0.0, sample);
    sum_samples_ += sample;
    ++num_samples_;
    next_sample_at_ += period;
  }
  now_ = end;
}

double DaqSimulator::mean_power_w() const {
  return num_samples_ > 0 ? sum_samples_ / static_cast<double>(num_samples_)
                          : 0.0;
}

}  // namespace mobitherm::power
