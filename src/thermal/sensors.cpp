#include "thermal/sensors.h"

#include <cmath>

#include "util/error.h"

namespace mobitherm::thermal {

TemperatureSensor::TemperatureSensor(Config config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.period_s <= util::seconds(0.0)) {
    throw util::ConfigError("TemperatureSensor: period must be positive");
  }
}

void TemperatureSensor::take_samples(double t_k) {
  while (accum_time_ >= config_.period_s.value()) {
    double sample = t_k;
    if (config_.noise_stddev_k > util::kelvin(0.0)) {
      sample += rng_.normal(0.0, config_.noise_stddev_k.value());
    }
    if (config_.lsb_k > util::kelvin(0.0)) {
      sample = std::round(sample / config_.lsb_k.value()) *
               config_.lsb_k.value();
    }
    last_k_ = sample;
    accum_time_ -= config_.period_s.value();
  }
}

}  // namespace mobitherm::thermal
