// Temperature sensor model: periodic sampling, Gaussian noise, LSB
// quantization. Governors read sensors, never the true node state, matching
// how the kernel thermal framework sees the hardware TMU.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.h"
#include "util/units.h"

namespace mobitherm::thermal {

class TemperatureSensor {
 public:
  struct Config {
    std::string name = "tmu";
    util::Seconds period_s{0.1};   // TMU refresh interval
    util::Kelvin noise_stddev_k{};
    util::Kelvin lsb_k{};  // quantization step; XU3 TMUs report 1 degC
    std::uint64_t seed = 3;
  };

  explicit TemperatureSensor(Config config);

  /// Advance time by dt with true temperature `t_k`. Raw doubles: this is
  /// the sensor-sampling boundary fed straight from the node-temperature
  /// vector. Inline: most ticks take no sample. MOBILINT: raw-units-ok
  void feed(double dt, double t_k) {
    if (dt <= 0.0) {
      return;
    }
    accum_time_ += dt;
    if (accum_time_ >= config_.period_s.value()) {
      take_samples(t_k);
    }
  }

  /// Most recent latched reading; before the first sample, returns the
  /// initial value passed to prime(). MOBILINT: raw-units-ok
  double last_k() const { return last_k_; }

  /// Seed the pre-first-sample reading (typically ambient).
  /// MOBILINT: raw-units-ok
  void prime(double t_k) { last_k_ = t_k; }

  const std::string& name() const { return config_.name; }

 private:
  /// Latch one sample per whole period accumulated. MOBILINT: raw-units-ok
  void take_samples(double t_k);

  Config config_;
  util::Xorshift64Star rng_;
  double accum_time_ = 0.0;
  double last_k_ = 298.15;
};

}  // namespace mobitherm::thermal
