// Power instrumentation model.
//
// DaqSimulator mimics the National Instruments DAQ setup the paper uses on
// the Nexus 6P (whole-device power at 1 kHz with measurement noise); it
// sees only the sampled values, like the real analysis pipeline would.
// Per-cluster energy needs no sensor model: sim::Trace integrates the true
// rail power every tick.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/rng.h"
#include "util/units.h"

namespace mobitherm::power {

/// Whole-device power acquisition at a fixed sampling rate (default 1 kHz),
/// as with the NI PXIe-4081 setup in Sec. III-A.
class DaqSimulator {
 public:
  struct Config {
    util::Hertz sample_rate_hz{1000.0};
    util::Watt noise_stddev_w{0.01};
    std::uint64_t seed = 2;
  };

  explicit DaqSimulator(Config config);

  void feed(double dt, double watts);

  double mean_power_w() const;
  std::size_t num_samples() const { return num_samples_; }

 private:
  Config config_;
  util::Xorshift64Star rng_;
  double now_ = 0.0;
  double next_sample_at_ = 0.0;
  double sum_samples_ = 0.0;
  std::size_t num_samples_ = 0;
};

}  // namespace mobitherm::power
