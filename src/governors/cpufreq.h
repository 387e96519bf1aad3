// DVFS (cpufreq/devfreq-style) governors.
//
// A governor is sampled at its own period with the cluster's utilization at
// the *current* frequency and returns the OPP index it requests. The engine
// applies min(request, thermal cap), mirroring how the kernel's cpufreq
// policy is clamped by the thermal framework — the "contradicting
// governors" interaction the paper discusses in Sec. I.
//
// Implemented policies: userspace (a pinned OPP), ondemand, and
// interactive (the Android default the paper names).
#pragma once

#include <algorithm>
#include <cstddef>

#include "platform/opp.h"
#include "util/units.h"

namespace mobitherm::governors {

/// Inputs for one governor decision.
struct CpufreqInputs {
  /// Cluster utilization in [0, 1] at the current OPP, averaged over the
  /// governor's sampling period.
  double utilization = 0.0;
  std::size_t current_index = 0;
};

class CpufreqGovernor {
 public:
  virtual ~CpufreqGovernor() = default;

  virtual const char* name() const = 0;

  /// Time between decisions. The engine reads it once, when the governor
  /// is attached (Engine::set_cpufreq_governor), so it must not change
  /// afterwards.
  virtual util::Seconds sampling_period_s() const {
    return util::seconds(0.02);
  }

  /// Requested OPP index for the next interval.
  virtual std::size_t decide(const CpufreqInputs& in,
                             const platform::OppTable& table) = 0;
};

/// Pinned to a caller-chosen OPP.
class Userspace final : public CpufreqGovernor {
 public:
  explicit Userspace(std::size_t index) : index_(index) {}
  const char* name() const override { return "userspace"; }
  void set_index(std::size_t index) { index_ = index; }
  std::size_t decide(const CpufreqInputs&,
                     const platform::OppTable& table) override {
    return std::min(index_, table.max_index());
  }

 private:
  std::size_t index_;
};

/// Classic ondemand: jump to max above the up-threshold, otherwise pick the
/// lowest frequency that keeps utilization at ~up_threshold.
class Ondemand final : public CpufreqGovernor {
 public:
  struct Config {
    double up_threshold = 0.80;
    util::Seconds sampling_period_s{0.05};
    /// Kernel sampling_down_factor: after jumping to max, hold it for this
    /// many sampling periods before allowing a drop (avoids thrashing on
    /// bursty loads).
    int sampling_down_factor = 1;
  };
  Ondemand();
  explicit Ondemand(Config config) : config_(config) {}
  const char* name() const override { return "ondemand"; }
  util::Seconds sampling_period_s() const override {
    return config_.sampling_period_s;
  }
  std::size_t decide(const CpufreqInputs& in,
                     const platform::OppTable& table) override;

 private:
  Config config_;
  int hold_remaining_ = 0;
};

/// Android interactive: jump to hispeed_freq on high load, raise further
/// only after above_hispeed_delay, and hold speed for min_sample_time
/// before dropping. This is the governor whose "highest value on user
/// interaction" behaviour the paper calls out.
class Interactive final : public CpufreqGovernor {
 public:
  struct Config {
    double go_hispeed_load = 0.85;
    /// Fraction of f_max used as hispeed_freq.
    double hispeed_fraction = 0.80;
    double target_load = 0.90;
    util::Seconds above_hispeed_delay_s{0.02};
    util::Seconds min_sample_time_s{0.08};
    util::Seconds sampling_period_s{0.02};
  };
  Interactive();
  explicit Interactive(Config config) : config_(config) {}
  const char* name() const override { return "interactive"; }
  util::Seconds sampling_period_s() const override {
    return config_.sampling_period_s;
  }
  std::size_t decide(const CpufreqInputs& in,
                     const platform::OppTable& table) override;

 private:
  Config config_;
  util::Seconds time_above_hispeed_{};
  util::Seconds time_since_raise_{};
};

}  // namespace mobitherm::governors
