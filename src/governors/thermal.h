// Thermal governors: the system-wide throttling baselines of the paper.
//
// A thermal governor polls the control temperature and produces a per-
// cluster OPP *cap*; the engine applies min(cpufreq request, cap). Two
// kernel policies are modelled:
//  * StepWiseGovernor — the step_wise policy (trip points + hysteresis,
//    one throttle step per poll while hot),
//  * IpaGovernor — ARM Intelligent Power Allocation: a PID power budget
//    split across actors proportional to their requested power, translated
//    into frequency caps through the power model (ref. [31] of the paper;
//    the default Odroid policy of Sec. IV-C).
// "Throttling disabled" runs attach no thermal governor at all.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "platform/soc.h"
#include "power/model.h"
#include "util/units.h"

namespace mobitherm::governors {

/// Context handed to a thermal governor at each poll.
struct ThermalContext {
  util::Seconds dt{0.1};
  /// Control temperature — the sensor the policy is bound to (chip
  /// package on the Nexus, max core/GPU sensor on the Odroid).
  util::Kelvin control_temp_k{298.15};
  /// Current platform state for budget computations.
  const platform::Soc* soc = nullptr;
  const power::PowerModel* power = nullptr;
  /// Fractional busy cores per cluster (for power requests).
  const std::vector<double>* busy_cores = nullptr;
  /// OPP indices the cpufreq governors are requesting per cluster.
  const std::vector<std::size_t>* requested_index = nullptr;
  /// Per-thermal-node sensor readings (K), for zone-based policies. Raw
  /// doubles: this aliases the engine's sensor-view scratch vector.
  /// MOBILINT: raw-units-ok
  const std::vector<double>* node_temp_k = nullptr;
};

class ThermalGovernor {
 public:
  virtual ~ThermalGovernor() = default;
  virtual const char* name() const = 0;
  /// Time between updates. The engine reads it once, when the governor is
  /// attached (Engine::set_thermal_governor), so it must not change
  /// afterwards.
  virtual util::Seconds polling_period_s() const {
    return util::seconds(0.1);
  }
  virtual void update(const ThermalContext& ctx) = 0;
  /// Highest OPP index cluster `c` may use right now.
  virtual std::size_t cap_index(std::size_t cluster) const = 0;

  /// Snapshot of cap_index for clusters [0, num_clusters) — the payload of
  /// a GovernorDecisionEvent on the engine's observer bus. Writes into
  /// caller-owned `out` (resized on first use, then reused).
  void caps_into(std::size_t num_clusters,
                 std::vector<std::size_t>& out) const;
};

/// Linux step_wise with per-sensor thermal zones (cpu0..3 / gpu / pop-mem
/// zones on the Snapdragon): while a zone's sensor exceeds its trip point,
/// deepen that zone's throttle state one step per poll; release one step
/// per poll once it falls below trip - hysteresis. Each state removes
/// `steps_per_state` OPP indices from the cap of the cluster the zone
/// actuates.
class StepWiseGovernor final : public ThermalGovernor {
 public:
  struct Zone {
    /// Cluster whose OPP cap this zone actuates.
    std::size_t cluster = 0;
    /// Thermal node whose sensor the zone is bound to. If
    /// ThermalContext::node_temp_k is absent, the zone falls back to the
    /// scalar control temperature.
    std::size_t sensor_node = 0;
    util::Kelvin trip_k{315.15};
    util::Kelvin hysteresis_k{2.0};
    std::size_t steps_per_state = 1;
    /// Cap never goes below this OPP index.
    std::size_t floor_index = 0;
    std::size_t max_states = 64;
  };

  struct Config {
    util::Seconds polling_period_s{1.0};
    std::vector<Zone> zones;
  };

  /// Convenience: one zone per non-memory cluster, all bound to the scalar
  /// control temperature at the same trip point.
  static Config uniform(const platform::SocSpec& spec, util::Kelvin trip_k,
                        util::Kelvin hysteresis_k = util::kelvin(2.0),
                        util::Seconds polling_period_s = util::seconds(1.0));

  StepWiseGovernor(const platform::SocSpec& spec, Config config);

  const char* name() const override { return "step_wise"; }
  util::Seconds polling_period_s() const override {
    return config_.polling_period_s;
  }
  void update(const ThermalContext& ctx) override;
  std::size_t cap_index(std::size_t cluster) const override;

 private:
  Config config_;
  std::vector<std::size_t> max_index_;
  std::vector<std::size_t> state_;  // per zone
};

/// ARM Intelligent Power Allocation.
class IpaGovernor final : public ThermalGovernor {
 public:
  struct Config {
    util::Kelvin control_temp_k{358.15};  // target (85 degC on the XU3)
    util::Watt sustainable_power_w{2.5};
    /// Proportional gains, asymmetric as in the kernel.
    util::WattPerKelvin k_po{0.6};   // when over target
    util::WattPerKelvin k_pu{0.25};  // when under target
    util::WattPerKelvinSecond k_i{0.01};  // integral gain
    util::Watt integral_cap_w{1.0};
    util::Seconds polling_period_s{0.1};
    /// Clusters IPA actuates (typically big CPU + GPU). Empty = all.
    std::vector<std::size_t> actors;
  };

  IpaGovernor(const platform::SocSpec& spec, Config config);

  const char* name() const override { return "ipa"; }
  util::Seconds polling_period_s() const override {
    return config_.polling_period_s;
  }
  void update(const ThermalContext& ctx) override;
  std::size_t cap_index(std::size_t cluster) const override;

  util::Watt last_budget_w() const { return last_budget_w_; }

 private:
  Config config_;
  std::vector<std::size_t> cap_;
  std::vector<std::size_t> max_index_;
  util::Watt integral_{};
  util::Watt last_budget_w_{};
};

}  // namespace mobitherm::governors
