// Observer bus for the simulation engine.
//
// The paper's contribution is a measurement methodology: instrumented runs
// whose power, temperature, residency and governor activity are captured
// without perturbing the system under test. SimObserver is the software
// analogue — a passive tap on the engine's staged tick pipeline. The engine
// publishes events; observers may read (including through the Engine
// pointer carried by TickInfo) but must never mutate simulation state, so
// a run produces a byte-identical Trace with zero, one, or N observers
// attached.
//
// The engine keeps its own instrumentation (decision log, conflict time,
// DVFS-transition counts, DAQ capture) as members, so the bus serves
// outside observers only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mobitherm::core {
struct AppAwareDecision;
}  // namespace mobitherm::core

namespace mobitherm::sim {

class Engine;

/// Snapshot published after every completed tick. `t_s` is the time at the
/// start of the tick (the instant the tick's trace point is stamped with).
struct TickInfo {
  double t_s = 0.0;
  double dt = 0.0;
  /// True total power dissipated during the tick (W).
  double total_power_w = 0.0;
  /// Max over the chip thermal nodes after the tick's thermal step (K).
  double max_chip_temp_k = 0.0;
  double board_temp_k = 0.0;
  /// The publishing engine, for observers that need richer state (rails,
  /// apps, trace). Read-only by contract.
  const Engine* engine = nullptr;
};

/// Which governor produced a decision.
enum class GovernorKind { kCpufreq, kThermal, kAppAware, kHotplug };

/// One governor invocation at its own polling period.
struct GovernorDecisionEvent {
  double t_s = 0.0;
  GovernorKind kind = GovernorKind::kCpufreq;
  /// Kernel-style governor name ("interactive", "step_wise", ...).
  const char* governor = "";
  /// Cluster the decision applies to (cpufreq only; npos otherwise).
  std::size_t cluster = static_cast<std::size_t>(-1);
  /// OPP index requested (cpufreq only).
  std::size_t requested_index = 0;
  /// Per-cluster OPP caps after the update (thermal only).
  const std::vector<std::size_t>* thermal_caps = nullptr;
  /// Full decision record (app-aware only).
  const core::AppAwareDecision* decision = nullptr;
  /// New online-core target (hotplug only; -1 otherwise).
  int target_cores = -1;
};

/// One applied OPP change on a cluster.
struct DvfsTransitionEvent {
  double t_s = 0.0;
  std::size_t cluster = 0;
  std::size_t from_index = 0;
  std::size_t to_index = 0;
};

/// Passive tap on the engine. Default implementations ignore everything, so
/// observers override only the events they care about.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  virtual void on_tick(const TickInfo&) {}
  virtual void on_governor_decision(const GovernorDecisionEvent&) {}
  virtual void on_dvfs_transition(const DvfsTransitionEvent&) {}
};

}  // namespace mobitherm::sim
