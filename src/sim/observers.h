// Built-in observers: the engine's historical ad-hoc instrumentation
// (app-aware decision log, governor-conflict accounting, DVFS-transition
// counters, DAQ power capture) re-expressed on the observer bus. The
// engine owns one of each and forwards its legacy accessors to them;
// they are ordinary SimObservers and can equally be attached to a foreign
// engine in tests.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/appaware.h"
#include "power/sensors.h"
#include "sim/observer.h"

namespace mobitherm::sim {

/// Timestamped log of every application-aware governor decision.
class DecisionLogObserver final : public SimObserver {
 public:
  void on_governor_decision(const GovernorDecisionEvent& e) override {
    if (e.kind == GovernorKind::kAppAware && e.decision != nullptr) {
      decisions_.emplace_back(e.t_s, *e.decision);
    }
  }

  const std::vector<std::pair<double, core::AppAwareDecision>>& decisions()
      const {
    return decisions_;
  }

 private:
  std::vector<std::pair<double, core::AppAwareDecision>> decisions_;
};

/// Governor-contradiction accounting (paper Sec. I): time each cluster
/// spent with its cpufreq request clamped by a thermal cap. Episode
/// boundaries arrive as ThermalEvents; time accrues per tick while an
/// episode is open.
class ConflictAccountingObserver final : public SimObserver {
 public:
  explicit ConflictAccountingObserver(std::size_t num_clusters)
      : time_s_(num_clusters, 0.0), open_(num_clusters, false) {}

  void on_thermal_event(const ThermalEvent& e) override {
    if (e.cluster < open_.size()) {
      open_[e.cluster] = e.kind == ThermalEvent::Kind::kConflictBegin;
    }
  }

  void on_tick(const TickInfo& info) override {
    for (std::size_t c = 0; c < open_.size(); ++c) {
      if (open_[c]) {
        time_s_[c] += info.dt;
      }
    }
  }

  double time_s(std::size_t cluster) const { return time_s_[cluster]; }
  std::size_t num_clusters() const { return open_.size(); }

 private:
  std::vector<double> time_s_;
  std::vector<bool> open_;
};

/// Per-cluster count of applied OPP changes.
class DvfsTransitionCounter final : public SimObserver {
 public:
  explicit DvfsTransitionCounter(std::size_t num_clusters)
      : transitions_(num_clusters, 0) {}

  void on_dvfs_transition(const DvfsTransitionEvent& e) override {
    if (e.cluster < transitions_.size()) {
      ++transitions_[e.cluster];
    }
  }

  std::size_t transitions(std::size_t cluster) const {
    return transitions_[cluster];
  }
  std::size_t num_clusters() const { return transitions_.size(); }

 private:
  std::vector<std::size_t> transitions_;
};

/// Whole-device DAQ capture (the Nexus setup's 1 kHz NI-DAQ), fed with the
/// true total power of every tick.
class DaqObserver final : public SimObserver {
 public:
  explicit DaqObserver(power::DaqSimulator::Config config)
      : daq_(std::make_unique<power::DaqSimulator>(config)) {}

  void on_tick(const TickInfo& info) override {
    daq_->feed(info.dt, info.total_power_w);
  }

  const power::DaqSimulator* daq() const { return daq_.get(); }

 private:
  std::unique_ptr<power::DaqSimulator> daq_;
};

}  // namespace mobitherm::sim
