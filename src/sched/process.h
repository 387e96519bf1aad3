// Process model.
//
// A process is a schedulable entity with a work demand (abstract work
// units/s, comparable across clusters through ClusterSpec::ipc), a cluster
// assignment, and sliding-window accounting of its power. The 1 s window
// implements the paper's "average utilization of each active process for
// a one-second window" filter (Sec. IV-B), and realtime registration
// implements "the algorithm also lets processes with real-time
// requirements register themselves so that they are not penalized".
#pragma once

#include <string>

#include "util/sliding_window.h"

namespace mobitherm::sched {

using Pid = int;

/// Foreground/background classification, mirroring the Android notion the
/// paper relies on ("throttle select applications without affecting other
/// apps").
enum class ProcessClass { kForeground, kBackground, kSystem };

struct ProcessSpec {
  std::string name;
  ProcessClass cls = ProcessClass::kForeground;
  /// Realtime-registered processes are exempt from selective throttling.
  bool realtime = false;
  /// Maximum parallelism: the process can occupy at most this many cores.
  int threads = 1;
};

/// Runtime process record; owned by the Scheduler.
class Process {
 public:
  Process(Pid pid, ProcessSpec spec, std::size_t cluster, double window_s);

  Pid pid() const { return pid_; }
  const ProcessSpec& spec() const { return spec_; }
  std::size_t cluster() const { return cluster_; }
  void set_cluster(std::size_t c) { cluster_ = c; }

  /// Demand for the current tick, work units/s; set by the workload layer.
  double demand_rate() const { return demand_rate_; }
  void set_demand_rate(double rate) { demand_rate_ = rate; }

  /// Work rate granted by the last allocation, work units/s.
  double granted_rate() const { return granted_rate_; }

  /// Cores occupied by the last allocation (fractional).
  double busy_cores() const { return busy_cores_; }

  /// Record the outcome of an allocation round lasting dt seconds.
  void record_allocation(double dt, double granted_rate, double busy_cores) {
    granted_rate_ = granted_rate;
    busy_cores_ = busy_cores;
    completed_work_ += granted_rate * dt;
  }

  /// Record the power attributed to this process for dt seconds.
  void record_power(double dt, double watts) {
    power_window_.push(dt, watts);
    if (dt > 0.0) {
      consumed_energy_j_ += dt * watts;
    }
  }

  /// Windowed (1 s by default) power; the app-aware governor's victim
  /// ranking reads it.
  double windowed_power_w() const { return power_window_.mean(); }

  /// Total work completed since spawn (work units).
  double completed_work() const { return completed_work_; }

  /// Total attributed dynamic energy since spawn (J).
  double consumed_energy_j() const { return consumed_energy_j_; }

  /// Energy per unit of work (J per work unit); 0 until work completes.
  double energy_per_work() const {
    return completed_work_ > 0.0 ? consumed_energy_j_ / completed_work_
                                 : 0.0;
  }

 private:
  Pid pid_;
  ProcessSpec spec_;
  std::size_t cluster_;
  double demand_rate_ = 0.0;
  double granted_rate_ = 0.0;
  double busy_cores_ = 0.0;
  double completed_work_ = 0.0;
  double consumed_energy_j_ = 0.0;
  util::SlidingWindow power_window_;
};

}  // namespace mobitherm::sched
