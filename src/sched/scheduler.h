// Cluster-level scheduler with proportional-share allocation and process
// migration.
//
// Each tick the workload layer sets per-process demand rates; allocate()
// grants work rates subject to (a) per-process parallelism (threads x one
// core's rate) and (b) total cluster capacity, shared proportionally under
// contention — a coarse model of CFS within a frequency domain. Migration
// between CPU clusters is the actuation primitive of the paper's proposed
// governor ("moves the most power-hungry process to low power processors").
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "platform/soc.h"
#include "sched/process.h"

namespace mobitherm::sched {

class Scheduler {
 public:
  /// `window_s` sets the sliding-window length used for per-process
  /// power accounting (the paper uses 1 s).
  explicit Scheduler(const platform::SocSpec& spec, double window_s = 1.0);

  /// Create a process on `cluster`. Returns its pid: pids are 1, 2, 3, ...
  /// in spawn order and are never freed.
  Pid spawn(ProcessSpec spec, std::size_t cluster);

  /// Move a process to another cluster; takes effect next allocation.
  /// Throws ConfigError for GPU/memory targets of CPU-only processes is the
  /// caller's responsibility — the scheduler only validates the index.
  void migrate(Pid pid, std::size_t cluster);

  /// Throws ConfigError for a pid spawn() never returned. The reference is
  /// invalidated by the next spawn().
  Process& process(Pid pid) { return processes_[slot(pid)]; }
  const Process& process(Pid pid) const { return processes_[slot(pid)]; }

  /// Grant work rates for one tick of length dt, given current cluster
  /// frequencies in `soc`. Updates each process's granted rate, busy cores
  /// and completed work, and per-cluster busy-core totals.
  void allocate(const platform::Soc& soc, double dt);

  /// Fractional busy cores on cluster `c` from the last allocation.
  double cluster_busy_cores(std::size_t c) const {
    check_cluster(c);
    return cluster_busy_cores_[c];
  }

  /// Utilization as a DVFS governor sees it: granted work relative to the
  /// capacity of the cores the demanding processes can actually occupy
  /// (kernel governors track the busiest CPUs, not the cluster average, so
  /// a saturated dual-thread app on a quad-core cluster reads ~1.0, not
  /// 0.5).
  double governor_utilization(std::size_t c) const {
    check_cluster(c);
    return governor_util_[c];
  }

  /// Attribute cluster dynamic power to processes by their share of the
  /// cluster's busy cores (records into each process's power window).
  void attribute_power(std::size_t c, double cluster_dynamic_w, double dt);

  /// One-shot capacity penalty for the next allocation on cluster `c`
  /// (fraction of the allocation interval lost, e.g. to a DVFS voltage
  /// transition). Cleared after the next allocate().
  void set_capacity_penalty(std::size_t c, double fraction);

  /// The busiest non-realtime process on `cluster` by windowed power;
  /// nullopt if none. Used by the application-aware governor to pick its
  /// migration victim.
  std::optional<Pid> top_power_process(std::size_t cluster) const;

  std::size_t num_clusters() const { return num_clusters_; }

 private:
  /// Index of `pid` in processes_; throws ConfigError if out of range.
  std::size_t slot(Pid pid) const {
    if (pid < 1 || static_cast<std::size_t>(pid) > processes_.size()) {
      no_such_pid();
    }
    return static_cast<std::size_t>(pid) - 1;
  }
  void check_cluster(std::size_t c) const {
    if (c >= num_clusters_) {
      cluster_out_of_range();
    }
  }
  // The ConfigErrors of the inline checks above, thrown out of line.
  [[noreturn]] static void no_such_pid();
  [[noreturn]] static void cluster_out_of_range();

  std::size_t num_clusters_;
  double window_s_;
  /// Indexed by pid - 1, so iteration runs in ascending pid order.
  std::vector<Process> processes_;
  std::vector<double> cluster_busy_cores_;
  std::vector<double> governor_util_;
  std::vector<double> capacity_penalty_;
};

}  // namespace mobitherm::sched
