#include "sched/scheduler.h"

#include <algorithm>

#include "util/error.h"

namespace mobitherm::sched {

using util::ConfigError;

Scheduler::Scheduler(const platform::SocSpec& spec, double window_s)
    : num_clusters_(spec.clusters.size()),
      window_s_(window_s),
      cluster_busy_cores_(num_clusters_, 0.0),
      governor_util_(num_clusters_, 0.0),
      capacity_penalty_(num_clusters_, 0.0) {
  if (num_clusters_ == 0) {
    throw ConfigError("Scheduler: SoC has no clusters");
  }
  if (window_s_ <= 0.0) {
    throw ConfigError("Scheduler: window must be positive");
  }
}

Pid Scheduler::spawn(ProcessSpec spec, std::size_t cluster) {
  if (cluster >= num_clusters_) {
    throw ConfigError("Scheduler::spawn: cluster index out of range");
  }
  if (spec.threads <= 0) {
    throw ConfigError("Scheduler::spawn: threads must be positive");
  }
  const Pid pid = static_cast<Pid>(processes_.size()) + 1;
  processes_.emplace_back(pid, std::move(spec), cluster, window_s_);
  return pid;
}

void Scheduler::migrate(Pid pid, std::size_t cluster) {
  if (cluster >= num_clusters_) {
    throw ConfigError("Scheduler::migrate: cluster index out of range");
  }
  process(pid).set_cluster(cluster);
}

void Scheduler::allocate(const platform::Soc& soc, double dt) {
  std::fill(cluster_busy_cores_.begin(), cluster_busy_cores_.end(), 0.0);

  for (std::size_t c = 0; c < num_clusters_; ++c) {
    // A pending DVFS-transition penalty shrinks this interval's usable
    // rate; it is consumed by this allocation.
    const double avail = 1.0 - capacity_penalty_[c];
    capacity_penalty_[c] = 0.0;
    const double per_core = soc.per_core_rate(c) * avail;
    const int online = soc.state(c).online_cores;
    const double capacity = per_core * online;

    // Pass 1: each process's standalone cap (parallelism-limited demand).
    double total_capped = 0.0;
    int demanding_threads = 0;
    for (Process& proc : processes_) {
      if (proc.cluster() != c) {
        continue;
      }
      const double cap =
          per_core * std::min(proc.spec().threads, online);
      total_capped += std::min(proc.demand_rate(), cap);
      if (proc.demand_rate() > 0.0) {
        demanding_threads += std::min(proc.spec().threads, online);
      }
    }

    // Pass 2: scale down proportionally under contention.
    const double scale =
        (capacity > 0.0 && total_capped > capacity) ? capacity / total_capped
                                                    : 1.0;
    for (Process& proc : processes_) {
      if (proc.cluster() != c) {
        continue;
      }
      const double cap = per_core * std::min(proc.spec().threads, online);
      const double granted =
          capacity > 0.0 ? std::min(proc.demand_rate(), cap) * scale : 0.0;
      const double busy = per_core > 0.0 ? granted / per_core : 0.0;
      proc.record_allocation(dt, granted, busy);
      cluster_busy_cores_[c] += busy;
    }
    // Clamp accumulated rounding just above the online-core count.
    cluster_busy_cores_[c] =
        std::min(cluster_busy_cores_[c], static_cast<double>(online));

    // Governor view: kernel cpufreq acts on the busiest CPU, so take the
    // max of the cluster-average load and the per-core saturation of the
    // most saturated process (a batch task pinning one core at 100% must
    // read ~1.0 even if the rest of the cluster idles).
    const int governed_cores = std::min(online, demanding_threads);
    double util = governed_cores > 0 && per_core > 0.0
                      ? std::min(1.0, cluster_busy_cores_[c] / governed_cores)
                      : 0.0;
    for (const Process& proc : processes_) {
      if (proc.cluster() != c || proc.demand_rate() <= 0.0 ||
          per_core <= 0.0 || online == 0) {
        continue;
      }
      const double cap = per_core * std::min(proc.spec().threads, online);
      util = std::max(util, std::min(1.0, proc.granted_rate() / cap));
    }
    governor_util_[c] = util;
  }
}

void Scheduler::set_capacity_penalty(std::size_t c, double fraction) {
  check_cluster(c);
  if (fraction < 0.0 || fraction > 1.0) {
    throw ConfigError("Scheduler: penalty fraction out of [0, 1]");
  }
  capacity_penalty_[c] = std::max(capacity_penalty_[c], fraction);
}

void Scheduler::attribute_power(std::size_t c, double cluster_dynamic_w,
                                double dt) {
  const double total = cluster_busy_cores(c);
  for (Process& proc : processes_) {
    if (proc.cluster() != c) {
      continue;
    }
    const double share = total > 0.0 ? proc.busy_cores() / total : 0.0;
    proc.record_power(dt, share * cluster_dynamic_w);
  }
}

std::optional<Pid> Scheduler::top_power_process(std::size_t cluster) const {
  std::optional<Pid> best;
  double best_power = -1.0;
  for (const Process& proc : processes_) {
    if (proc.cluster() != cluster || proc.spec().realtime) {
      continue;
    }
    const double power = proc.windowed_power_w();
    if (power > best_power) {
      best_power = power;
      best = proc.pid();
    }
  }
  return best;
}

void Scheduler::no_such_pid() { throw ConfigError("Scheduler: no such pid"); }

void Scheduler::cluster_out_of_range() {
  throw ConfigError("Scheduler: cluster index out of range");
}

}  // namespace mobitherm::sched
