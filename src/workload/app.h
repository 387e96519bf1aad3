// Frame-based application model.
//
// An app renders frames; each frame costs `cpu_work` units on a CPU cluster
// and `gpu_work` units on the GPU. The app demands enough work rate to hit
// its target frame rate (vsync); the instantaneous frame rate is set by the
// slowest component's granted rate:
//     fps = min(target, granted_cpu / cpu_work, granted_gpu / gpu_work).
// Phases modulate the per-frame work over time (menus vs. action scenes),
// with bounded multiplicative jitter so DVFS governors visit several OPPs —
// the mechanism behind the residency histograms of Figs. 2/4/6.
//
// Batch tasks (target_fps = 0, e.g. MiBench basicmath-large) demand
// unbounded CPU work and are measured by completed work instead of fps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "util/rng.h"

namespace mobitherm::workload {

/// One phase of an app's work profile.
struct Phase {
  double duration_s = 1.0;
  double cpu_work_per_frame = 0.0;
  double gpu_work_per_frame = 0.0;
};

/// Static description of an app.
struct AppSpec {
  std::string name;
  /// Frame-rate cap (vsync). 0 marks a batch task with unbounded demand.
  double target_fps = 60.0;
  std::vector<Phase> phases;
  bool loop = true;
  /// Multiplicative jitter amplitude: per-interval work multiplier drawn
  /// uniformly from [1 - jitter, 1 + jitter].
  double jitter = 0.0;
  double jitter_interval_s = 0.5;

  sched::ProcessClass cls = sched::ProcessClass::kForeground;
  bool realtime = false;
  int cpu_threads = 2;

  /// DRAM traffic per work unit (bytes). Only used when the engine's
  /// memory-contention model is enabled; 0 = negligible traffic.
  double mem_bytes_per_work = 0.0;
};

/// A running app bound to scheduler processes. Owned by the engine.
class AppInstance {
 public:
  /// Spawns the CPU process on `cpu_cluster` and, if any phase does GPU
  /// work, a GPU process on `gpu_cluster`.
  AppInstance(AppSpec spec, sched::Scheduler& scheduler,
              std::size_t cpu_cluster,
              std::optional<std::size_t> gpu_cluster, std::uint64_t seed);

  const AppSpec& spec() const { return spec_; }

  sched::Pid cpu_pid() const { return cpu_pid_; }
  /// -1 when the app has no GPU component.
  sched::Pid gpu_pid() const { return gpu_pid_; }

  /// Phase lookup at time `now` (seconds since app start).
  const Phase& phase_at(double now) const;
  std::size_t phase_index_at(double now) const;

  /// True once a non-looping app has consumed all phases.
  bool finished(double now) const;

  /// Pre-allocation: set process demand rates for the tick at `now`, and
  /// find that tick's phase.
  void set_demands(sched::Scheduler& scheduler, double now, double dt);

  /// Post-allocation: update frame accounting for the tick, in the phase
  /// the last set_demands() found.
  void account(const sched::Scheduler& scheduler, double dt);

  /// Frame rate produced during the last tick.
  double instantaneous_fps() const { return last_fps_; }

  /// One sample per second of run time: frames completed in that second.
  const std::vector<double>& fps_samples() const { return fps_samples_; }

  /// Median of the per-second samples; throws if the app has not run for
  /// a full second yet.
  double median_fps() const;

  double total_frames() const { return total_frames_; }

 private:
  AppSpec spec_;
  double total_duration_s_ = 0.0;  // sum of the phase durations
  sched::Pid cpu_pid_ = -1;
  sched::Pid gpu_pid_ = -1;
  util::Xorshift64Star rng_;
  // The tick's state found by set_demands() and read by account().
  bool finished_ = false;
  std::size_t phase_index_ = 0;
  double jitter_mult_ = 1.0;
  double next_jitter_at_ = 0.0;
  double last_fps_ = 0.0;
  double second_frames_ = 0.0;
  double second_elapsed_ = 0.0;
  double total_frames_ = 0.0;
  std::vector<double> fps_samples_;
};

}  // namespace mobitherm::workload
