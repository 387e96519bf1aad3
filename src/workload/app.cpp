#include "workload/app.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/stats.h"

namespace mobitherm::workload {

using util::ConfigError;

namespace {

/// Demand stand-in for "as much as you can give me" (batch tasks). The
/// scheduler clamps to threads x per-core rate, so any value above the
/// fastest cluster's capacity works.
constexpr double kUnboundedRate = 1e18;

}  // namespace

AppInstance::AppInstance(AppSpec spec, sched::Scheduler& scheduler,
                         std::size_t cpu_cluster,
                         std::optional<std::size_t> gpu_cluster,
                         std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {
  if (spec_.phases.empty()) {
    throw ConfigError("AppInstance: app " + spec_.name + " has no phases");
  }
  for (const Phase& ph : spec_.phases) {
    if (ph.duration_s <= 0.0) {
      throw ConfigError("AppInstance: phase durations must be positive");
    }
    if (ph.cpu_work_per_frame < 0.0 || ph.gpu_work_per_frame < 0.0) {
      throw ConfigError("AppInstance: negative per-frame work");
    }
    total_duration_s_ += ph.duration_s;
  }
  if (spec_.jitter < 0.0 || spec_.jitter >= 1.0) {
    throw ConfigError("AppInstance: jitter must be in [0, 1)");
  }

  sched::ProcessSpec cpu_proc;
  cpu_proc.name = spec_.name + ":cpu";
  cpu_proc.cls = spec_.cls;
  cpu_proc.realtime = spec_.realtime;
  cpu_proc.threads = spec_.cpu_threads;
  cpu_pid_ = scheduler.spawn(cpu_proc, cpu_cluster);

  const bool uses_gpu =
      std::any_of(spec_.phases.begin(), spec_.phases.end(),
                  [](const Phase& ph) { return ph.gpu_work_per_frame > 0.0; });
  if (uses_gpu) {
    if (!gpu_cluster.has_value()) {
      throw ConfigError("AppInstance: app " + spec_.name +
                        " needs a GPU cluster");
    }
    sched::ProcessSpec gpu_proc;
    gpu_proc.name = spec_.name + ":gpu";
    gpu_proc.cls = spec_.cls;
    gpu_proc.realtime = spec_.realtime;
    gpu_proc.threads = 1;
    gpu_pid_ = scheduler.spawn(gpu_proc, *gpu_cluster);
  }
}

std::size_t AppInstance::phase_index_at(double now) const {
  double t = spec_.loop ? std::fmod(now, total_duration_s_)
                        : std::min(now, total_duration_s_);
  for (std::size_t i = 0; i < spec_.phases.size(); ++i) {
    if (t < spec_.phases[i].duration_s) {
      return i;
    }
    t -= spec_.phases[i].duration_s;
  }
  return spec_.phases.size() - 1;
}

const Phase& AppInstance::phase_at(double now) const {
  return spec_.phases[phase_index_at(now)];
}

bool AppInstance::finished(double now) const {
  return !spec_.loop && now >= total_duration_s_;
}

void AppInstance::set_demands(sched::Scheduler& scheduler, double now,
                              double dt) {
  (void)dt;
  finished_ = finished(now);
  if (finished_) {
    scheduler.process(cpu_pid_).set_demand_rate(0.0);
    if (gpu_pid_ >= 0) {
      scheduler.process(gpu_pid_).set_demand_rate(0.0);
    }
    return;
  }
  if (spec_.jitter > 0.0 && now >= next_jitter_at_) {
    jitter_mult_ = rng_.uniform(1.0 - spec_.jitter, 1.0 + spec_.jitter);
    next_jitter_at_ = now + spec_.jitter_interval_s;
  }
  phase_index_ = phase_index_at(now);
  const Phase& ph = spec_.phases[phase_index_];
  const bool batch = spec_.target_fps <= 0.0;
  const double cpu_rate =
      batch ? (ph.cpu_work_per_frame > 0.0 ? kUnboundedRate : 0.0)
            : ph.cpu_work_per_frame * spec_.target_fps * jitter_mult_;
  scheduler.process(cpu_pid_).set_demand_rate(cpu_rate);
  if (gpu_pid_ >= 0) {
    const double gpu_rate =
        batch ? (ph.gpu_work_per_frame > 0.0 ? kUnboundedRate : 0.0)
              : ph.gpu_work_per_frame * spec_.target_fps * jitter_mult_;
    scheduler.process(gpu_pid_).set_demand_rate(gpu_rate);
  }
}

void AppInstance::account(const sched::Scheduler& scheduler, double dt) {
  double fps = (spec_.target_fps > 0.0 && !finished_) ? spec_.target_fps : 0.0;
  if (fps > 0.0) {
    const Phase& cur = spec_.phases[phase_index_];
    const double cpu_work = cur.cpu_work_per_frame * jitter_mult_;
    const double gpu_work = cur.gpu_work_per_frame * jitter_mult_;
    if (cpu_work > 0.0) {
      fps = std::min(fps,
                     scheduler.process(cpu_pid_).granted_rate() / cpu_work);
    }
    if (gpu_work > 0.0 && gpu_pid_ >= 0) {
      fps = std::min(fps,
                     scheduler.process(gpu_pid_).granted_rate() / gpu_work);
    }
  }
  last_fps_ = fps;
  total_frames_ += fps * dt;
  second_frames_ += fps * dt;
  second_elapsed_ += dt;
  if (second_elapsed_ >= 1.0 - 1e-12) {
    fps_samples_.push_back(second_frames_ / second_elapsed_);
    second_frames_ = 0.0;
    second_elapsed_ = 0.0;
  }
}

double AppInstance::median_fps() const {
  if (fps_samples_.empty()) {
    throw ConfigError("AppInstance: no full second of fps samples yet");
  }
  return util::median(fps_samples_);
}

}  // namespace mobitherm::workload
