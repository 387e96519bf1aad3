#include "workload/synthetic.h"

#include <string>

#include "util/error.h"
#include "util/hash.h"

namespace mobitherm::workload {

using util::ConfigError;

AppSpec cpu_burn_ramp(int steps, double step_s, double cpu_from,
                      double cpu_to, int threads) {
  if (steps < 2 || steps > static_cast<int>(kMaxAppPhases)) {
    throw ConfigError("cpu_burn_ramp: steps must be in [2, " +
                      std::to_string(kMaxAppPhases) + "]");
  }
  if (!(step_s > 0.0)) {
    throw ConfigError("cpu_burn_ramp: step_s must be positive");
  }
  if (cpu_from < 0.0 || cpu_to < 0.0) {
    throw ConfigError("cpu_burn_ramp: work values must be non-negative");
  }
  if (threads < 1 || threads > 64) {
    throw ConfigError("cpu_burn_ramp: threads must be in [1, 64]");
  }
  AppSpec spec;
  spec.name = "cpu_burn_ramp";
  spec.target_fps = 60.0;
  spec.cpu_threads = threads;
  spec.phases.reserve(static_cast<std::size_t>(steps));
  for (int i = 0; i < steps; ++i) {
    const double t = static_cast<double>(i) / (steps - 1);
    Phase phase;
    phase.duration_s = step_s;
    phase.cpu_work_per_frame = cpu_from + t * (cpu_to - cpu_from);
    spec.phases.push_back(phase);
  }
  return spec;
}

AppSpec memory_bound(double cpu_work, double bytes_per_work, int threads) {
  if (!(cpu_work > 0.0)) {
    throw ConfigError("memory_bound: cpu_work must be positive");
  }
  if (!(bytes_per_work > 0.0)) {
    throw ConfigError("memory_bound: bytes_per_work must be positive");
  }
  if (threads < 1 || threads > 64) {
    throw ConfigError("memory_bound: threads must be in [1, 64]");
  }
  AppSpec spec;
  spec.name = "memory_bound";
  spec.target_fps = 0.0;  // batch: unbounded demand, measured by work
  spec.cpu_threads = threads;
  spec.mem_bytes_per_work = bytes_per_work;
  Phase phase;
  phase.duration_s = 1.0;
  phase.cpu_work_per_frame = cpu_work;
  spec.phases = {phase};
  return spec;
}

AppSpec bursty_duty(double period_s, double duty, double cpu_work,
                    double gpu_work) {
  if (!(period_s > 0.0)) {
    throw ConfigError("bursty_duty: period_s must be positive");
  }
  if (!(duty > 0.0) || !(duty < 1.0)) {
    throw ConfigError("bursty_duty: duty must be in (0, 1)");
  }
  if (cpu_work < 0.0 || gpu_work < 0.0) {
    throw ConfigError("bursty_duty: work values must be non-negative");
  }
  AppSpec spec;
  spec.name = "bursty_duty";
  spec.target_fps = 60.0;
  Phase burst;
  burst.duration_s = period_s * duty;
  burst.cpu_work_per_frame = cpu_work;
  burst.gpu_work_per_frame = gpu_work;
  Phase idle;
  idle.duration_s = period_s * (1.0 - duty);
  spec.phases = {burst, idle};
  return spec;
}

AppSpec interference_mix(int threads, double cpu_work, double gpu_work) {
  if (threads < 2 || threads > 64) {
    throw ConfigError("interference_mix: threads must be in [2, 64]");
  }
  if (cpu_work < 0.0 || gpu_work < 0.0) {
    throw ConfigError("interference_mix: work values must be non-negative");
  }
  AppSpec spec;
  spec.name = "interference_mix";
  spec.target_fps = 60.0;
  spec.cpu_threads = threads;
  Phase phase;
  phase.duration_s = 1.0;
  phase.cpu_work_per_frame = cpu_work;
  phase.gpu_work_per_frame = gpu_work;
  spec.phases = {phase};
  return spec;
}

WorkloadPack synthetic_stressor_pack() {
  WorkloadPack pack;
  pack.name = "synthetic";
  pack.description =
      "built-in synthetic stressors: cpu-burn ramp, memory-bound batch, "
      "bursty duty cycle, multi-app interference mix";
  pack.apps = {
      cpu_burn_ramp(8, 5.0, 1.0e7, 1.6e8),
      memory_bound(1.0, 8.0),
      bursty_duty(4.0, 0.25, 8.0e7, 2.0e7),
      interference_mix(6, 6.0e7, 2.0e7),
  };
  pack.content_hash = util::fnv1a64(canonical_pack_json(pack));
  return pack;
}

}  // namespace mobitherm::workload
