// Parameterized synthetic stressor templates (Marcu et al.-style benchmark
// workloads) — the generators behind pack "template" entries.
//
// Each template maps a small parameter set to a full AppSpec; pack.cpp
// dispatches on the template name so JSON packs can instantiate them, and
// synthetic_stressor_pack() bundles one default instance of each as the
// built-in "synthetic" pack (always registered, no --packs needed).
//
// Work values are abstract cycles, same calibration domain as the preset
// apps (workload/presets.cpp): a cluster retires ipc * freq units per
// core-second, so 1e8 cycles/frame at 60 fps saturates a ~2 GHz big core.
#pragma once

#include "workload/app.h"
#include "workload/pack.h"

namespace mobitherm::workload {

/// CPU-burn ramp: a frame-cost curve rising linearly from `cpu_from` to
/// `cpu_to` cycles/frame over `steps` phases of `step_s` seconds each,
/// then looping back — sweeps the governor across its whole OPP ladder.
/// Throws util::ConfigError on steps outside [2, kMaxAppPhases] or
/// non-positive durations.
AppSpec cpu_burn_ramp(int steps, double step_s, double cpu_from,
                      double cpu_to, int threads = 4);

/// Memory-bound batch phase: unbounded CPU demand with `bytes_per_work`
/// DRAM traffic per cycle, so the memory rail (and the contention model,
/// when enabled) dominates. Batch semantics: measured by completed work.
AppSpec memory_bound(double cpu_work, double bytes_per_work,
                     int threads = 2);

/// Bursty duty cycle: `duty` fraction of each `period_s` at full per-frame
/// work, the rest idle — the on/off envelope that exposes governor polling
/// lag and thermal time constants. Throws unless 0 < duty < 1.
AppSpec bursty_duty(double period_s, double duty, double cpu_work,
                    double gpu_work);

/// Multi-app interference surrogate: a thread-heavy mixed CPU+GPU hog
/// meant to run alongside another app (e.g. odroid's with_bml background
/// task) to reproduce interference studies. Throws on threads < 2.
AppSpec interference_mix(int threads, double cpu_work, double gpu_work);

/// The built-in "synthetic" pack: one default instance of each template
/// above, content-hashed exactly like a JSON-loaded pack.
WorkloadPack synthetic_stressor_pack();

}  // namespace mobitherm::workload
