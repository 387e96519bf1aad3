// Discrete-time simulation engine.
//
// Binds the platform, power model, thermal network, scheduler, workloads
// and governors into a staged tick pipeline:
//   demand -> allocate/account -> contention -> power -> thermal
//   -> sensors -> residency -> governors -> dvfs -> trace
// Each stage is a private method receiving an explicit TickContext, so the
// stages are independently testable and the loop reads as the methodology
// diagram the paper describes.
//
// Governors only ever see sensor readings; the physics advances on the
// true state. All randomness is derived from EngineConfig::seed.
//
// The engine keeps its own instrumentation as members: the app-aware
// decision log, per-cluster conflict time, DVFS-transition counts and the
// optional DAQ capture (decisions(), conflict_time_s(), dvfs_transitions(),
// daq()). External observers attach with add_observer() (sim/observer.h)
// and are notified after every tick, governor decision and DVFS
// transition; they never perturb the simulation — a run yields a
// byte-identical Trace with zero, one, or N observers.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/appaware.h"
#include "governors/cpufreq.h"
#include "governors/hotplug.h"
#include "governors/thermal.h"
#include "platform/soc.h"
#include "power/model.h"
#include "power/sensors.h"
#include "sched/scheduler.h"
#include "sim/observer.h"
#include "sim/trace.h"
#include "thermal/network.h"
#include "thermal/sensors.h"
#include "thermal/skin.h"
#include "util/sliding_window.h"
#include "workload/app.h"

namespace mobitherm::sim {

/// Per-run options; the tick, trace and sensor timing and the memory
/// pseudo-cluster's coefficients are constants of engine.cpp.
struct EngineConfig {
  /// Sliding-window length for per-process and total-power accounting.
  double window_s = 1.0;
  std::uint64_t seed = 42;

  /// Record the whole-device DAQ trace (1 kHz) like the Nexus setup.
  bool enable_daq = false;

  /// Model DRAM bandwidth contention: when the apps' aggregate traffic
  /// (granted work x AppSpec::mem_bytes_per_work) exceeds the peak
  /// bandwidth, CPU/GPU capacity stalls proportionally on the next tick.
  /// Off by default (the paper's workloads are compute/GPU bound).
  bool enable_memory_contention = false;
  double mem_peak_bandwidth_gbps = 13.0;
};

class Engine {
 public:
  Engine(platform::SocSpec soc_spec, thermal::ThermalNetworkSpec net_spec,
         power::LeakageParams leakage, double board_base_w,
         EngineConfig config = {});

  // --- wiring -------------------------------------------------------------

  /// Add an app; its CPU process starts on `cpu_cluster` (default: the big
  /// cluster). Returns the app index. The app's clock starts now, so an
  /// app added mid-run (a background task launched mid-experiment) begins
  /// at its own t = 0.
  std::size_t add_app(const workload::AppSpec& spec,
                      std::optional<std::size_t> cpu_cluster = std::nullopt);

  workload::AppInstance& app(std::size_t index);
  const workload::AppInstance& app(std::size_t index) const;
  std::size_t num_apps() const { return apps_.size(); }

  /// Attaching a cpufreq or thermal governor reads its period, once.
  void set_cpufreq_governor(std::size_t cluster,
                            std::unique_ptr<governors::CpufreqGovernor> gov);
  void set_thermal_governor(std::unique_ptr<governors::ThermalGovernor> gov);
  void set_appaware_governor(std::unique_ptr<core::AppAwareGovernor> gov);
  void set_hotplug_governor(std::unique_ptr<governors::HotplugGovernor> gov);

  /// Enable the first-order skin-temperature estimator, fed from the board
  /// node. skin_temp_k() returns the estimate afterwards.
  void enable_skin_estimator(thermal::SkinModelParams params);

  // --- observer bus -------------------------------------------------------

  /// Attach a passive observer (non-owning; must outlive any run() call).
  /// Observers are notified in attachment order, after the engine has
  /// updated its own instrumentation.
  void add_observer(SimObserver* observer);

  // --- execution ----------------------------------------------------------

  /// Set every thermal node (and sensor priming) to `t_k`; models a device
  /// that is already warm when the experiment starts, as in the paper's
  /// traces, whose curves begin well above ambient.
  void set_initial_temperature(double t_k);

  /// Runaway guard (K): the run aborts with SimError kThermalRunaway on
  /// the first tick whose hottest chip node exceeds it — past the Sec.
  /// IV-A critical power there is no stable fixed point, so continuing
  /// would only integrate the divergence. <= 0 disarms it (the default;
  /// thermal_runaway_demo runs past it on purpose). Non-finite node
  /// temperatures always abort (kNonFiniteTemperature).
  void set_runaway_guard(double max_temp_k) {
    guard_max_temp_k_ = max_temp_k;
  }

  /// Advance the simulation by `seconds`. Fractional ticks are carried to
  /// the next call, so run(0.05) twenty times advances exactly as far as
  /// run(1.0) once.
  ///
  /// `stop` is an optional cooperative cancellation token, checked once
  /// per tick (a single relaxed atomic load; the hot loop stays
  /// allocation-free). When it becomes true the remaining ticks of this
  /// call are abandoned: the simulation stays valid and resumable, but an
  /// aborted run is *partial* — never treat its results as equivalent to
  /// a completed one.
  void run(double seconds, const std::atomic<bool>* stop = nullptr);
  double now_s() const { return now_; }

  // --- state access -------------------------------------------------------

  platform::Soc& soc() { return soc_; }
  const platform::Soc& soc() const { return soc_; }
  sched::Scheduler& scheduler() { return scheduler_; }
  const sched::Scheduler& scheduler() const { return scheduler_; }
  thermal::ThermalNetwork& network() { return network_; }
  const power::PowerModel& power_model() const { return power_model_; }
  const Trace& trace() const { return trace_; }

  /// Control temperature as the governors see it: max over the chip-node
  /// sensors (K).
  double control_temp_k() const;

  /// True total power of the last tick (W).
  double total_power_w() const { return last_total_power_w_; }

  /// Windowed (1 s) true total power (W).
  double windowed_power_w() const;

  /// Whole-device DAQ capture (the Nexus setup's 1 kHz NI-DAQ), fed with
  /// the true total power of every tick; null unless
  /// EngineConfig::enable_daq.
  const power::DaqSimulator* daq() const { return daq_.get(); }

  governors::HotplugGovernor* hotplug_governor() { return hotplug_.get(); }

  /// Estimated skin temperature (K); throws if the estimator is disabled.
  double skin_temp_k() const;
  bool has_skin_estimator() const { return skin_.has_value(); }

  /// Governor-contradiction accounting (paper Sec. I: "the outputs of the
  /// thermal and frequency governors may contradict each other"): time the
  /// cluster spent with the cpufreq request clamped by a thermal cap.
  double conflict_time_s(std::size_t cluster) const;

  /// Number of OPP changes applied on `cluster` so far.
  std::size_t dvfs_transitions(std::size_t cluster) const;

  /// Aggregate DRAM traffic demanded during the last tick (GB/s); 0 when
  /// the contention model is disabled.
  double memory_bandwidth_gbps() const { return last_mem_bw_gbps_; }

  /// Fraction of the last tick stalled on memory (0 when uncontended).
  double memory_stall_fraction() const { return last_mem_stall_; }

  /// Timestamped decisions of the application-aware governor.
  const std::vector<std::pair<double, core::AppAwareDecision>>& decisions()
      const {
    return decisions_;
  }

 private:
  /// Scratch state threaded through one tick's stages. Vector-valued
  /// scratch lives in engine-owned members (node_power_, node_temp_scratch_,
  /// caps_scratch_) reused across ticks so the hot loop never allocates.
  struct TickContext {
    double dt = 0.0;
    /// Fractional busy cores aggregated over CPU / GPU clusters
    /// (stage_power input for the memory pseudo-cluster).
    double cpu_busy_cores = 0.0;
    double gpu_busy_cores = 0.0;
    /// True total power of this tick (W).
    double total_power_w = 0.0;
    /// Post-thermal-step temperatures (stage_thermal output, K).
    double max_chip_temp_k = 0.0;
    double board_temp_k = 0.0;
  };

  void tick();

  // Pipeline stages, in tick order.
  void stage_demand(TickContext& ctx);       // app demand rates
  void stage_allocate(TickContext& ctx);     // scheduler + frame accounting
  void stage_contention(TickContext& ctx);   // DRAM bandwidth stalls
  void stage_power(TickContext& ctx);        // activities -> cluster power
  void stage_thermal(TickContext& ctx);      // RC network + skin step
  void stage_sensors(TickContext& ctx);      // sensor sampling
  void stage_residency(TickContext& ctx);    // time-in-state accrual
  void stage_governors(TickContext& ctx);    // periodic governor decisions
  void stage_dvfs(TickContext& ctx);         // apply caps, count conflicts
  void stage_trace(TickContext& ctx);        // decimated trace point

  // Observer-bus publication.
  void publish_tick(const TickInfo& info);
  void publish_governor_decision(const GovernorDecisionEvent& event);
  void publish_dvfs_transition(const DvfsTransitionEvent& event);

  EngineConfig config_;
  double guard_max_temp_k_ = 0.0;  // see set_runaway_guard
  platform::Soc soc_;
  power::PowerModel power_model_;
  thermal::ThermalNetwork network_;
  sched::Scheduler scheduler_;
  Trace trace_;

  struct AppSlot {
    std::unique_ptr<workload::AppInstance> instance;
    double start_s = 0.0;
  };
  std::vector<AppSlot> apps_;

  // Governors and their scheduling accumulators. A governor's period is
  // read once, when it is attached.
  struct CpufreqSlot {
    std::unique_ptr<governors::CpufreqGovernor> gov;
    double period_s = 0.0;
    double since_decide_s = 0.0;
    double util_time_integral = 0.0;  // integral of utilization dt
  };
  std::vector<CpufreqSlot> cpufreq_;
  std::vector<std::size_t> requested_index_;

  std::unique_ptr<governors::ThermalGovernor> thermal_gov_;
  double thermal_period_s_ = 0.0;
  double thermal_accum_ = 0.0;

  std::unique_ptr<core::AppAwareGovernor> appaware_;
  double appaware_accum_ = 0.0;

  std::unique_ptr<governors::HotplugGovernor> hotplug_;
  double hotplug_accum_ = 0.0;

  std::optional<thermal::SkinEstimator> skin_;

  double last_mem_bw_gbps_ = 0.0;
  double last_mem_stall_ = 0.0;

  // Sensors.
  std::vector<thermal::TemperatureSensor> node_sensors_;

  // Instrumentation, then the external observers (non-owning).
  std::vector<std::pair<double, core::AppAwareDecision>> decisions_;
  /// Per cluster: clamped by a thermal cap after the last stage_dvfs.
  std::vector<bool> in_conflict_;
  std::vector<double> conflict_time_s_;
  std::vector<std::size_t> dvfs_transitions_;
  std::unique_ptr<power::DaqSimulator> daq_;
  std::vector<SimObserver*> observers_;

  // Per-tick scratch hoisted out of TickContext (sized at construction,
  // reused every tick; see the hot-path allocation policy in DESIGN.md).
  linalg::Vector node_power_;                // stage_power -> stage_thermal
  std::vector<double> node_temp_scratch_;    // thermal-governor sensor view
  std::vector<std::size_t> caps_scratch_;    // thermal-governor cap snapshot

  util::SlidingWindow power_window_;
  double last_total_power_w_ = 0.0;
  std::vector<double> last_busy_cores_;
  double now_ = 0.0;
  /// Fractional-tick remainder carried across run() calls.
  double pending_ticks_ = 0.0;
  double trace_accum_ = 0.0;
  std::size_t board_node_ = 0;
};

}  // namespace mobitherm::sim
