#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "platform/presets.h"
#include "sim/sim_error.h"
#include "util/error.h"
#include "util/rng.h"

namespace mobitherm::sim {

using platform::ResourceKind;
using util::ConfigError;

namespace {

// The physics tick, the trace period, the temperature sensors' period and
// noise, and the memory pseudo-cluster's activity, busy fraction =
// kMemCpuCoeff * (cpu busy cores) + kMemGpuCoeff * (gpu busy cores).
constexpr double kTickS = 0.001;
constexpr double kTracePeriodS = 0.1;
constexpr double kTempSensorPeriodS = 0.05;
constexpr double kTempSensorNoiseK = 0.1;
constexpr double kMemCpuCoeff = 0.08;
constexpr double kMemGpuCoeff = 0.45;

std::vector<std::size_t> opps_per_cluster(const platform::SocSpec& spec) {
  std::vector<std::size_t> out;
  out.reserve(spec.clusters.size());
  for (const platform::ClusterSpec& c : spec.clusters) {
    out.push_back(c.opps.size());
  }
  return out;
}

}  // namespace

Engine::Engine(platform::SocSpec soc_spec,
               thermal::ThermalNetworkSpec net_spec,
               power::LeakageParams leakage, double board_base_w,
               EngineConfig config)
    : config_(config),
      soc_(soc_spec),
      power_model_(soc_spec, leakage, util::watts(board_base_w)),
      network_(std::move(net_spec)),
      scheduler_(soc_spec, config.window_s),
      trace_(soc_spec.clusters.size(), opps_per_cluster(soc_spec)),
      power_window_(config.window_s) {
  const std::size_t n = soc_.num_clusters();
  // Validate thermal-node mapping and locate the board node (assumed to be
  // the node no cluster maps to, by convention the last one).
  for (std::size_t c = 0; c < n; ++c) {
    if (soc_.cluster(c).thermal_node >= network_.num_nodes()) {
      throw ConfigError("Engine: cluster " + soc_.cluster(c).name +
                        " maps to a nonexistent thermal node");
    }
  }
  board_node_ = network_.num_nodes() - 1;
  node_power_.assign(network_.num_nodes(), 0.0);
  node_temp_scratch_.assign(network_.num_nodes(), 0.0);

  // Default governors: interactive on CPU clusters, ondemand on the GPU,
  // fixed on memory. No thermal governor by default.
  cpufreq_.resize(n);
  requested_index_.assign(n, 0);
  last_busy_cores_.assign(n, 0.0);
  in_conflict_.assign(n, false);
  conflict_time_s_.assign(n, 0.0);
  dvfs_transitions_.assign(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    const ResourceKind kind = soc_.cluster(c).kind;
    if (kind == ResourceKind::kMemory) {
      set_cpufreq_governor(c, std::make_unique<governors::Userspace>(
                                  soc_.cluster(c).opps.max_index()));
    } else if (kind == ResourceKind::kGpu) {
      set_cpufreq_governor(c, std::make_unique<governors::Ondemand>());
    } else {
      set_cpufreq_governor(c, std::make_unique<governors::Interactive>());
    }
    // Start at the highest OPP, like a device waking on user interaction.
    soc_.set_opp(c, soc_.cluster(c).opps.max_index());
    requested_index_[c] = soc_.cluster(c).opps.max_index();
  }

  // Sensors: one per thermal node.
  for (std::size_t node = 0; node < network_.num_nodes(); ++node) {
    thermal::TemperatureSensor::Config sc;
    sc.name = network_.spec().nodes[node].name;
    sc.period_s = util::seconds(kTempSensorPeriodS);
    sc.noise_stddev_k = util::kelvin(kTempSensorNoiseK);
    sc.lsb_k = util::kelvin(0.1);
    sc.seed = util::derive_seed(config_.seed, 100 + node);
    node_sensors_.emplace_back(sc);
    node_sensors_.back().prime(network_.ambient_k().value());
  }

  if (config_.enable_daq) {
    power::DaqSimulator::Config dc;
    dc.seed = util::derive_seed(config_.seed, 300);
    daq_ = std::make_unique<power::DaqSimulator>(dc);
  }
}

std::size_t Engine::add_app(const workload::AppSpec& spec,
                            std::optional<std::size_t> cpu_cluster) {
  const std::size_t cpu =
      cpu_cluster.value_or(soc_.spec().big());
  std::optional<std::size_t> gpu;
  if (soc_.spec().has_kind(ResourceKind::kGpu)) {
    gpu = soc_.spec().gpu();
  }
  AppSlot slot;
  slot.instance = std::make_unique<workload::AppInstance>(
      spec, scheduler_, cpu, gpu,
      util::derive_seed(config_.seed, 400 + apps_.size()));
  slot.start_s = now_;
  apps_.push_back(std::move(slot));
  return apps_.size() - 1;
}

workload::AppInstance& Engine::app(std::size_t index) {
  if (index >= apps_.size()) {
    throw ConfigError("Engine: app index out of range");
  }
  return *apps_[index].instance;
}

const workload::AppInstance& Engine::app(std::size_t index) const {
  if (index >= apps_.size()) {
    throw ConfigError("Engine: app index out of range");
  }
  return *apps_[index].instance;
}

void Engine::set_cpufreq_governor(
    std::size_t cluster, std::unique_ptr<governors::CpufreqGovernor> gov) {
  if (cluster >= cpufreq_.size()) {
    throw ConfigError("Engine: cluster index out of range");
  }
  if (!gov) {
    throw ConfigError("Engine: null governor");
  }
  CpufreqSlot& slot = cpufreq_[cluster];
  slot.period_s = gov->sampling_period_s().value();
  slot.gov = std::move(gov);
  slot.since_decide_s = 0.0;
  slot.util_time_integral = 0.0;
}

void Engine::set_thermal_governor(
    std::unique_ptr<governors::ThermalGovernor> gov) {
  thermal_period_s_ = gov ? gov->polling_period_s().value() : 0.0;
  thermal_gov_ = std::move(gov);
  thermal_accum_ = 0.0;
}

void Engine::set_appaware_governor(
    std::unique_ptr<core::AppAwareGovernor> gov) {
  appaware_ = std::move(gov);
  appaware_accum_ = 0.0;
}

void Engine::set_hotplug_governor(
    std::unique_ptr<governors::HotplugGovernor> gov) {
  hotplug_ = std::move(gov);
  hotplug_accum_ = 0.0;
}

void Engine::enable_skin_estimator(thermal::SkinModelParams params) {
  skin_.emplace(params);
  skin_->reset(network_.temperature(board_node_));
}

void Engine::add_observer(SimObserver* observer) {
  if (observer == nullptr) {
    throw ConfigError("Engine: null observer");
  }
  observers_.push_back(observer);
}

double Engine::skin_temp_k() const {
  if (!skin_.has_value()) {
    throw ConfigError("Engine: skin estimator not enabled");
  }
  return skin_->skin_temp_k().value();
}

double Engine::conflict_time_s(std::size_t cluster) const {
  if (cluster >= conflict_time_s_.size()) {
    throw ConfigError("Engine: cluster index out of range");
  }
  return conflict_time_s_[cluster];
}

std::size_t Engine::dvfs_transitions(std::size_t cluster) const {
  if (cluster >= dvfs_transitions_.size()) {
    throw ConfigError("Engine: cluster index out of range");
  }
  return dvfs_transitions_[cluster];
}

double Engine::control_temp_k() const {
  double best = 0.0;
  for (std::size_t node = 0; node < node_sensors_.size(); ++node) {
    if (node == board_node_) {
      continue;  // board/skin is not a throttling sensor
    }
    best = std::max(best, node_sensors_[node].last_k());
  }
  return best;
}

double Engine::windowed_power_w() const {
  return power_window_.mean(last_total_power_w_);
}

void Engine::set_initial_temperature(double t_k) {
  linalg::Vector temps(network_.num_nodes(), t_k);
  network_.set_temperatures(temps);
  for (thermal::TemperatureSensor& sensor : node_sensors_) {
    sensor.prime(t_k);
  }
}

void Engine::run(double seconds, const std::atomic<bool>* stop) {
  // Carry fractional ticks across calls so repeated short runs advance
  // exactly as far as one long run (run(0.05) x20 == run(1.0)). The tick
  // count must be a number a long long holds exactly.
  const double pending = pending_ticks_ + seconds / kTickS;
  if (!(seconds >= 0.0 && pending < 0x1p53)) {
    char got[32];
    std::snprintf(got, sizeof(got), "%g", seconds);
    throw ConfigError(std::string("Engine::run: duration must be a finite "
                                  "number of seconds >= 0 and under 2^53 "
                                  "ticks, got ") + got);
  }
  pending_ticks_ = pending;
  const auto ticks =
      static_cast<long long>(std::floor(pending_ticks_ + 1e-9));
  if (ticks <= 0) {
    return;
  }
  pending_ticks_ -= static_cast<double>(ticks);
  for (long long i = 0; i < ticks; ++i) {
    // Cooperative cancellation: one relaxed load per tick, no effect on
    // the simulated state of the ticks that did run.
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return;
    }
    tick();
  }
}

void Engine::tick() {
  TickContext ctx;
  ctx.dt = kTickS;
  stage_demand(ctx);
  stage_allocate(ctx);
  stage_contention(ctx);
  stage_power(ctx);
  stage_thermal(ctx);
  stage_sensors(ctx);
  stage_residency(ctx);
  stage_governors(ctx);
  stage_dvfs(ctx);
  stage_trace(ctx);

  // Numerical guards on the post-thermal state: a healthy run never trips
  // them, so completed traces are byte-identical with or without the
  // checks; an unhealthy run aborts typed instead of emitting garbage.
  if (!std::isfinite(ctx.max_chip_temp_k) ||
      !std::isfinite(ctx.board_temp_k)) {
    throw SimError(SimErrorCode::kNonFiniteTemperature, now_,
                   ctx.max_chip_temp_k, 0.0);
  }
  if (guard_max_temp_k_ > 0.0 && ctx.max_chip_temp_k > guard_max_temp_k_) {
    throw SimError(SimErrorCode::kThermalRunaway, now_, ctx.max_chip_temp_k,
                   guard_max_temp_k_);
  }

  for (std::size_t c = 0; c < in_conflict_.size(); ++c) {
    if (in_conflict_[c]) {
      conflict_time_s_[c] += ctx.dt;
    }
  }
  if (daq_) {
    daq_->feed(ctx.dt, ctx.total_power_w);
  }
  TickInfo info;
  info.t_s = now_;
  info.dt = ctx.dt;
  info.total_power_w = ctx.total_power_w;
  info.max_chip_temp_k = ctx.max_chip_temp_k;
  info.board_temp_k = ctx.board_temp_k;
  info.engine = this;
  publish_tick(info);

  now_ += ctx.dt;
}

// Workload demands, each app on its own clock.
void Engine::stage_demand(TickContext& ctx) {
  for (AppSlot& slot : apps_) {
    slot.instance->set_demands(scheduler_, now_ - slot.start_s, ctx.dt);
  }
}

// Allocation and frame accounting.
void Engine::stage_allocate(TickContext& ctx) {
  scheduler_.allocate(soc_, ctx.dt);
  for (AppSlot& slot : apps_) {
    slot.instance->account(scheduler_, ctx.dt);
  }
}

// Memory-bandwidth contention: aggregate app traffic vs. peak.
void Engine::stage_contention(TickContext&) {
  if (!config_.enable_memory_contention) {
    return;
  }
  double bytes_per_s = 0.0;
  for (AppSlot& slot : apps_) {
    const double intensity = slot.instance->spec().mem_bytes_per_work;
    if (intensity <= 0.0) {
      continue;
    }
    double granted =
        scheduler_.process(slot.instance->cpu_pid()).granted_rate();
    if (slot.instance->gpu_pid() >= 0) {
      granted +=
          scheduler_.process(slot.instance->gpu_pid()).granted_rate();
    }
    bytes_per_s += granted * intensity;
  }
  last_mem_bw_gbps_ = bytes_per_s * 1e-9;
  const double peak = config_.mem_peak_bandwidth_gbps;
  last_mem_stall_ =
      last_mem_bw_gbps_ > peak ? 1.0 - peak / last_mem_bw_gbps_ : 0.0;
  if (last_mem_stall_ > 0.0) {
    for (std::size_t c = 0; c < soc_.num_clusters(); ++c) {
      if (soc_.cluster(c).kind != ResourceKind::kMemory) {
        scheduler_.set_capacity_penalty(c, last_mem_stall_);
      }
    }
  }
}

// Activities (memory activity follows CPU/GPU traffic), then power per
// cluster and the thermal-node injection vector.
void Engine::stage_power(TickContext& ctx) {
  const std::size_t n = soc_.num_clusters();
  ctx.cpu_busy_cores = 0.0;
  ctx.gpu_busy_cores = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    last_busy_cores_[c] = scheduler_.cluster_busy_cores(c);
    const ResourceKind kind = soc_.cluster(c).kind;
    if (kind == ResourceKind::kGpu) {
      ctx.gpu_busy_cores += last_busy_cores_[c];
    } else if (kind != ResourceKind::kMemory) {
      ctx.cpu_busy_cores += last_busy_cores_[c];
    }
  }

  std::fill(node_power_.begin(), node_power_.end(), 0.0);
  ctx.total_power_w = power_model_.board_base_w().value();
  node_power_[board_node_] += power_model_.board_base_w().value();
  for (std::size_t c = 0; c < n; ++c) {
    power::ClusterActivity activity;
    const ResourceKind kind = soc_.cluster(c).kind;
    if (kind == ResourceKind::kMemory) {
      activity.busy_cores =
          std::clamp(kMemCpuCoeff * ctx.cpu_busy_cores +
                         kMemGpuCoeff * ctx.gpu_busy_cores,
                     0.0, 1.0);
      last_busy_cores_[c] = activity.busy_cores;
    } else {
      activity.busy_cores = last_busy_cores_[c];
    }
    activity.temp_k = network_.temperature(soc_.cluster(c).thermal_node);
    const power::ClusterPower p =
        power_model_.cluster_power(soc_, c, activity);
    const double total_w = p.total().value();
    node_power_[soc_.cluster(c).thermal_node] += total_w;
    ctx.total_power_w += total_w;
    scheduler_.attribute_power(c, p.dynamic_w.value(), ctx.dt);
    trace_.add_rail_energy(c, total_w * ctx.dt);
  }
  last_total_power_w_ = ctx.total_power_w;
  power_window_.push(ctx.dt, ctx.total_power_w);
}

// Thermal step (RC network + skin estimator), then the post-step
// temperatures the guards and governors read.
void Engine::stage_thermal(TickContext& ctx) {
  network_.step(node_power_, util::seconds(ctx.dt));
  if (skin_.has_value()) {
    skin_->step(network_.temperature(board_node_), util::seconds(ctx.dt));
  }
  ctx.max_chip_temp_k = 0.0;
  for (std::size_t node = 0; node < network_.num_nodes(); ++node) {
    if (node != board_node_) {
      ctx.max_chip_temp_k =
          std::max(ctx.max_chip_temp_k, network_.temperature(node).value());
    }
  }
  ctx.board_temp_k = network_.temperature(board_node_).value();
}

// Sensor refresh at the post-step temperatures.
void Engine::stage_sensors(TickContext& ctx) {
  for (std::size_t node = 0; node < node_sensors_.size(); ++node) {
    node_sensors_[node].feed(ctx.dt, network_.temperature(node).value());
  }
}

// Residency is accrued at the OPPs active during this tick (stage_dvfs has
// not switched them yet).
void Engine::stage_residency(TickContext& ctx) {
  for (std::size_t c = 0; c < soc_.num_clusters(); ++c) {
    trace_.add_residency(c, soc_.state(c).opp_index, ctx.dt);
  }
  trace_.add_time(ctx.dt);
}

// Governors at their own periods; each decision is published to the bus.
void Engine::stage_governors(TickContext& ctx) {
  const double dt = ctx.dt;
  const std::size_t n = soc_.num_clusters();
  for (std::size_t c = 0; c < n; ++c) {
    CpufreqSlot& slot = cpufreq_[c];
    slot.since_decide_s += dt;
    slot.util_time_integral += scheduler_.governor_utilization(c) * dt;
    if (slot.since_decide_s + 1e-12 >= slot.period_s) {
      governors::CpufreqInputs in;
      in.utilization = slot.util_time_integral / slot.since_decide_s;
      in.current_index = soc_.state(c).opp_index;
      requested_index_[c] = slot.gov->decide(in, soc_.cluster(c).opps);
      slot.since_decide_s = 0.0;
      slot.util_time_integral = 0.0;

      GovernorDecisionEvent e;
      e.t_s = now_;
      e.kind = GovernorKind::kCpufreq;
      e.governor = slot.gov->name();
      e.cluster = c;
      e.requested_index = requested_index_[c];
      publish_governor_decision(e);
    }
  }
  if (thermal_gov_) {
    thermal_accum_ += dt;
    if (thermal_accum_ + 1e-12 >= thermal_period_s_) {
      governors::ThermalContext tctx;
      tctx.dt = util::seconds(thermal_accum_);
      tctx.control_temp_k = util::kelvin(control_temp_k());
      tctx.soc = &soc_;
      tctx.power = &power_model_;
      tctx.busy_cores = &last_busy_cores_;
      tctx.requested_index = &requested_index_;
      for (std::size_t node = 0; node < node_sensors_.size(); ++node) {
        node_temp_scratch_[node] = node_sensors_[node].last_k();
      }
      tctx.node_temp_k = &node_temp_scratch_;
      thermal_gov_->update(tctx);
      thermal_accum_ = 0.0;

      thermal_gov_->caps_into(n, caps_scratch_);
      GovernorDecisionEvent e;
      e.t_s = now_;
      e.kind = GovernorKind::kThermal;
      e.governor = thermal_gov_->name();
      e.thermal_caps = &caps_scratch_;
      publish_governor_decision(e);
    }
  }
  if (appaware_) {
    appaware_accum_ += dt;
    if (appaware_accum_ + 1e-12 >= appaware_->config().period_s) {
      const core::AppAwareDecision d = appaware_->update(
          scheduler_, windowed_power_w(), control_temp_k());
      appaware_accum_ = 0.0;
      decisions_.emplace_back(now_, d);

      GovernorDecisionEvent e;
      e.t_s = now_;
      e.kind = GovernorKind::kAppAware;
      e.governor = appaware_->name();
      e.decision = &d;
      publish_governor_decision(e);
    }
  }
  if (hotplug_) {
    hotplug_accum_ += dt;
    if (hotplug_accum_ + 1e-12 >= hotplug_->polling_period_s().value()) {
      const int cores = hotplug_->update(util::kelvin(control_temp_k()));
      soc_.set_online_cores(hotplug_->config().cluster, cores);
      hotplug_accum_ = 0.0;

      GovernorDecisionEvent e;
      e.t_s = now_;
      e.kind = GovernorKind::kHotplug;
      e.governor = hotplug_->name();
      e.target_cores = cores;
      publish_governor_decision(e);
    }
  }
}

// Apply min(request, thermal cap) and mark governor contradictions: the
// thermal cap clamping the cpufreq request is the conflict the paper
// highlights. tick() accrues conflict time once the tick has passed the
// numerical guards. One pass per cluster reads its cap once.
void Engine::stage_dvfs(TickContext&) {
  for (std::size_t c = 0; c < soc_.num_clusters(); ++c) {
    std::size_t index = requested_index_[c];
    bool conflict = false;
    if (thermal_gov_) {
      const std::size_t cap = thermal_gov_->cap_index(c);
      conflict = cap < index;
      index = std::min(index, cap);
    }
    index = std::min(index, soc_.cluster(c).opps.max_index());
    in_conflict_[c] = conflict;
    const std::size_t from = soc_.state(c).opp_index;
    if (index == from) {
      continue;
    }
    ++dvfs_transitions_[c];
    DvfsTransitionEvent e;
    e.t_s = now_;
    e.cluster = c;
    e.from_index = from;
    e.to_index = index;
    publish_dvfs_transition(e);
    soc_.set_opp(c, index);
  }
}

// Decimated trace point.
void Engine::stage_trace(TickContext& ctx) {
  trace_accum_ += ctx.dt;
  if (trace_accum_ + 1e-12 < kTracePeriodS) {
    return;
  }
  trace_.add_point(TracePoint{now_, ctx.max_chip_temp_k});
  trace_accum_ = 0.0;
}

void Engine::publish_tick(const TickInfo& info) {
  for (SimObserver* o : observers_) {
    o->on_tick(info);
  }
}

void Engine::publish_governor_decision(const GovernorDecisionEvent& event) {
  for (SimObserver* o : observers_) {
    o->on_governor_decision(event);
  }
}

void Engine::publish_dvfs_transition(const DvfsTransitionEvent& event) {
  for (SimObserver* o : observers_) {
    o->on_dvfs_transition(event);
  }
}

}  // namespace mobitherm::sim
