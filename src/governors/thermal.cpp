#include "governors/thermal.h"

#include <algorithm>

#include "util/error.h"

namespace mobitherm::governors {

using util::ConfigError;

void ThermalGovernor::caps_into(std::size_t num_clusters,
                                std::vector<std::size_t>& out) const {
  out.resize(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    out[c] = cap_index(c);
  }
}

StepWiseGovernor::Config StepWiseGovernor::uniform(
    const platform::SocSpec& spec, util::Kelvin trip_k,
    util::Kelvin hysteresis_k, util::Seconds polling_period_s) {
  Config cfg;
  cfg.polling_period_s = polling_period_s;
  for (std::size_t c = 0; c < spec.clusters.size(); ++c) {
    if (spec.clusters[c].kind == platform::ResourceKind::kMemory) {
      continue;
    }
    Zone zone;
    zone.cluster = c;
    zone.sensor_node = spec.clusters[c].thermal_node;
    zone.trip_k = trip_k;
    zone.hysteresis_k = hysteresis_k;
    cfg.zones.push_back(zone);
  }
  return cfg;
}

StepWiseGovernor::StepWiseGovernor(const platform::SocSpec& spec,
                                   Config config)
    : config_(std::move(config)) {
  const std::size_t n = spec.clusters.size();
  if (config_.zones.empty()) {
    throw ConfigError("StepWiseGovernor: no zones configured");
  }
  for (const Zone& z : config_.zones) {
    if (z.cluster >= n) {
      throw ConfigError("StepWiseGovernor: zone cluster out of range");
    }
    if (z.steps_per_state == 0) {
      throw ConfigError("StepWiseGovernor: steps_per_state must be > 0");
    }
  }
  max_index_.reserve(n);
  for (const platform::ClusterSpec& c : spec.clusters) {
    max_index_.push_back(c.opps.max_index());
  }
  state_.assign(config_.zones.size(), 0);
}

void StepWiseGovernor::update(const ThermalContext& ctx) {
  for (std::size_t z = 0; z < config_.zones.size(); ++z) {
    const Zone& zone = config_.zones[z];
    util::Kelvin temp = ctx.control_temp_k;
    if (ctx.node_temp_k != nullptr &&
        zone.sensor_node < ctx.node_temp_k->size()) {
      temp = util::kelvin((*ctx.node_temp_k)[zone.sensor_node]);
    }
    if (temp > zone.trip_k) {
      state_[z] = std::min(state_[z] + 1, zone.max_states);
    } else if (temp < zone.trip_k - zone.hysteresis_k && state_[z] > 0) {
      --state_[z];
    }
  }
}

std::size_t StepWiseGovernor::cap_index(std::size_t cluster) const {
  if (cluster >= max_index_.size()) {
    throw ConfigError("StepWiseGovernor: cluster index out of range");
  }
  std::size_t cap = max_index_[cluster];
  for (std::size_t z = 0; z < config_.zones.size(); ++z) {
    const Zone& zone = config_.zones[z];
    if (zone.cluster != cluster) {
      continue;
    }
    const std::size_t drop = state_[z] * zone.steps_per_state;
    const std::size_t top = max_index_[cluster];
    const std::size_t floor_idx = std::min(zone.floor_index, top);
    const std::size_t zone_cap =
        drop >= top - floor_idx ? floor_idx : top - drop;
    cap = std::min(cap, zone_cap);
  }
  return cap;
}

IpaGovernor::IpaGovernor(const platform::SocSpec& spec, Config config)
    : config_(std::move(config)) {
  const std::size_t n = spec.clusters.size();
  if (config_.actors.empty()) {
    for (std::size_t c = 0; c < n; ++c) {
      config_.actors.push_back(c);
    }
  }
  for (std::size_t a : config_.actors) {
    if (a >= n) {
      throw ConfigError("IpaGovernor: actor index out of range");
    }
  }
  max_index_.reserve(n);
  cap_.reserve(n);
  for (const platform::ClusterSpec& c : spec.clusters) {
    max_index_.push_back(c.opps.max_index());
    cap_.push_back(c.opps.max_index());
  }
}

void IpaGovernor::update(const ThermalContext& ctx) {
  if (ctx.soc == nullptr || ctx.power == nullptr ||
      ctx.busy_cores == nullptr || ctx.requested_index == nullptr) {
    throw ConfigError("IpaGovernor: context must carry soc/power/activity");
  }
  const util::Kelvin err = config_.control_temp_k - ctx.control_temp_k;

  // PID power budget (proportional gains asymmetric as in the kernel).
  const util::WattPerKelvin k_p =
      err < util::kelvin(0.0) ? config_.k_po : config_.k_pu;
  integral_ += config_.k_i * err * ctx.dt;
  integral_ = std::clamp(integral_, -config_.integral_cap_w,
                         config_.integral_cap_w);
  util::Watt budget =
      config_.sustainable_power_w + k_p * err + integral_;
  budget = std::max(budget, util::watts(0.0));
  last_budget_w_ = budget;

  // Each actor requests the power it would draw at its cpufreq-requested
  // OPP with its current activity.
  std::vector<util::Watt> request(max_index_.size());
  util::Watt total_request{};
  for (std::size_t a : config_.actors) {
    const double busy = (*ctx.busy_cores)[a];
    const std::size_t want = std::min((*ctx.requested_index)[a],
                                      max_index_[a]);
    request[a] = busy * ctx.power->dynamic_per_core_at(a, want) +
                 ctx.soc->cluster(a).idle_power_w;
    total_request += request[a];
  }

  // Grant power proportional to requests; translate each grant into the
  // highest OPP whose dynamic power at the current activity fits.
  for (std::size_t c = 0; c < max_index_.size(); ++c) {
    cap_[c] = max_index_[c];
  }
  if (total_request <= util::watts(0.0)) {
    return;
  }
  for (std::size_t a : config_.actors) {
    const util::Watt grant = budget * request[a] / total_request;
    const double busy = std::max((*ctx.busy_cores)[a], 1e-3);
    const util::Watt idle = ctx.soc->cluster(a).idle_power_w;
    std::size_t cap = 0;
    for (std::size_t i = 0; i <= max_index_[a]; ++i) {
      const util::Watt p =
          busy * ctx.power->dynamic_per_core_at(a, i) + idle;
      if (p <= grant) {
        cap = i;
      }
    }
    cap_[a] = cap;
  }
}

std::size_t IpaGovernor::cap_index(std::size_t cluster) const {
  if (cluster >= cap_.size()) {
    throw ConfigError("IpaGovernor: cluster index out of range");
  }
  return cap_[cluster];
}

}  // namespace mobitherm::governors
