#include "service/result_cache.h"

#include <utility>

#include "service/scenario_registry.h"
#include "util/hash.h"
#include "util/json.h"

namespace mobitherm::service {

namespace json = util::json;

namespace {

json::Value number_array(const std::vector<double>& values) {
  json::Value arr = json::Value::array();
  for (const double v : values) {
    arr.push(json::Value::number(v));
  }
  return arr;
}

json::Value number_matrix(const std::vector<std::vector<double>>& rows) {
  json::Value arr = json::Value::array();
  for (const auto& row : rows) {
    arr.push(number_array(row));
  }
  return arr;
}

json::Value string_array(const std::vector<std::string>& values) {
  json::Value arr = json::Value::array();
  for (const std::string& s : values) {
    arr.push(json::Value::string(s));
  }
  return arr;
}

json::Value pair_series(
    const std::vector<std::pair<double, double>>& series) {
  json::Value arr = json::Value::array();
  for (const auto& [t, v] : series) {
    json::Value point = json::Value::array();
    point.push(json::Value::number(t));
    point.push(json::Value::number(v));
    arr.push(std::move(point));
  }
  return arr;
}

}  // namespace

std::string serialize_result(const sim::RunMetrics& metrics,
                             const sim::RunReport& report) {
  json::Value m = json::Value::object();
  m.set("peak_temp_c", json::Value::number(metrics.peak_temp_c));
  m.set("final_temp_c", json::Value::number(metrics.final_temp_c));
  m.set("mean_power_w", json::Value::number(metrics.mean_power_w));
  m.set("temp_trace_c", pair_series(metrics.temp_trace_c));
  m.set("residency", number_matrix(metrics.residency));
  m.set("freqs_mhz", number_matrix(metrics.freqs_mhz));
  m.set("mean_rail_w", number_array(metrics.mean_rail_w));
  m.set("rail_names", string_array(metrics.rail_names));
  m.set("median_fps", number_array(metrics.median_fps));
  m.set("phase_fps", number_matrix(metrics.phase_fps));

  json::Value rep = json::Value::object();
  rep.set("duration_s", json::Value::number(report.duration_s));
  rep.set("peak_temp_c", json::Value::number(report.peak_temp_c));
  rep.set("mean_temp_c", json::Value::number(report.mean_temp_c));
  rep.set("time_above_limit_s",
          json::Value::number(report.time_above_limit_s));
  rep.set("temp_limit_c", json::Value::number(report.temp_limit_c));
  rep.set("total_energy_j", json::Value::number(report.total_energy_j));
  json::Value apps = json::Value::array();
  for (const sim::AppReport& app : report.apps) {
    json::Value a = json::Value::object();
    a.set("name", json::Value::string(app.name));
    a.set("median_fps", json::Value::number(app.median_fps));
    a.set("p10_fps", json::Value::number(app.p10_fps));
    a.set("p90_fps", json::Value::number(app.p90_fps));
    a.set("mean_fps", json::Value::number(app.mean_fps));
    a.set("energy_j", json::Value::number(app.energy_j));
    a.set("mj_per_frame", json::Value::number(app.mj_per_frame));
    apps.push(std::move(a));
  }
  rep.set("apps", std::move(apps));
  json::Value clusters = json::Value::array();
  for (const sim::ClusterReport& cluster : report.clusters) {
    json::Value c = json::Value::object();
    c.set("name", json::Value::string(cluster.name));
    c.set("mean_power_w", json::Value::number(cluster.mean_power_w));
    c.set("energy_j", json::Value::number(cluster.energy_j));
    c.set("mean_freq_mhz", json::Value::number(cluster.mean_freq_mhz));
    c.set("dvfs_transitions",
          json::Value::number(
              static_cast<double>(cluster.dvfs_transitions)));
    c.set("conflict_time_s", json::Value::number(cluster.conflict_time_s));
    clusters.push(std::move(c));
  }
  rep.set("clusters", std::move(clusters));

  json::Value root = json::Value::object();
  root.set("metrics", std::move(m));
  root.set("report", std::move(rep));
  return root.dump();
}

ResultCache::ResultCache(std::size_t capacity, util::FaultPlan* faults)
    : capacity_(capacity), faults_(faults) {
  counters_.capacity = capacity;
}

std::shared_ptr<const JobResult> ResultCache::lookup(
    std::uint64_t key, const std::string& canonical) {
  util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  if (it->second->canonical != canonical) {
    ++counters_.collisions;
    ++counters_.misses;
    return nullptr;
  }
  // Verification hashes the whole payload, so it runs only when a fault
  // plan could have damaged the stored copy; without one, entries are
  // immutable after insert and the hit path stays O(1).
  if (faults_ != nullptr &&
      util::fnv1a64(it->second->result->payload) != it->second->checksum) {
    // Storage corruption: drop the entry so it is recomputed, never
    // served. The stale store keeps only checksum-clean entries.
    lru_.erase(it->second);
    index_.erase(it);
    ++counters_.corruptions;
    ++counters_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++counters_.hits;
  return it->second->result;
}

std::shared_ptr<const JobResult> ResultCache::lookup_stale(
    std::uint64_t key, const std::string& canonical) {
  util::MutexLock lock(mutex_);
  const auto it = stale_index_.find(key);
  if (it == stale_index_.end() || it->second->canonical != canonical) {
    return nullptr;
  }
  if (faults_ != nullptr &&
      util::fnv1a64(it->second->result->payload) != it->second->checksum) {
    stale_.erase(it->second);
    stale_index_.erase(it);
    ++counters_.corruptions;
    return nullptr;
  }
  ++counters_.stale_hits;
  return it->second->result;
}

void ResultCache::insert(std::uint64_t key, const std::string& canonical,
                         std::shared_ptr<const JobResult> result) {
  if (capacity_ == 0 || !result) {
    return;
  }
  // The checksum is computed over the payload as handed in; the
  // kCacheCorruption site then damages the *stored copy*, modeling rot
  // that happened after the write — exactly what lookup must catch. Only
  // lookups under a fault plan read it, so without one it is not taken.
  const std::uint64_t checksum =
      faults_ != nullptr ? util::fnv1a64(result->payload) : 0;
  util::MutexLock lock(mutex_);
  if (faults_ != nullptr &&
      faults_->fires(util::FaultSite::kCacheCorruption, key)) {
    auto damaged = std::make_shared<JobResult>(*result);
    if (!damaged->payload.empty()) {
      damaged->payload[key % damaged->payload.size()] ^= 0x20;
    }
    result = std::move(damaged);
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->canonical = canonical;
    it->second->result = std::move(result);
    it->second->checksum = checksum;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    evict_to_stale_locked();
  }
  lru_.push_front(Node{key, canonical, std::move(result), checksum});
  index_[key] = lru_.begin();
}

void ResultCache::evict_to_stale_locked() {
  Node victim = std::move(lru_.back());
  index_.erase(victim.key);
  lru_.pop_back();
  ++counters_.evictions;
  const auto it = stale_index_.find(victim.key);
  if (it != stale_index_.end()) {
    stale_.erase(it->second);
    stale_index_.erase(it);
  }
  if (stale_.size() >= capacity_) {
    stale_index_.erase(stale_.back().key);
    stale_.pop_back();
  }
  stale_.push_front(std::move(victim));
  stale_index_[stale_.front().key] = stale_.begin();
}

CacheStats ResultCache::stats() const {
  util::MutexLock lock(mutex_);
  CacheStats out = counters_;
  out.size = lru_.size();
  out.stale_size = stale_.size();
  return out;
}

}  // namespace mobitherm::service
