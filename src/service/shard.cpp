#include "service/shard.h"

#include <utility>

#include "util/error.h"

namespace mobitherm::service {

ShardedService::ShardedService(const ScenarioRegistry& registry,
                               const ServiceConfig& config, unsigned shards) {
  if (shards == 0) {
    throw util::ConfigError("ShardedService: shards must be positive");
  }
  shards_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<SimService>(registry, config));
  }
}

unsigned ShardedService::shard_of(const SimRequest& request) const {
  PreparedRequest prepared = shards_.front()->prepare(request);
  if (!prepared.valid) {
    throw util::ConfigError("ShardedService: cannot route request: " +
                            prepared.error);
  }
  return shard_of_key(prepared.key);
}

SubmitOutcome ShardedService::submit(const SimRequest& request,
                                     double deadline_s) {
  // One resolution, shared by routing and admission. An unresolvable
  // request cannot be routed by key; it rejects on shard 0 so the
  // rejection is counted deterministically.
  PreparedRequest prepared = shards_.front()->prepare(request);
  const unsigned shard = prepared.valid ? shard_of_key(prepared.key) : 0;
  SubmitOutcome out =
      shards_[shard]->submit_prepared(std::move(prepared), deadline_s);
  if (out.accepted) {
    out.id = global_id(out.id, shard);
  }
  return out;
}

SubmitOutcome ShardedService::submit_compare(const CompareRequest& request,
                                             double deadline_s) {
  // One resolution, shared by routing and admission, like submit(); an
  // unresolvable comparison rejects on shard 0.
  PreparedCompare prepared = shards_.front()->prepare_compare(request);
  const unsigned shard = prepared.valid ? shard_of_key(prepared.key) : 0;
  SubmitOutcome out = shards_[shard]->submit_compare_prepared(
      std::move(prepared), deadline_s);
  if (out.accepted) {
    out.id = global_id(out.id, shard);
  }
  return out;
}

std::optional<JobStatus> ShardedService::status(std::uint64_t id) {
  const unsigned shard = static_cast<unsigned>(id % shards_.size());
  std::optional<JobStatus> s = shards_[shard]->status(id / shards_.size());
  if (s) {
    s->id = id;
  }
  return s;
}

std::shared_ptr<const JobResult> ShardedService::result(
    std::uint64_t id) const {
  const unsigned shard = static_cast<unsigned>(id % shards_.size());
  return shards_[shard]->result(id / shards_.size());
}

bool ShardedService::cancel(std::uint64_t id) {
  const unsigned shard = static_cast<unsigned>(id % shards_.size());
  return shards_[shard]->cancel(id / shards_.size());
}

bool ShardedService::wait(std::uint64_t id, double timeout_s) {
  const unsigned shard = static_cast<unsigned>(id % shards_.size());
  return shards_[shard]->wait(id / shards_.size(), timeout_s);
}

ServiceStats ShardedService::stats() const {
  ServiceStats total;
  bool first = true;
  for (const auto& shard : shards_) {
    const ServiceStats s = shard->stats();
    total.submitted += s.submitted;
    total.rejected += s.rejected;
    total.completed += s.completed;
    total.failed += s.failed;
    total.cancelled += s.cancelled;
    total.expired += s.expired;
    total.retries += s.retries;
    total.stale_served += s.stale_served;
    total.queued += s.queued;
    total.retry_backlog += s.retry_backlog;
    total.running += s.running;
    total.compares += s.compares;
    total.compare_rounds += s.compare_rounds;
    total.compare_lane_runs += s.compare_lane_runs;
    total.compare_lane_hits += s.compare_lane_hits;
    total.compare_early_stops += s.compare_early_stops;
    total.workers += s.workers;
    total.queue_capacity += s.queue_capacity;
    total.cache.hits += s.cache.hits;
    total.cache.misses += s.cache.misses;
    total.cache.evictions += s.cache.evictions;
    total.cache.collisions += s.cache.collisions;
    total.cache.corruptions += s.cache.corruptions;
    total.cache.stale_hits += s.cache.stale_hits;
    total.cache.size += s.cache.size;
    total.cache.stale_size += s.cache.stale_size;
    total.cache.capacity += s.cache.capacity;
    if (first) {
      // Shared across shards: report once, not summed.
      total.faults_injected = s.faults_injected;
      first = false;
    }
  }
  return total;
}

std::vector<ServiceStats> ShardedService::shard_stats() const {
  std::vector<ServiceStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.push_back(shard->stats());
  }
  return out;
}

}  // namespace mobitherm::service
