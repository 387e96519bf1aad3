// ShardedService: N share-nothing SimService shards behind one id space.
//
// The fleet front-end (net_server.h) wants to absorb many concurrent
// clients without the single service mutex and the single ResultCache
// becoming the contention point. Work is partitioned by canonical request
// key:
//
//     shard = util::fnv1a64(canonical_key) % shards
//
// Routing is a pure function of the canonical key — the same request lands
// on the same shard on every run, across processes and across restarts —
// so each shard can own its ResultCache + stale side-store, its job queue
// and its worker pool outright, with no cross-shard locks anywhere: a
// request's cache entry lives on exactly one shard, and the byte-identity
// guarantee (same canonical request -> same payload bytes) holds shard by
// shard exactly as it does for a single pool.
//
// Job ids are globalized as `local_id * shards + shard`, so the shard of
// any id is recoverable as `id % shards` and id-addressed ops (status,
// result, cancel, wait) route without a directory. With shards == 1 the
// mapping is the identity: the stdin pipe server, every existing smoke
// test and the fault-injection path run byte-for-byte unchanged through a
// 1-shard ShardedService.
//
// ServiceConfig is interpreted *per shard*: `workers`, `queue_capacity`
// and `cache_capacity` each apply to every shard (S shards x W workers
// total threads). A shared FaultPlan pointer is passed through to every
// shard; its decisions stay pure in (seed, site, key), so the injected
// schedule for a given request stream does not depend on the shard count.
//
// Locking: ShardedService itself holds no mutex — `shards_` is immutable
// after construction and every method is a pure route-then-delegate, so
// thread-safety annotations live entirely inside SimService/ResultCache.
// The lock hierarchy (DESIGN.md section 15) is therefore per shard:
// shard k's SimService::mutex_ before shard k's ResultCache::mutex_, and
// never any lock from another shard.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/scenario_registry.h"
#include "service/service.h"

namespace mobitherm::service {

class ShardedService : public ServiceApi {
 public:
  /// Builds `shards` independent SimService pools, each configured with
  /// `config` and a copy of `registry`. Throws util::ConfigError when
  /// `shards` is 0.
  ShardedService(const ScenarioRegistry& registry, const ServiceConfig& config,
                 unsigned shards);

  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }

  /// The shard owning a canonical-key hash: fnv1a64(key) % shards. Pure —
  /// same key, same shard, every run.
  unsigned shard_of_key(std::uint64_t key) const {
    return static_cast<unsigned>(key % shards_.size());
  }

  /// The shard a request routes to (resolves it first). Throws
  /// util::ConfigError on an unresolvable request.
  unsigned shard_of(const SimRequest& request) const;

  /// Direct access to one shard's pool (tests, per-shard inspection).
  SimService& shard(unsigned index) { return *shards_.at(index); }
  const SimService& shard(unsigned index) const { return *shards_.at(index); }

  // ServiceApi ---------------------------------------------------------
  SubmitOutcome submit(const SimRequest& request,
                       double deadline_s = -1.0) override;

  /// Compare jobs route by the *compare* canonical key — one resolution
  /// on shard 0, then fnv1a64(compare canonical) % shards — so a repeated
  /// comparison lands on the shard that holds its cached verdict. The
  /// verdict is a pure function of the ordered per-seed results, so it is
  /// byte-identical at any shard count; only which shard's cache warms up
  /// differs (per-(arm, seed) lanes cache on the compare job's shard).
  SubmitOutcome submit_compare(const CompareRequest& request,
                               double deadline_s = -1.0) override;

  std::optional<JobStatus> status(std::uint64_t id) override;
  std::shared_ptr<const JobResult> result(std::uint64_t id) const override;
  bool cancel(std::uint64_t id) override;
  bool wait(std::uint64_t id, double timeout_s) override;

  /// Fleet rollup: counters sum across shards; `workers` and
  /// `queue_capacity` are fleet totals; `faults_injected` is read from the
  /// shared plan once (not summed — every shard sees the same plan).
  ServiceStats stats() const override;

  /// One ServiceStats per shard, in shard order.
  std::vector<ServiceStats> shard_stats() const override;

  const ScenarioRegistry& registry() const override {
    return shards_.front()->registry();
  }

 private:
  /// Globalize a shard-local job id (and the reverse).
  std::uint64_t global_id(std::uint64_t local, unsigned shard) const {
    return local * shards_.size() + shard;
  }

  std::vector<std::unique_ptr<SimService>> shards_;
};

}  // namespace mobitherm::service
