// Deterministic, content-addressed result cache.
//
// Every simulation run is bit-deterministic in its canonical request (PR
// 1-3 guarantee identical traces for identical seeds, serial or parallel),
// which turns memoization into the biggest throughput lever the service
// has: a repeated request is a hash lookup instead of a multi-second
// simulation, and the cached payload is *byte-identical* to what a fresh
// run would serialize. The cache is a bounded LRU keyed by the FNV-1a hash
// of the canonical request string; the full string is stored alongside each
// entry and compared on lookup, so a 64-bit hash collision degrades to a
// miss instead of serving the wrong run. Thread-safe; counters feed the
// service `stats` op.
//
// Integrity and degradation:
//  * when a fault plan is attached (the only in-process writer that can
//    damage a stored copy, via the kCacheCorruption site), every entry
//    stores an FNV-1a checksum of its payload, computed outside the lock,
//    and lookup verifies it: a corrupted payload is dropped and counted,
//    never served. Without a plan, entries are immutable after insert, so
//    neither insert nor the hit path pays the O(payload) hash;
//  * entries evicted from the primary LRU move to a same-sized *stale*
//    side-store. lookup_stale() serves them (marked, checksummed) so the
//    service can answer `stale: true` instead of failing outright when the
//    pool is saturated or a job exhausts its retries.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "sim/metrics.h"
#include "sim/report.h"
#include "util/fault.h"
#include "util/sync.h"

namespace mobitherm::service {

/// A completed run: its summaries plus the canonical serialized payload
/// (util/json.h) that the NDJSON `result` op embeds verbatim.
struct JobResult {
  sim::RunMetrics metrics;
  sim::RunReport report;
  std::string payload;
};

/// Serialize metrics + report into the canonical result payload. Field
/// order and number formatting are fixed, so equal inputs give equal bytes.
std::string serialize_result(const sim::RunMetrics& metrics,
                             const sim::RunReport& report);

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  /// Lookups whose hash matched but whose canonical string did not.
  std::size_t collisions = 0;
  /// Entries whose payload failed its checksum on lookup (dropped).
  std::size_t corruptions = 0;
  /// lookup_stale() calls that served an evicted entry.
  std::size_t stale_hits = 0;
  std::size_t size = 0;
  std::size_t stale_size = 0;
  std::size_t capacity = 0;
};

class ResultCache {
 public:
  /// `capacity` bounds the number of retained results; 0 disables caching
  /// (every lookup misses, inserts are dropped). `faults` optionally arms
  /// the kCacheCorruption injection site (nullptr = no injection).
  explicit ResultCache(std::size_t capacity,
                       util::FaultPlan* faults = nullptr);

  /// Returns the cached result for (key, canonical) and marks it most
  /// recently used; nullptr on miss. A checksum mismatch drops the entry
  /// and misses.
  std::shared_ptr<const JobResult> lookup(std::uint64_t key,
                                          const std::string& canonical);

  /// Returns a previously *evicted* result for (key, canonical), checksum
  /// verified; nullptr when none is held. The degradation path: callers
  /// must surface the result as stale.
  std::shared_ptr<const JobResult> lookup_stale(std::uint64_t key,
                                                const std::string& canonical);

  /// Insert a result, evicting the least recently used entry (into the
  /// stale store) when full. Re-inserting an existing key refreshes its
  /// value and recency.
  void insert(std::uint64_t key, const std::string& canonical,
              std::shared_ptr<const JobResult> result);

  CacheStats stats() const;

 private:
  struct Node {
    std::uint64_t key;
    std::string canonical;
    std::shared_ptr<const JobResult> result;
    /// FNV-1a of result->payload at insert time; 0, and never read,
    /// without a fault plan.
    std::uint64_t checksum;
  };

  /// Moves the primary LRU tail into the stale store.
  void evict_to_stale_locked() REQUIRES(mutex_);

  /// Lock order: callers holding SimService::mutex_ may acquire this
  /// mutex, and only through lookup_stale (admit_unit and settle_locked);
  /// insert is never called under it. The one lock taken under this mutex
  /// is the leaf FaultPlan::journal_mutex_ (insert's kCacheCorruption
  /// probe), so the order is acyclic. See DESIGN.md section 15 and
  /// mobilint's lock-order-cycle rule.
  mutable util::Mutex mutex_;
  std::size_t capacity_;       // immutable after construction
  util::FaultPlan* faults_;    // immutable after construction
  /// MRU at the front, LRU at the back.
  std::list<Node> lru_ GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::list<Node>::iterator> index_
      GUARDED_BY(mutex_);
  /// Evicted entries, newest eviction first; bounded by capacity_.
  std::list<Node> stale_ GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::list<Node>::iterator> stale_index_
      GUARDED_BY(mutex_);
  CacheStats counters_ GUARDED_BY(mutex_);
};

}  // namespace mobitherm::service
