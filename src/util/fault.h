// Deterministic fault injection for robustness testing.
//
// A FaultPlan is a seeded schedule of artificial failures: each named
// injection site (queue admission, worker crash around a slice, cache
// payload corruption, slice latency, malformed server response) fires with
// a configured probability, but the decision is a *pure hash* of
// (seed, site, key) — not a shared mutable PRNG — so the schedule is
// byte-reproducible regardless of thread interleaving: the same seed and
// the same request keys produce the same injected failures, the same
// retries, and the same final payloads on every run (including under
// TSan). Sites without a natural key (admission order, response lines)
// use a per-site sequence counter instead.
//
// Cost contract: a disabled plan (the default) is a single predictable
// branch per probe and never locks, allocates, or touches the journal;
// holders pass `nullptr` to skip even that. bench/micro_fault pins this.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/sync.h"

namespace mobitherm::util {

/// Named injection sites, one per failure mode the service layer handles.
enum class FaultSite : int {
  kQueueAdmission = 0,       // submit(): reject an admissible request
  kWorkerCrashBeforeSlice,   // worker: throw before running a slice
  kWorkerCrashAfterSlice,    // worker: throw after running a slice
  kCacheCorruption,          // cache: flip a stored payload byte
  kSliceLatency,             // worker: sleep before a slice (deadline fuel)
  kMalformedResponse,        // server: truncate the response line
};

inline constexpr int kNumFaultSites = 6;

/// Stable lowercase site name ("admission", "crash_before", ...); also the
/// spec-string key accepted by FaultPlan::parse().
const char* to_string(FaultSite site);

/// Thrown by instrumented code when a crash-style site fires. Carries the
/// site so the service can classify the failure as retryable.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(FaultSite site);
  FaultSite site() const { return site_; }

 private:
  FaultSite site_;
};

struct FaultPlanConfig {
  std::uint64_t seed = 0;
  /// Per-site firing probability in [0, 1]; indexed by FaultSite.
  double probability[kNumFaultSites] = {0, 0, 0, 0, 0, 0};
  /// Sleep injected when kSliceLatency fires.
  double latency_s = 0.05;
  /// Journal entries retained (oldest dropped beyond this).
  std::size_t journal_capacity = 4096;
};

class FaultPlan {
 public:
  /// A default-constructed plan is disabled: no site ever fires.
  FaultPlan() = default;
  explicit FaultPlan(const FaultPlanConfig& config);

  /// Parse a spec string like
  ///   "seed=7,admission=0.1,crash_before=0.3,crash_after=0.2,
  ///    corrupt=0.5,latency=0.25,latency_s=0.02,malformed=0.2"
  /// (whitespace-free, comma-separated key=value). Unknown keys and
  /// out-of-range probabilities throw util::ConfigError.
  static FaultPlan parse(const std::string& spec);

  /// parse() without constructing the plan — for callers that need to
  /// build the (non-copyable) plan conditionally.
  static FaultPlanConfig parse_config(const std::string& spec);

  /// True when any site has a nonzero probability.
  bool enabled() const { return enabled_; }

  std::uint64_t seed() const { return config_.seed; }
  double probability(FaultSite site) const;
  double latency_s() const { return config_.latency_s; }

  /// Re-arm one site at runtime (tests stage scenarios this way: warm a
  /// cache with injection off, then arm a crash site). NOT thread-safe
  /// against concurrent probes — only call while no instrumented code is
  /// running.
  void set_probability(FaultSite site, double probability);

  /// The pure injection decision for `site` at `key`: a hash of
  /// (seed, site, key) compared against the site probability. Stateless —
  /// callable from any thread, same answer every time.
  bool should_inject(FaultSite site, std::uint64_t key) const;

  /// should_inject() plus bookkeeping: when the site fires, the per-site
  /// counter is bumped and (site, key) is appended to the journal. This is
  /// the probe instrumented code calls; on the disabled path it is a
  /// single branch.
  bool fires(FaultSite site, std::uint64_t key);

  /// Monotonic per-site sequence number, for sites keyed by call order
  /// (admission, response lines) rather than by request content.
  std::uint64_t next_sequence(FaultSite site);

  /// Deterministic jitter factor in [0.5, 1.5) for retry backoff, derived
  /// from (seed, key) — reproducible, but decorrelated across jobs.
  double jitter(std::uint64_t key) const;

  std::uint64_t injected(FaultSite site) const;
  std::uint64_t total_injected() const;

  struct Event {
    FaultSite site;
    std::uint64_t key;
  };

  /// Snapshot of the fired injections, oldest first.
  std::vector<Event> journal() const;

  /// The journal rendered "site@hexkey;site@hexkey;...": the byte string
  /// the determinism tests compare across runs.
  std::string journal_string() const;

  /// Clear counters and journal (probabilities and seed stay).
  void reset();

 private:
  FaultPlanConfig config_;
  bool enabled_ = false;
  std::atomic<std::uint64_t> fired_[kNumFaultSites] = {};
  std::atomic<std::uint64_t> sequence_[kNumFaultSites] = {};
  /// A leaf of DESIGN.md section 15's hierarchy: taken under
  /// SimService::mutex_ and ResultCache::mutex_, and held across no call.
  mutable Mutex journal_mutex_;
  std::vector<Event> journal_ GUARDED_BY(journal_mutex_);
};

}  // namespace mobitherm::util
