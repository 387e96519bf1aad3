// SimService: the long-lived request-serving layer over the sim core.
//
// Combines the three service pieces into one admission-controlled
// pipeline:
//
//   submit(request)
//     -> resolve against the ScenarioRegistry (reject unknown requests)
//     -> cache lookup by canonical-request hash (hit: done immediately,
//        byte-identical payload, zero simulation work)
//     -> bounded job queue (full: serve a stale cached result when one
//        exists, else reject with a reason — backpressure is explicit,
//        the queue never grows without bound)
//   worker pool (N threads)
//     -> builds the engine from the registry, runs it in one-simulated-
//        second slices, honoring the per-job deadline and the cooperative
//        cancellation token (checked every tick inside Engine::run, and
//        again after the final partial slice)
//     -> summarizes (RunMetrics + RunReport), serializes the canonical
//        payload, stores it in the LRU result cache
//
// Graceful degradation (PR 5): transient failures (the FaultPlan's
// injected crashes — the stand-in for real worker deaths) are retried with
// exponential backoff, deterministic jitter and a bounded attempt budget;
// when retries are exhausted, or the queue is saturated, a previously
// evicted cache entry is served marked `stale` rather than failing the
// job. Deterministic failures (sim::SimError numerical guards, config
// errors) are never retried — a pure function that failed once fails
// again. Every failure carries a machine-readable code, the fault site and
// the attempt count.
//
// Compare jobs (PR 9): submit_compare() admits a best-arm policy
// comparison (sim/compare.h) as one job. A worker runs it on
// sim::run_compare_rounds(), the loop CompareRunner uses too; the service
// supplies only the round, which serves each per-(arm, seed) lane from
// the result cache or runs it as sliced work — cooperative with the job's
// deadline and cancellation token exactly like submit. A round's missed
// lanes run on every idle worker of the pool, not only on the one running
// the job: a worker with no queued job and no due retry runs the round's
// next lane, one lane at a time. Lanes are cached under the same
// canonical keys a direct submit of that (arm, seed) request would use,
// so refinement re-runs and overlapping comparisons are nearly free, and
// the verdict payload itself is cached under the compare canonical key.
// The verdict is a pure function of the ordered per-seed results: replays
// are byte-identical at any worker count or injected-fault schedule.
//
// Determinism note: job *results* are pure functions of the canonical
// request. Queueing order, worker interleaving, deadlines and wall-clock
// timings are inherently nondeterministic — they affect only *whether/when*
// a job completes, never what a completed job computes. With a seeded
// FaultPlan, *which* failures are injected is likewise a pure function of
// (seed, site, request key, attempt), so fault schedules replay exactly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/result_cache.h"
#include "service/scenario_registry.h"
#include "sim/compare.h"
#include "sim/metrics.h"
#include "util/fault.h"
#include "util/sync.h"

namespace mobitherm::service {

/// Machine-readable error codes attached to rejections and failed jobs.
namespace errc {
inline constexpr const char* kInvalidRequest = "invalid_request";
inline constexpr const char* kQueueFull = "queue_full";
inline constexpr const char* kShuttingDown = "shutting_down";
inline constexpr const char* kInjectedFault = "injected_fault";
inline constexpr const char* kDeadlineQueued = "deadline_queued";
inline constexpr const char* kDeadlineRunning = "deadline_running";
inline constexpr const char* kCancelled = "cancelled";
inline constexpr const char* kSimRunaway = "sim_runaway";
inline constexpr const char* kSimNonFinite = "sim_non_finite";
inline constexpr const char* kInternal = "internal_error";
// Protocol-level codes used by the NDJSON server.
inline constexpr const char* kParseError = "parse_error";
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kUnknownOp = "unknown_op";
inline constexpr const char* kUnknownJob = "unknown_job";
inline constexpr const char* kJobRetired = "job_retired";
inline constexpr const char* kNotDone = "not_done";
inline constexpr const char* kOversizedLine = "oversized_line";
}  // namespace errc

/// Upper bound on a submit's "seeds" fan width and on a compare's
/// arms x max_seeds; a wider fan or a larger budget is a `bad_request`.
/// Bounds a fan's response line to about 100 KB, and the runs one request
/// line can ask for.
inline constexpr std::size_t kMaxFanSeeds = 1024;

/// Terminal jobs the service keeps; past it, the job that has been
/// terminal longest is retired. Every lane of any admissible fan can
/// still be collected.
inline constexpr std::size_t kMaxTerminalJobs = kMaxFanSeeds;

/// Read jobs the service keeps: once result() has returned a job's
/// result, the job is retired after this many later jobs have been read.
inline constexpr std::size_t kMaxReadJobs = 64;

struct ServiceConfig {
  /// Worker threads running simulations.
  unsigned workers = 1;
  /// Maximum jobs waiting in the queue (excluding running ones); a submit
  /// that would exceed it is rejected with a reason.
  std::size_t queue_capacity = 16;
  /// Result-cache capacity (entries); 0 disables caching.
  std::size_t cache_capacity = 64;
  /// Default per-job deadline (wall seconds from submit); <= 0 = none.
  double default_deadline_s = 0.0;
  /// Summary options applied to every job.
  sim::MetricsOptions metrics;

  /// Execution attempts per job (>= 1). Only transient failures
  /// (util::FaultInjected) consume retries; deterministic failures fail
  /// on the first attempt.
  int max_attempts = 3;
  /// Backoff before attempt k+1 is base * 2^(k-1), capped at max, then
  /// scaled by the FaultPlan's deterministic jitter in [0.5, 1.5).
  double retry_backoff_s = 0.05;
  double retry_backoff_max_s = 2.0;
  /// Serve checksum-clean *evicted* cache entries, marked stale, when the
  /// queue is saturated or a job exhausts its retries.
  bool serve_stale = true;
  /// Engine runaway guard applied to every job (degC); <= 0 disables.
  /// Healthy paper scenarios peak far below 150 degC, so the default only
  /// trips on genuinely divergent dynamics (Sec. IV-A).
  double guard_max_temp_c = 150.0;
  /// Deterministic fault injection; non-owning, nullptr = disabled (the
  /// plan must outlive the service).
  util::FaultPlan* faults = nullptr;
};

enum class JobState {
  kQueued,
  kRunning,
  kDone,
  kFailed,     // scenario factory / summarization threw
  kCancelled,  // cancel() or service shutdown
  kExpired,    // deadline passed while queued or running
};

const char* to_string(JobState state);

/// True for states a job can never leave.
bool is_terminal(JobState state);

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t id = 0;      // valid when accepted
  bool cached = false;       // served from the result cache (already done)
  bool stale = false;        // served from the stale store (degraded)
  std::string reject_reason; // set when !accepted
  std::string reject_code;   // errc::* code, set when !accepted
};

struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  bool from_cache = false;
  bool stale = false;        // degraded completion from the stale store
  int attempts = 0;          // execution attempts consumed so far
  std::string error;         // failure/expiry/cancel detail
  std::string error_code;    // errc::* code ("" while healthy)
  std::string fault_site;    // injection site name when error_code is
                             // errc::kInjectedFault
  std::string canonical;     // canonical request key
};

struct ServiceStats {
  std::size_t submitted = 0;   // accepted submissions (incl. cache hits)
  std::size_t rejected = 0;    // backpressure or invalid requests
  std::size_t completed = 0;   // kDone jobs, incl. cache-served ones
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t expired = 0;
  std::size_t retries = 0;       // re-queued attempts after failures
  std::size_t stale_served = 0;  // degraded completions from stale entries
  std::size_t queued = 0;      // current depth (incl. backoff waiters)
  /// Of `queued`, the jobs waiting out a retry backoff rather than in the
  /// admission queue proper — split out so saturation is diagnosable.
  std::size_t retry_backlog = 0;
  std::size_t running = 0;     // currently simulating
  /// Compare jobs admitted (incl. cache-served verdicts), decision rounds
  /// executed, per-(arm, seed) lane executions vs. cache-served lanes, and
  /// compares that stopped on CI separation before the seed budget.
  std::size_t compares = 0;
  std::size_t compare_rounds = 0;
  std::size_t compare_lane_runs = 0;
  std::size_t compare_lane_hits = 0;
  std::size_t compare_early_stops = 0;
  unsigned workers = 0;
  std::size_t queue_capacity = 0;
  /// Total injections fired by the attached FaultPlan (0 when none).
  std::uint64_t faults_injected = 0;
  CacheStats cache;
};

/// One arm of a policy comparison: a request variant plus its verdict
/// label. `request.seed` is ignored — the compare job's seed schedule
/// supplies every per-sample seed (common random numbers across arms).
struct CompareArmRequest {
  SimRequest request;
  /// Verdict label; empty derives "<policy>" (+"+bml") from resolution.
  std::string name;
};

/// A best-arm comparison (the service face of sim/compare.h): K arms
/// evaluated round by round on a shared seed schedule until the best
/// arm's confidence interval separates from every rival's or the per-arm
/// seed budget is exhausted.
struct CompareRequest : sim::CompareRule {
  std::vector<CompareArmRequest> arms;  // >= 2
  /// Verdict metric: one of sim::compare_metric_names() ("median_fps",
  /// "peak_temp_c", "mean_power_w"); the metric fixes the direction.
  std::string metric = "median_fps";
};

class SimService {
 public:
  explicit SimService(ScenarioRegistry registry, ServiceConfig config = {});

  /// Cancels queued and running jobs, then joins the workers.
  ~SimService();

  SimService(const SimService&) = delete;
  SimService& operator=(const SimService&) = delete;

  /// Admit a request. An invalid request (unknown scenario/app/policy) or
  /// a full queue rejects with a reason + code; a cache hit completes the
  /// job immediately; a full queue with a stale entry available completes
  /// immediately with `stale` set. `deadline_s` < 0 uses the config
  /// default.
  SubmitOutcome submit(const SimRequest& request, double deadline_s = -1.0);

  /// Admit a best-arm comparison as one job; the verdict is fetched with
  /// result() once the job is done. Admission mirrors submit(): a cached
  /// verdict completes the job immediately and byte-identically, a full
  /// queue degrades to a stale verdict or rejects, and the job then runs
  /// rounds of per-(arm, seed) lanes as sliced work under the usual
  /// deadline/cancellation/retry machinery.
  SubmitOutcome submit_compare(const CompareRequest& request,
                               double deadline_s = -1.0);

  /// Snapshot of a job's state; nullopt for unknown and retired ids.
  /// Lazily expires queued jobs whose deadline has passed.
  std::optional<JobStatus> status(std::uint64_t id);

  /// The job's result; nullptr unless the job is kDone. The first read
  /// counts the job as read: it is retired once kMaxReadJobs later jobs
  /// have been read.
  std::shared_ptr<const JobResult> result(std::uint64_t id);

  /// True for an id the service admitted and has since retired (ids are
  /// monotonic, so an id below the next one with no job was retired).
  bool retired(std::uint64_t id) const;

  /// Request cancellation. Queued jobs (including backoff waiters) cancel
  /// immediately; running jobs stop at their next tick. Returns false for
  /// unknown, retired or already terminal jobs.
  bool cancel(std::uint64_t id);

  /// Block until the job reaches a terminal state or `timeout_s` elapses.
  /// Returns true when terminal, false on timeout or a missing job.
  bool wait(std::uint64_t id, double timeout_s);

  ServiceStats stats() const;

  const ScenarioRegistry& registry() const { return registry_; }
  const ServiceConfig& config() const { return config_; }

 private:
  /// Concurrency contract, field by field:
  ///  * `id`, `resolved`, `key`, `canonical`, `deadline` are written once
  ///    during admission (under mutex_) and immutable afterwards — the
  ///    executing worker reads them without the lock;
  ///  * `stop` is the lock-free cancellation token (atomic);
  ///  * everything else (state, error*, result, attempts, from_cache,
  ///    stale) is mutated only under SimService::mutex_. Clang's analysis
  ///    cannot express "guarded by the owning service's mutex" without a
  ///    back pointer, so this half of the contract stays prose — but every
  ///    mutation site lives in a REQUIRES(mutex_) helper or under a
  ///    MutexLock, and mobilint's lock rules check the lock discipline of
  ///    those helpers.
  struct Job {
    std::uint64_t id = 0;
    SimRequest resolved;
    /// Set for compare jobs (resolved spec; `resolved` is then unused).
    /// Written once during admission, immutable afterwards, like the
    /// fields below.
    std::shared_ptr<const CompareRequest> compare;
    std::uint64_t key = 0;
    std::string canonical;
    JobState state = JobState::kQueued;
    bool from_cache = false;
    bool stale = false;
    int attempts = 0;
    std::string error;
    std::string error_code;
    std::string fault_site;
    std::shared_ptr<const JobResult> result;
    /// Set by the first result() that returns the result.
    bool read = false;
    /// The job's entry in terminal_order_, once terminal.
    std::list<std::uint64_t>::iterator terminal_pos;
    std::atomic<bool> stop{false};
    /// Wall-clock deadline; nullopt = none.
    std::optional<std::chrono::steady_clock::time_point> deadline;
  };

  /// What one execution attempt produced for one job, settled under the
  /// mutex by settle_locked() (shared by plain and compare jobs so retry /
  /// stale-fallback / failure semantics are identical).
  struct ExecOutcome {
    std::shared_ptr<JobResult> result;
    bool cancelled = false;
    bool expired = false;
    std::string error;
    std::string error_code;
    std::string fault_site;
    bool retryable = false;
  };

  void worker_loop();
  void execute(const std::shared_ptr<Job>& job, int attempt);

  /// Run one resolved request as deadline/stop-cooperative slices on the
  /// calling worker (the shared core of execute() and compare lanes).
  /// Returns the finished result (not yet cached), or nullptr with
  /// out.cancelled/out.expired set; throws on faults and engine errors.
  /// `fault_key` seeds the per-slice fault sites — the job's canonical
  /// hash for plain jobs, the lane's own canonical hash for compare
  /// lanes, so injected schedules stay pure in (request, attempt, slice).
  std::shared_ptr<JobResult> run_resolved_sliced(const SimRequest& resolved,
                                                 std::uint64_t fault_key,
                                                 int attempt, const Job& job,
                                                 ExecOutcome& out);

  /// One compare round's cache-missed lanes, published in open_rounds_
  /// so that idle workers run them beside the owner (the worker running
  /// the compare job), on whose stack the record lives for the round.
  ///  * `job`, `attempt` and each lane's `request`, `key` and `canonical`
  ///    are written before publication and immutable afterwards;
  ///  * a lane's `result`, `error`, `cancelled` and `expired` are written
  ///    without the lock by the one worker that claimed the lane, and
  ///    read by the owner once `running` is back to 0;
  ///  * `next`, `running` and `halted` change only under
  ///    SimService::mutex_ (prose, as for Job).
  struct LaneRound {
    struct Lane {
      SimRequest request;
      std::uint64_t key = 0;
      std::string canonical;
      std::shared_ptr<const JobResult> result;
      std::exception_ptr error;
      bool cancelled = false;
      bool expired = false;
    };
    const Job* job = nullptr;
    int attempt = 0;
    std::vector<Lane> lanes;
    /// Lanes are claimed in index order; `next` is the lowest unclaimed.
    std::size_t next = 0;
    /// Claimed lanes not yet settled.
    std::size_t running = 0;
    /// Set when a lane failed or stopped: no further lane is claimed.
    bool halted = false;
    /// The owner waits here for `running` to reach 0.
    util::CondVar settled;
  };

  /// Run a compare job: sim::run_compare_rounds() over rounds of
  /// per-(arm, seed) lanes. Each round looks every lane up in the cache,
  /// in lane order, then publishes the misses as one LaneRound: the owner
  /// claims lanes in index order while idle workers claim the next one,
  /// and the owner waits for the claimed lanes to settle before handing
  /// the round's values on, arm-major. The failure rule is
  /// sim::parallel_for_index's: no lane is claimed after one fails or
  /// stops, claimed lanes run to completion, and the lowest failing or
  /// stopped lane decides the attempt, as a serial loop would. The
  /// verdict payload is cached under the job's compare key.
  void execute_compare(const std::shared_ptr<Job>& job, int attempt);

  /// Claim `round`'s next lane; closes the round once every lane is
  /// claimed.
  std::size_t claim_lane_locked(LaneRound& round) REQUIRES(mutex_);

  /// Run one claimed lane without the lock: its result is cached, and
  /// its failure or stop recorded in the lane.
  void run_lane(LaneRound& round, std::size_t index);

  /// Settle a lane run_lane() finished: halts the round when the lane
  /// failed or stopped, and wakes the owner once no lane is running.
  void settle_lane_locked(LaneRound& round, std::size_t index)
      REQUIRES(mutex_);

  /// Drops `round` from open_rounds_; a no-op when it is not there.
  void close_round_locked(LaneRound& round) REQUIRES(mutex_);

  /// Map the in-flight exception to an ExecOutcome (call inside catch).
  static void classify_current_exception(ExecOutcome& out);

  /// Counts and returns an invalid_request rejection.
  SubmitOutcome reject_invalid(std::string reason);

  /// Shared admission core of submit() and submit_compare(): cache
  /// lookup, shutdown/backpressure handling, job creation and queueing for
  /// one (key, canonical) unit of work. `compare` non-null admits a compare job (`resolved` unused).
  SubmitOutcome admit_unit(std::uint64_t key, std::string canonical,
                           SimRequest resolved,
                           std::shared_ptr<const CompareRequest> compare,
                           double deadline_s);

  /// Apply one attempt's outcome to the job: success / cancel / expiry
  /// finish it; a retryable failure re-queues it with backoff; otherwise
  /// stale-fallback or kFailed.
  void settle_locked(const std::shared_ptr<Job>& job, int attempt,
                     ExecOutcome& out) REQUIRES(mutex_);

  /// Backoff before the attempt after `attempt` failed (exponential in
  /// the attempt number, deterministically jittered per job).
  double retry_backoff_s(int attempt, std::uint64_t key) const;

  /// Moves a queued job past its deadline to kExpired (the worker skips
  /// non-queued jobs on pop); returns true if it expired.
  bool expire_if_overdue_locked(const std::shared_ptr<Job>& job)
      REQUIRES(mutex_);

  /// Terminal-state bookkeeping + waiter wakeup; retires the job that has
  /// been terminal longest once more than kMaxTerminalJobs are.
  void finish_locked(const std::shared_ptr<Job>& job, JobState state,
                     const std::string& error) REQUIRES(mutex_);

  /// Drops a terminal job from the table; a no-op for an id already gone.
  void retire_locked(std::uint64_t id) REQUIRES(mutex_);

  ScenarioRegistry registry_;
  ServiceConfig config_;
  ResultCache cache_;

  /// Lock order: mutex_ may be held while acquiring ResultCache::mutex_
  /// (settle_locked's stale lookup), never the reverse — the cache takes
  /// no locks of its own while called. Checked by mobilint's lock rules;
  /// documented in DESIGN.md section 15.
  mutable util::Mutex mutex_;
  util::CondVar work_cv_;  // workers: queue / retries / shutdown
  util::CondVar done_cv_;  // waiters: job completion
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_ GUARDED_BY(mutex_);
  std::deque<std::shared_ptr<Job>> queue_ GUARDED_BY(mutex_);
  /// Jobs waiting out a retry backoff, keyed by their due time.
  std::multimap<std::chrono::steady_clock::time_point,
                std::shared_ptr<Job>>
      retries_ GUARDED_BY(mutex_);
  /// Terminal jobs' ids, the one terminal longest first.
  std::list<std::uint64_t> terminal_order_ GUARDED_BY(mutex_);
  /// Compare rounds with a lane left to claim, oldest first: what a
  /// worker with no queued job and no due retry helps with.
  std::deque<LaneRound*> open_rounds_ GUARDED_BY(mutex_);
  /// Read jobs' ids, in the order of their first read; at most
  /// kMaxReadJobs once a read has settled.
  std::deque<std::uint64_t> read_order_ GUARDED_BY(mutex_);
  std::uint64_t next_id_ GUARDED_BY(mutex_) = 1;
  bool shutting_down_ GUARDED_BY(mutex_) = false;

  // Counters guarded by mutex_.
  std::size_t submitted_ GUARDED_BY(mutex_) = 0;
  std::size_t rejected_ GUARDED_BY(mutex_) = 0;
  std::size_t completed_ GUARDED_BY(mutex_) = 0;
  std::size_t failed_ GUARDED_BY(mutex_) = 0;
  std::size_t cancelled_ GUARDED_BY(mutex_) = 0;
  std::size_t expired_ GUARDED_BY(mutex_) = 0;
  std::size_t retry_count_ GUARDED_BY(mutex_) = 0;
  std::size_t stale_served_ GUARDED_BY(mutex_) = 0;
  std::size_t running_ GUARDED_BY(mutex_) = 0;
  std::size_t compares_ GUARDED_BY(mutex_) = 0;
  std::size_t compare_rounds_ GUARDED_BY(mutex_) = 0;
  std::size_t compare_lane_runs_ GUARDED_BY(mutex_) = 0;
  std::size_t compare_lane_hits_ GUARDED_BY(mutex_) = 0;
  std::size_t compare_early_stops_ GUARDED_BY(mutex_) = 0;

  /// Started in the constructor, joined in the destructor; the vector
  /// itself is touched by no other thread.
  std::vector<std::thread> workers_;
};

}  // namespace mobitherm::service
