#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "sim/compare.h"
#include "sim/report.h"
#include "sim/sim_error.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/units.h"

namespace mobitherm::service {

namespace json = util::json;

namespace {

// Simulated seconds per engine slice. Slicing does not change results
// (run(1.0) twice == run(2.0), tick for tick); it only bounds how long a
// running job can overshoot its deadline.
constexpr double kSliceSimSeconds = 1.0;

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Decision key for per-slice fault sites: a pure mix of the job's
/// canonical-request hash, the attempt number and the slice index, so the
/// injected schedule is independent of worker interleaving.
std::uint64_t slice_fault_key(std::uint64_t job_key, int attempt,
                              std::uint64_t slice_index) {
  return util::derive_seed(
      util::derive_seed(job_key, static_cast<std::uint64_t>(attempt)),
      slice_index);
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
    case JobState::kExpired:
      return "expired";
  }
  return "unknown";
}

bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

SimService::SimService(ScenarioRegistry registry, ServiceConfig config)
    : registry_(std::move(registry)),
      config_(config),
      cache_(config.cache_capacity, config.faults) {
  if (config_.workers == 0) {
    throw util::ConfigError("SimService: workers must be positive");
  }
  if (config_.max_attempts < 1) {
    throw util::ConfigError("SimService: max_attempts must be >= 1");
  }
  if (config_.retry_backoff_s < 0.0 || config_.retry_backoff_max_s < 0.0) {
    throw util::ConfigError("SimService: retry backoff must be nonnegative");
  }
  workers_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SimService::~SimService() {
  {
    util::MutexLock lock(mutex_);
    shutting_down_ = true;
    std::vector<std::shared_ptr<Job>> queued;
    for (auto& [id, job] : jobs_) {
      (void)id;
      if (job->state == JobState::kQueued) {
        queued.push_back(job);
      } else if (job->state == JobState::kRunning) {
        job->stop.store(true, std::memory_order_relaxed);
      }
    }
    // Finished after the walk: finish_locked may retire jobs from jobs_.
    for (const std::shared_ptr<Job>& job : queued) {
      finish_locked(job, JobState::kCancelled, "service shutdown");
      job->error_code = errc::kShuttingDown;
    }
    queue_.clear();
    retries_.clear();
  }
  work_cv_.notify_all();
  done_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

SubmitOutcome SimService::submit(const SimRequest& request,
                                 double deadline_s) {
  SimRequest resolved;
  std::string canonical;
  try {
    resolved = registry_.resolve(request);
    canonical = registry_.canonical_key(resolved);
  } catch (const std::exception& e) {
    return reject_invalid(e.what());
  }
  const std::uint64_t key = fnv1a64(canonical);
  return admit_unit(key, std::move(canonical), std::move(resolved), nullptr,
                    deadline_s);
}

SubmitOutcome SimService::reject_invalid(std::string reason) {
  util::MutexLock lock(mutex_);
  ++rejected_;
  SubmitOutcome out;
  out.reject_reason = std::move(reason);
  out.reject_code = errc::kInvalidRequest;
  return out;
}

SubmitOutcome SimService::admit_unit(
    std::uint64_t key, std::string canonical, SimRequest resolved,
    std::shared_ptr<const CompareRequest> compare, double deadline_s) {
  std::shared_ptr<const JobResult> cached = cache_.lookup(key, canonical);

  util::MutexLock lock(mutex_);
  if (shutting_down_) {
    ++rejected_;
    SubmitOutcome out;
    out.reject_reason = "service is shutting down";
    out.reject_code = errc::kShuttingDown;
    return out;
  }
  if (!cached && config_.faults != nullptr &&
      config_.faults->fires(
          util::FaultSite::kQueueAdmission,
          config_.faults->next_sequence(util::FaultSite::kQueueAdmission))) {
    ++rejected_;
    SubmitOutcome out;
    out.reject_reason = "queue admission failed (injected fault)";
    out.reject_code = errc::kInjectedFault;
    return out;
  }
  std::shared_ptr<const JobResult> stale;
  if (!cached && queue_.size() >= config_.queue_capacity) {
    // Saturated pool: degrade to a stale hit when we have one, otherwise
    // reject — explicit backpressure either way.
    if (config_.serve_stale) {
      stale = cache_.lookup_stale(key, canonical);
    }
    if (!stale) {
      ++rejected_;
      SubmitOutcome out;
      out.reject_reason = "queue full (" + std::to_string(queue_.size()) +
                          " jobs pending, capacity " +
                          std::to_string(config_.queue_capacity) + ")";
      out.reject_code = errc::kQueueFull;
      return out;
    }
  }

  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->resolved = std::move(resolved);
  job->compare = std::move(compare);
  job->key = key;
  job->canonical = std::move(canonical);
  jobs_[job->id] = job;
  ++submitted_;
  if (job->compare) {
    ++compares_;
  }

  SubmitOutcome out;
  out.accepted = true;
  out.id = job->id;

  if (cached) {
    job->from_cache = true;
    job->result = std::move(cached);
    finish_locked(job, JobState::kDone, "");
    out.cached = true;
    return out;
  }
  if (stale) {
    job->from_cache = true;
    job->stale = true;
    job->result = std::move(stale);
    ++stale_served_;
    finish_locked(job, JobState::kDone, "");
    out.cached = true;
    out.stale = true;
    return out;
  }

  const double effective_deadline =
      deadline_s < 0.0 ? config_.default_deadline_s : deadline_s;
  if (effective_deadline > 0.0) {
    // Wall-clock enters here only: deadlines bound *when* a job may
    // finish, never what a finished job computes.
    job->deadline =  // MOBILINT: nondet-ok (admission deadline, not sim state)
        std::chrono::steady_clock::now() + to_duration(effective_deadline);
  }
  queue_.push_back(std::move(job));
  work_cv_.notify_one();
  return out;
}

SubmitOutcome SimService::submit_compare(const CompareRequest& request,
                                         double deadline_s) {
  CompareRequest spec = request;
  std::string canonical;
  try {
    if (spec.arms.size() < 2) {
      throw util::ConfigError("compare: need at least two arms");
    }
    sim::validate_rule(spec);
    // Validates the metric name (and fixes the direction later).
    (void)sim::compare_metric_higher_is_better(spec.metric);

    // The compare canonical key embeds every option plus each arm's own
    // canonical form at seed 0 — the schedule supplies real seeds, so the
    // arms' seed fields must not distinguish otherwise equal comparisons.
    canonical.reserve(256);
    canonical += "cmp=";
    canonical += kSimCodeVersion;
    canonical += ";metric=";
    canonical += spec.metric;
    canonical += ";confidence=";
    canonical += json::format_number(spec.confidence);
    canonical += ";max_seeds=";
    canonical += std::to_string(spec.max_seeds);
    canonical += ";round_seeds=";
    canonical += std::to_string(spec.round_seeds);
    canonical += ";min_seeds=";
    canonical += std::to_string(spec.min_seeds);
    canonical += ";base_seed=";
    canonical += std::to_string(spec.base_seed);
    canonical += ";arms=";
    canonical += std::to_string(spec.arms.size());
    for (std::size_t a = 0; a < spec.arms.size(); ++a) {
      CompareArmRequest& arm = spec.arms[a];
      arm.request = registry_.resolve(arm.request);
      if (arm.name.empty()) {
        arm.name = arm.request.policy;
        if (arm.request.with_bml) {
          arm.name += "+bml";
        }
      }
      SimRequest keyed = arm.request;
      keyed.seed = 0;
      canonical += ";arm";
      canonical += std::to_string(a);
      canonical += "=";
      // Names appear in the verdict payload, so they are part of the
      // identity; quoting keeps arbitrary labels from forging delimiters.
      canonical += json::quote(arm.name);
      canonical += "@";
      canonical += registry_.canonical_key(keyed);
    }
  } catch (const std::exception& e) {
    return reject_invalid(e.what());
  }
  const std::uint64_t key = fnv1a64(canonical);
  return admit_unit(key, std::move(canonical), SimRequest{},
                    std::make_shared<const CompareRequest>(std::move(spec)),
                    deadline_s);
}

std::optional<JobStatus> SimService::status(std::uint64_t id) {
  util::MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return std::nullopt;
  }
  const std::shared_ptr<Job>& job = it->second;
  expire_if_overdue_locked(job);
  JobStatus s;
  s.id = job->id;
  s.state = job->state;
  s.from_cache = job->from_cache;
  s.stale = job->stale;
  s.attempts = job->attempts;
  s.error = job->error;
  s.error_code = job->error_code;
  s.fault_site = job->fault_site;
  s.canonical = job->canonical;
  return s;
}

std::shared_ptr<const JobResult> SimService::result(std::uint64_t id) {
  util::MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second->state != JobState::kDone) {
    return nullptr;
  }
  Job& job = *it->second;
  std::shared_ptr<const JobResult> result = job.result;
  if (!job.read) {
    job.read = true;
    read_order_.push_back(id);
    if (read_order_.size() > kMaxReadJobs) {
      retire_locked(read_order_.front());
      read_order_.pop_front();
    }
  }
  return result;
}

bool SimService::retired(std::uint64_t id) const {
  util::MutexLock lock(mutex_);
  return id >= 1 && id < next_id_ && jobs_.count(id) == 0;
}

bool SimService::cancel(std::uint64_t id) {
  util::MutexLock lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return false;
  }
  const std::shared_ptr<Job>& job = it->second;
  if (is_terminal(job->state)) {
    return false;
  }
  if (job->state == JobState::kQueued) {
    // The worker skips non-queued jobs when it pops them (from the queue
    // or the retry multimap), so the stale entry is harmless.
    finish_locked(job, JobState::kCancelled, "cancelled while queued");
    job->error_code = errc::kCancelled;
    return true;
  }
  // Running: the worker observes the token at its next tick and finishes
  // the job as kCancelled. Best effort — a job that completes before the
  // next check finishes kDone.
  job->stop.store(true, std::memory_order_relaxed);
  return true;
}

bool SimService::wait(std::uint64_t id, double timeout_s) {
  const auto wait_deadline =  // MOBILINT: nondet-ok (caller timeout)
      std::chrono::steady_clock::now() + to_duration(std::max(0.0, timeout_s));
  util::UniqueLock lock(mutex_);
  for (;;) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return false;
    }
    const std::shared_ptr<Job> job = it->second;
    expire_if_overdue_locked(job);
    if (is_terminal(job->state)) {
      return true;
    }
    const auto now = std::chrono::steady_clock::now();  // MOBILINT: nondet-ok
    if (now >= wait_deadline) {
      return false;
    }
    // Bounded wait so queued-job deadlines are noticed promptly even
    // without completion notifications.
    auto step = wait_deadline - now;
    if (job->deadline && *job->deadline > now) {
      step = std::min(step, *job->deadline - now);
    }
    step = std::min(step, to_duration(0.05));
    done_cv_.wait_for(lock, step);
  }
}

ServiceStats SimService::stats() const {
  ServiceStats s;
  {
    util::MutexLock lock(mutex_);
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.completed = completed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.expired = expired_;
    s.retries = retry_count_;
    s.stale_served = stale_served_;
    s.queued = queue_.size() + retries_.size();
    s.retry_backlog = retries_.size();
    s.running = running_;
    s.compares = compares_;
    s.compare_rounds = compare_rounds_;
    s.compare_lane_runs = compare_lane_runs_;
    s.compare_lane_hits = compare_lane_hits_;
    s.compare_early_stops = compare_early_stops_;
  }
  s.workers = config_.workers;
  s.queue_capacity = config_.queue_capacity;
  if (config_.faults != nullptr) {
    s.faults_injected = config_.faults->total_injected();
  }
  s.cache = cache_.stats();
  return s;
}

void SimService::worker_loop() {
  util::UniqueLock lock(mutex_);
  for (;;) {
    // Wake for shutdown, queued work, or the earliest due retry; help with
    // compare lanes until one of them comes.
    for (;;) {
      if (shutting_down_) {
        return;  // queued jobs were already cancelled by the destructor
      }
      if (!queue_.empty()) {
        break;
      }
      const bool retry_pending = !retries_.empty();
      // A copy: another worker may pop the entry while this one waits.
      const std::chrono::steady_clock::time_point due =
          retry_pending ? retries_.begin()->first
                        : std::chrono::steady_clock::time_point{};
      if (retry_pending &&
          std::chrono::steady_clock::now() >= due) {  // MOBILINT: nondet-ok
        break;
      }
      if (!open_rounds_.empty()) {
        // One lane at a time, so a job queued meanwhile waits for at most
        // one lane.
        LaneRound& round = *open_rounds_.front();
        const std::size_t index = claim_lane_locked(round);
        lock.unlock();
        run_lane(round, index);
        lock.lock();
        settle_lane_locked(round, index);
        continue;
      }
      if (retry_pending) {
        work_cv_.wait_until(lock, due);
      } else {
        work_cv_.wait(lock);
      }
    }
    std::shared_ptr<Job> job;
    if (!retries_.empty() &&
        std::chrono::steady_clock::now() >=  // MOBILINT: nondet-ok
            retries_.begin()->first) {
      job = retries_.begin()->second;
      retries_.erase(retries_.begin());
    } else if (!queue_.empty()) {
      job = std::move(queue_.front());
      queue_.pop_front();
    } else {
      continue;  // woken for a retry that is not due yet
    }
    // Skip jobs that were cancelled or expired while waiting.
    if (job->state != JobState::kQueued || expire_if_overdue_locked(job)) {
      continue;
    }
    job->state = JobState::kRunning;
    ++running_;
    const int attempt = ++job->attempts;
    lock.unlock();
    if (job->compare) {
      execute_compare(job, attempt);
    } else {
      execute(job, attempt);
    }
    lock.lock();
  }
}

std::shared_ptr<JobResult> SimService::run_resolved_sliced(
    const SimRequest& resolved, std::uint64_t fault_key, int attempt,
    const Job& job, ExecOutcome& out) {
  util::FaultPlan* plan = config_.faults;
  std::unique_ptr<sim::Engine> engine = registry_.make_engine(resolved);
  if (config_.guard_max_temp_c > 0.0) {
    // Per-model threshold: baseline keeps the configured guard exactly,
    // alternate models clamp to their re-derived point of no return.
    engine->set_runaway_guard(registry_.runaway_guard_temp_k(
        resolved, config_.guard_max_temp_c));
  }
  double remaining = resolved.duration_s;
  std::uint64_t slice_index = 0;
  while (remaining > 0.0) {
    if (job.stop.load(std::memory_order_relaxed)) {
      out.cancelled = true;
      break;
    }
    if (job.deadline &&
        std::chrono::steady_clock::now() >=  // MOBILINT: nondet-ok
            *job.deadline) {
      out.expired = true;
      break;
    }
    const std::uint64_t fkey = slice_fault_key(fault_key, attempt,
                                               slice_index);
    if (plan != nullptr &&
        plan->fires(util::FaultSite::kWorkerCrashBeforeSlice, fkey)) {
      throw util::FaultInjected(util::FaultSite::kWorkerCrashBeforeSlice);
    }
    if (plan != nullptr &&
        plan->fires(util::FaultSite::kSliceLatency, fkey)) {
      // Injected wall-clock stall (deadline fuel for the tests); the
      // simulated state is untouched.
      std::this_thread::sleep_for(to_duration(plan->latency_s()));
    }
    const double slice = std::min(kSliceSimSeconds, remaining);
    engine->run(slice, &job.stop);
    remaining -= slice;
    if (plan != nullptr &&
        plan->fires(util::FaultSite::kWorkerCrashAfterSlice, fkey)) {
      throw util::FaultInjected(util::FaultSite::kWorkerCrashAfterSlice);
    }
    ++slice_index;
  }
  // The stop token and the deadline must also be honored when they fire
  // during the final (possibly partial) slice — checking only at the
  // top of the loop would let a job whose last slice overshot its
  // deadline complete as if nothing happened.
  if (!out.cancelled && !out.expired) {
    if (job.stop.load(std::memory_order_relaxed)) {
      out.cancelled = true;
    } else if (job.deadline &&
               std::chrono::steady_clock::now() >=  // MOBILINT: nondet-ok
                   *job.deadline) {
      out.expired = true;
    }
  }
  if (out.cancelled || out.expired) {
    return nullptr;
  }
  auto result = std::make_shared<JobResult>();
  result->metrics = sim::summarize_run(*engine, config_.metrics);
  result->report = sim::make_report(*engine, config_.metrics.temp_limit_c);
  result->payload = serialize_result(result->metrics, result->report);
  return result;
}

void SimService::execute(const std::shared_ptr<Job>& job, int attempt) {
  ExecOutcome out;
  try {
    std::shared_ptr<JobResult> result =
        run_resolved_sliced(job->resolved, job->key, attempt, *job, out);
    if (result) {
      cache_.insert(job->key, job->canonical, result);
      out.result = std::move(result);
    }
  } catch (...) {
    classify_current_exception(out);
  }

  util::MutexLock lock(mutex_);
  settle_locked(job, attempt, out);
}

// One compare job: sim::run_compare_rounds() with a round that serves
// each lane from the cache (under its plain-submit canonical key) or runs
// it as deadline/stop-cooperative slices, on this worker and on every
// idle one. A faulted lane aborts the attempt and re-queues the job
// through the usual retry machinery; the finished lanes are cache hits on
// the retry, and the schedule is pure in the base seed.
void SimService::execute_compare(const std::shared_ptr<Job>& job,
                                 int attempt) {
  ExecOutcome out;
  std::size_t rounds = 0;
  std::size_t lane_runs = 0;
  std::size_t lane_hits = 0;
  bool early_stop = false;
  try {
    const CompareRequest& spec = *job->compare;
    const bool higher = sim::compare_metric_higher_is_better(spec.metric);
    std::vector<std::string> names;
    for (const CompareArmRequest& arm : spec.arms) {
      names.push_back(arm.name);
    }
    const sim::CompareResult verdict = sim::run_compare_rounds(
        spec, higher, std::move(names),
        [&](const std::vector<std::uint64_t>& seeds,
            std::vector<double>& values) {
          ++rounds;
          // Slot i (arm-major) is served by hits[i], or else by the
          // round's lane lane_of[i]; a twin is a slot equal to an earlier
          // miss of the round (identical arms), which a serial loop would
          // have found in the cache once that miss had run.
          std::vector<std::shared_ptr<const JobResult>> hits(values.size());
          std::vector<std::size_t> lane_of(values.size());
          std::vector<char> twin(values.size(), 0);
          LaneRound round;
          round.job = job.get();
          round.attempt = attempt;
          for (std::size_t i = 0; i < values.size(); ++i) {
            LaneRound::Lane lane;
            lane.request = spec.arms[i / seeds.size()].request;
            lane.request.seed = seeds[i % seeds.size()];
            lane.canonical = registry_.canonical_key(lane.request);
            lane.key = fnv1a64(lane.canonical);
            const auto same = std::find_if(
                round.lanes.begin(), round.lanes.end(),
                [&](const LaneRound::Lane& other) {
                  return other.key == lane.key &&
                         other.canonical == lane.canonical;
                });
            lane_of[i] = static_cast<std::size_t>(same - round.lanes.begin());
            if (same != round.lanes.end()) {
              twin[i] = 1;
              continue;
            }
            hits[i] = cache_.lookup(lane.key, lane.canonical);
            if (hits[i]) {
              ++lane_hits;
            } else {
              round.lanes.push_back(std::move(lane));
            }
          }
          if (!round.lanes.empty()) {
            util::UniqueLock lock(mutex_);
            open_rounds_.push_back(&round);
            work_cv_.notify_all();
            while (!round.halted && round.next < round.lanes.size()) {
              const std::size_t index = claim_lane_locked(round);
              lock.unlock();
              run_lane(round, index);
              lock.lock();
              settle_lane_locked(round, index);
            }
            while (round.running > 0) {
              round.settled.wait(lock);
            }
            lane_runs += round.next;
          }
          // In slot order, the first lane that failed or stopped decides
          // the attempt, as in a serial loop; no later slot is read.
          for (std::size_t i = 0; i < values.size(); ++i) {
            std::shared_ptr<const JobResult> result = hits[i];
            if (!result) {
              const LaneRound::Lane& lane = round.lanes[lane_of[i]];
              if (lane.error) {
                std::rethrow_exception(lane.error);
              }
              if (lane.cancelled || lane.expired) {
                out.cancelled = lane.cancelled;
                out.expired = lane.expired;
                return false;
              }
              result = lane.result;
              if (twin[i]) {
                ++lane_hits;
                if (std::shared_ptr<const JobResult> cached =
                        cache_.lookup(lane.key, lane.canonical)) {
                  result = std::move(cached);
                }
              }
            }
            values[i] = sim::compare_metric_value(result->metrics, spec.metric);
          }
          return true;
        });
    if (verdict.completed) {
      early_stop = verdict.early_stop;
      // Verdict payload: a pure function of the ordered per-seed results
      // (json formatting is canonical), so replays are byte-identical at
      // any worker count.
      json::Value body = json::Value::object();
      body.set("metric", json::Value::string(spec.metric));
      body.set("higher_is_better", json::Value::boolean(higher));
      body.set("confidence", json::Value::number(spec.confidence));
      body.set("winner", json::Value::string(verdict.names[verdict.best]));
      body.set("winner_index",
               json::Value::number(static_cast<double>(verdict.best)));
      body.set("separated", json::Value::boolean(verdict.separated));
      body.set("early_stop", json::Value::boolean(verdict.early_stop));
      body.set("rounds",
               json::Value::number(static_cast<double>(verdict.rounds)));
      body.set("seeds_per_arm", json::Value::number(static_cast<double>(
                                    verdict.seeds_per_arm)));
      body.set("max_seeds",
               json::Value::number(static_cast<double>(spec.max_seeds)));
      body.set("base_seed",
               json::Value::number(static_cast<double>(spec.base_seed)));
      json::Value arms = json::Value::array();
      for (std::size_t a = 0; a < verdict.arms.size(); ++a) {
        const sim::ArmStats& stats = verdict.arms[a];
        json::Value arm = json::Value::object();
        arm.set("name", json::Value::string(verdict.names[a]));
        arm.set("mean", json::Value::number(stats.mean));
        // Half-width of the two-sided interval at `confidence`; the field
        // name pins the default level, as the issue's verdict shape does.
        arm.set("ci95", json::Value::number(stats.half_width));
        arm.set("stddev", json::Value::number(stats.stddev));
        arm.set("n", json::Value::number(static_cast<double>(stats.n)));
        arms.push(arm);
      }
      body.set("arms", arms);
      json::Value payload = json::Value::object();
      payload.set("compare", body);
      auto result = std::make_shared<JobResult>();
      result->payload = payload.dump();
      cache_.insert(job->key, job->canonical, result);
      out.result = std::move(result);
    }
  } catch (...) {
    classify_current_exception(out);
  }

  util::MutexLock lock(mutex_);
  compare_rounds_ += rounds;
  compare_lane_runs_ += lane_runs;
  compare_lane_hits_ += lane_hits;
  if (out.result != nullptr && early_stop) {
    ++compare_early_stops_;
  }
  settle_locked(job, attempt, out);
}

std::size_t SimService::claim_lane_locked(LaneRound& round) {
  const std::size_t index = round.next++;
  ++round.running;
  if (round.next == round.lanes.size()) {
    close_round_locked(round);
  }
  return index;
}

void SimService::run_lane(LaneRound& round, std::size_t index) {
  LaneRound::Lane& lane = round.lanes[index];
  ExecOutcome stopped;
  try {
    std::shared_ptr<JobResult> fresh = run_resolved_sliced(
        lane.request, lane.key, round.attempt, *round.job, stopped);
    if (fresh) {
      cache_.insert(lane.key, lane.canonical, fresh);
      lane.result = std::move(fresh);
    }
  } catch (...) {
    lane.error = std::current_exception();
  }
  lane.cancelled = stopped.cancelled;
  lane.expired = stopped.expired;
}

void SimService::settle_lane_locked(LaneRound& round, std::size_t index) {
  const LaneRound::Lane& lane = round.lanes[index];
  if (lane.error || lane.cancelled || lane.expired) {
    round.halted = true;
    close_round_locked(round);
  }
  if (--round.running == 0) {
    // Under the lock: the owner may destroy the round once it is 0.
    round.settled.notify_one();
  }
}

void SimService::close_round_locked(LaneRound& round) {
  const auto it = std::find(open_rounds_.begin(), open_rounds_.end(), &round);
  if (it != open_rounds_.end()) {
    open_rounds_.erase(it);
  }
}

void SimService::classify_current_exception(ExecOutcome& out) {
  try {
    throw;
  } catch (const util::FaultInjected& e) {
    out.error = e.what();
    out.error_code = errc::kInjectedFault;
    out.fault_site = util::to_string(e.site());
    out.retryable = true;  // injected faults model transient worker deaths
  } catch (const sim::SimError& e) {
    out.error = e.what();
    out.error_code = e.code() == sim::SimErrorCode::kThermalRunaway
                         ? errc::kSimRunaway
                         : errc::kSimNonFinite;
  } catch (const std::exception& e) {
    out.error = e.what();
    out.error_code = errc::kInternal;
  } catch (...) {
    out.error = "unknown error";
    out.error_code = errc::kInternal;
  }
}

void SimService::settle_locked(const std::shared_ptr<Job>& job, int attempt,
                               ExecOutcome& out) {
  --running_;
  if (out.error.empty()) {
    if (out.cancelled) {
      finish_locked(job, JobState::kCancelled, "cancelled while running");
      job->error_code = errc::kCancelled;
    } else if (out.expired) {
      finish_locked(job, JobState::kExpired,
                    "deadline exceeded while running");
      job->error_code = errc::kDeadlineRunning;
    } else {
      job->result = out.result;
      // A success after retried attempts wipes the transient-failure
      // breadcrumbs; only `attempts` records that the road was bumpy.
      job->error_code.clear();
      job->fault_site.clear();
      finish_locked(job, JobState::kDone, "");
    }
    return;
  }

  job->error_code = out.error_code;
  job->fault_site = out.fault_site;
  if (out.retryable && attempt < config_.max_attempts && !shutting_down_ &&
      !job->stop.load(std::memory_order_relaxed)) {
    ++retry_count_;
    job->state = JobState::kQueued;
    job->error = out.error;  // last failure, visible while backing off
    const auto due =  // MOBILINT: nondet-ok (backoff timer, not sim state)
        std::chrono::steady_clock::now() +
        to_duration(retry_backoff_s(attempt, job->key));
    retries_.emplace(due, job);
    work_cv_.notify_one();
    return;
  }
  // Retries exhausted (or the failure is deterministic): degrade to a
  // stale cached result when we have one, else fail with the code intact.
  if (config_.serve_stale) {
    std::shared_ptr<const JobResult> stale =
        cache_.lookup_stale(job->key, job->canonical);
    if (stale) {
      job->result = std::move(stale);
      job->stale = true;
      job->from_cache = true;
      ++stale_served_;
      finish_locked(job, JobState::kDone, out.error);
      return;
    }
  }
  finish_locked(job, JobState::kFailed, out.error);
}

double SimService::retry_backoff_s(int attempt, std::uint64_t key) const {
  double backoff = config_.retry_backoff_s;
  for (int i = 1; i < attempt; ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, config_.retry_backoff_max_s);
  if (config_.faults != nullptr) {
    backoff *= config_.faults->jitter(
        util::derive_seed(key, static_cast<std::uint64_t>(attempt)));
  }
  return backoff;
}

bool SimService::expire_if_overdue_locked(const std::shared_ptr<Job>& job) {
  if (job->state != JobState::kQueued || !job->deadline) {
    return false;
  }
  if (std::chrono::steady_clock::now() <  // MOBILINT: nondet-ok
      *job->deadline) {
    return false;
  }
  finish_locked(job, JobState::kExpired, "deadline exceeded while queued");
  job->error_code = errc::kDeadlineQueued;
  return true;
}

void SimService::finish_locked(const std::shared_ptr<Job>& job,
                               JobState state, const std::string& error) {
  job->state = state;
  job->error = error;
  switch (state) {
    case JobState::kDone:
      ++completed_;
      break;
    case JobState::kFailed:
      ++failed_;
      break;
    case JobState::kCancelled:
      ++cancelled_;
      break;
    case JobState::kExpired:
      ++expired_;
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;
  }
  job->terminal_pos = terminal_order_.insert(terminal_order_.end(), job->id);
  // The job just finished is last in line, so it is never the one retired.
  if (terminal_order_.size() > kMaxTerminalJobs) {
    retire_locked(terminal_order_.front());
  }
  done_cv_.notify_all();
}

void SimService::retire_locked(std::uint64_t id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return;
  }
  terminal_order_.erase(it->second->terminal_pos);
  jobs_.erase(it);
}

}  // namespace mobitherm::service
