// NDJSON request/response front end for SimService.
//
// One request per line, one response per line, both compact JSON objects.
// The protocol is deliberately flat so `echo '{"op":...}' | mobitherm_serve`
// works from a shell, and cached `result` responses embed the stored
// payload *verbatim* — a cache hit is byte-identical to the response the
// original run produced.
//
// Ops (request fields beyond "op" in parentheses):
//   submit    (scenario, app?, policy?, with_bml?, duration_s?,
//              initial_temp_c?, seed?, seeds?, app_levels?, app_phase_s?,
//              deadline_s?)            -> {ok, job, cached, stale}
//             With "seeds": N (2 <= N <= kMaxFanSeeds) the submit is a
//             *fan*: lanes seed..seed+N-1 are admitted in lane order, each
//             exactly as a plain submit of that seed, and the response is
//             {ok, seeds, jobs:[{accepted, job|error, cached, stale}...]}
//             in lane order; "ok" is true iff every lane was accepted.
//   compare   (arms:[{scenario, app?, policy?, with_bml?, duration_s?,
//              initial_temp_c?, app_levels?, app_phase_s?, name?}, ...],
//              metric?, confidence?, max_seeds?, round_seeds?,
//              min_seeds?, base_seed?, deadline_s?)
//                                      -> {ok, job, cached, stale}
//             Admits a best-arm policy comparison as ONE job: >= 2 arms
//             run round-by-round over a shared seed schedule derived
//             from base_seed (common random numbers — the arms' own
//             "seed" fields are ignored) and stop early once the best
//             arm's confidence interval separates from every rival's.
//             The job's `result` payload is the verdict
//             {compare:{metric, winner, separated, early_stop, rounds,
//             seeds_per_arm, arms:[{name, mean, ci95, stddev, n}...]}}.
//             Per-(arm, seed) runs share the result cache with plain
//             submits, so overlapping or repeated comparisons are nearly
//             free; the verdict itself is cached and byte-identical on a
//             repeat. metric is one of "median_fps" (higher wins),
//             "peak_temp_c" / "mean_power_w" (lower wins).
//   status    (job)                    -> {ok, job, state, from_cache, ...}
//   result    (job)                    -> {ok, job, state, result:{...}}
//   cancel    (job)                    -> {ok, job, cancelled}
//             cancelled is false for a job that has already finished.
//   wait      (job, timeout_s?)        -> {ok, job, done, state}
//             These four answer an id the service has retired (see
//             kMaxTerminalJobs and kMaxReadJobs in service.h) with a
//             job_retired error, and an id it never admitted with an
//             unknown_job error.
//   stats     ()                       -> {ok, submitted, completed,
//              queued, retry_backlog, running, ..., cache:{hits, misses,
//              evictions, ...}} — the service's counters, with the compare
//              counters (compares, compare_rounds, compare_lane_runs/hits,
//              compare_early_stops) alongside
//   scenarios ()                       -> {ok, scenarios:[...],
//              compare_metrics:[...]}
//   shutdown  ()                       -> {ok} and the serve loop exits
//
// Integer fields must be integers within range, or the request is a
// bad_request: seed, base_seed and job in [0, 2^53]; max_seeds,
// min_seeds and round_seeds in [1, INT_MAX]; app_levels in
// [1, workload::kMaxAppPhases]; seeds in [1, kMaxFanSeeds]. A fan's last
// lane, seed + seeds - 1, must be at most 2^53, and a compare's run
// budget, arms x max_seeds, at most kMaxFanSeeds. deadline_s and
// timeout_s must be finite and at most kMaxWaitSeconds, or the request is
// a bad_request. duration_s outside [1, kMaxDurationS] is rejected at
// admission as an invalid_request (scenario_registry.h).
//
// Every response carries "ok" and echoes "op". Failures are structured:
//   {"ok":false,"op":...,"error":{"code":"...","message":"..."}}
// with "site" and "attempts" members added when a job failed under fault
// injection. No input line terminates the loop (only EOF or `shutdown`
// do), and no input line may crash the server — the malformed-input corpus
// test feeds it truncated JSON, wrong types, deep nesting and oversized
// lines and expects a structured error for every one.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "service/service.h"
#include "util/fault.h"
#include "util/json.h"

namespace mobitherm::service {

/// Upper bound on one request line: the bytes before its '\n' less one
/// trailing '\r', on either transport. Longer lines are answered with an
/// `oversized_line` error without being parsed (bounds parser memory).
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Upper bound, in seconds, on a request's "deadline_s" and a wait's
/// "timeout_s" (one day); a larger or non-finite value is a `bad_request`.
/// Keeps the conversion to clock ticks in range.
inline constexpr double kMaxWaitSeconds = 86400.0;

class SimServer {
 public:
  /// `faults` optionally arms the kMalformedResponse injection site,
  /// which truncates responses mid-line to exercise client-side recovery;
  /// non-owning, nullptr = never injected.
  explicit SimServer(SimService& service, util::FaultPlan* faults = nullptr)
      : service_(service), faults_(faults) {}

  /// Handle one request line, returning the response line (no trailing
  /// newline). Never throws: malformed input yields an ok:false response.
  std::string handle_line(const std::string& line);

  /// True once a `shutdown` request has been handled, on any thread.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Read NDJSON requests from `in` until EOF or `shutdown`, writing one
  /// response line per request to `out` (flushed per line). Lines frame
  /// as on the socket (LineSession). The pump takes what the stream
  /// already holds and waits for one byte at most, so a client that
  /// writes one line and waits for its answer gets it.
  void serve(std::istream& in, std::ostream& out);

 private:
  std::string handle_submit(const util::json::Value& request);
  std::string handle_submit_many(const SimRequest& request,
                                 std::size_t seeds, double deadline_s);
  std::string handle_compare(const util::json::Value& request);
  std::string handle_status(const util::json::Value& request);
  std::string handle_result(const util::json::Value& request);
  std::string handle_cancel(const util::json::Value& request);
  std::string handle_wait(const util::json::Value& request);
  std::string handle_stats();
  std::string handle_scenarios();

  /// Applies the kMalformedResponse site: with the plan armed and firing,
  /// the response is truncated mid-line (still one line, no longer valid
  /// JSON), modeling a connection dropped mid-write.
  std::string finish_response(std::string response);

  SimService& service_;
  util::FaultPlan* faults_;
  // Set by handle_line, which each socket connection calls on its own
  // thread.
  std::atomic<bool> shutdown_requested_{false};
};

/// The framing rule of both transports, fed one connection's (or the
/// stdin pipe's) bytes in whatever chunks they arrive:
///   - a line is the bytes before its '\n' less one trailing '\r';
///   - a blank line (only spaces, tabs and CRs) gets no response;
///   - a line longer than kMaxLineBytes is answered `oversized_line`
///     once, as soon as its length is known, and its bytes are discarded
///     up to its newline; at most kMaxLineBytes + 2 bytes of a line are
///     kept;
///   - at end of input, a last line with no '\n' is answered.
/// Framing stops once a `shutdown` has been handled. Not thread-safe: one
/// session per connection.
class LineSession {
 public:
  explicit LineSession(SimServer& server) : server_(server) {}

  /// Requests answered by one call, and how many of them were oversized.
  struct Tally {
    std::uint64_t lines = 0;
    std::uint64_t oversized = 0;
  };

  /// Frames `bytes`, appending to `out` one '\n'-ended response per
  /// request line they complete.
  Tally feed(std::string_view bytes, std::string& out);

  /// End of input: answers a last line that has no '\n'.
  Tally finish(std::string& out);

 private:
  void answer(std::string& out, Tally& tally);

  SimServer& server_;
  std::string line_;  // the current line's bytes so far
  bool discarding_ = false;  // inside an oversized line already answered
};

}  // namespace mobitherm::service
