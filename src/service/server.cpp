#include "service/server.h"

#include <cmath>
#include <cstdint>
#include <exception>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <utility>

#include "power/model_registry.h"
#include "sim/compare.h"
#include "workload/pack.h"

namespace mobitherm::service {

namespace json = util::json;

namespace {

json::Value error_object(const std::string& code,
                         const std::string& message) {
  json::Value err = json::Value::object();
  err.set("code", json::Value::string(code));
  err.set("message", json::Value::string(message));
  return err;
}

std::string error_response(const std::string& op, const std::string& code,
                           const std::string& message) {
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(false));
  if (!op.empty()) {
    out.set("op", json::Value::string(op));
  }
  out.set("error", error_object(code, message));
  return out.dump();
}

/// Reads an optional member, enforcing its type. Returns false when the
/// member is absent; throws json::ParseError on a type mismatch.
bool read_number(const json::Value& request, const std::string& key,
                 double* value) {
  const json::Value* v = request.find(key);
  if (v == nullptr || v->is_null()) {
    return false;
  }
  *value = v->as_number();
  return true;
}

/// Bounds of the protocol's integer fields. Seeds and job ids stop at 2^53,
/// the largest integer a JSON number (a double) carries exactly; counts
/// stop at INT_MAX.
constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;
constexpr int kMaxInt = std::numeric_limits<int>::max();

/// Reads an optional integer member bounded to [lo, hi] into `*value`,
/// which keeps its default when the member is absent. Returns an error
/// message, "" when absent or valid; throws json::ParseError on a type
/// mismatch like read_number. Both checks run on the double, so a
/// fractional or out-of-range number is rejected before any cast.
template <typename Int>
std::string read_integer(const json::Value& request, const std::string& key,
                         Int lo, Int hi, Int* value) {
  double n = 0.0;
  if (!read_number(request, key, &n)) {
    return "";
  }
  if (!(n >= static_cast<double>(lo) && n <= static_cast<double>(hi)) ||
      n != std::floor(n)) {
    return key + " must be an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]";
  }
  *value = static_cast<Int>(n);
  return "";
}

/// Reads an optional number member that must be finite and at most `hi`
/// into `*value`, which keeps its default when the member is absent.
/// Returns an error message, "" when absent or valid; throws
/// json::ParseError on a type mismatch like read_number. The comparison
/// fails for NaN and for both infinities.
std::string read_finite_at_most(const json::Value& request,
                                const std::string& key, double hi,
                                double* value) {
  double n = 0.0;
  if (!read_number(request, key, &n)) {
    return "";
  }
  if (!(n >= std::numeric_limits<double>::lowest() && n <= hi)) {
    return key + " must be a finite number <= " + json::format_number(hi);
  }
  *value = n;
  return "";
}

bool read_bool(const json::Value& request, const std::string& key,
               bool* value) {
  const json::Value* v = request.find(key);
  if (v == nullptr || v->is_null()) {
    return false;
  }
  *value = v->as_bool();
  return true;
}

bool read_string(const json::Value& request, const std::string& key,
                 std::string* value) {
  const json::Value* v = request.find(key);
  if (v == nullptr || v->is_null()) {
    return false;
  }
  *value = v->as_string();
  return true;
}

/// Reads the shared SimRequest members from a JSON object (a submit
/// request or one compare arm). Returns an error message, "" on success;
/// throws json::ParseError on type mismatches like the read_* helpers.
std::string read_request_fields(const json::Value& v, SimRequest* req) {
  if (!read_string(v, "scenario", &req->scenario)) {
    return "missing required field: scenario";
  }
  read_string(v, "app", &req->app);
  read_string(v, "policy", &req->policy);
  read_string(v, "power_model", &req->power_model);
  read_bool(v, "with_bml", &req->with_bml);
  read_number(v, "duration_s", &req->duration_s);
  read_number(v, "initial_temp_c", &req->initial_temp_c);
  const std::string seed_error = read_integer(
      v, "seed", std::uint64_t{0}, kMaxExactInteger, &req->seed);
  if (!seed_error.empty()) {
    return seed_error;
  }
  const std::string levels_error = read_integer(
      v, "app_levels", 1, static_cast<int>(workload::kMaxAppPhases),
      &req->app_levels);
  if (!levels_error.empty()) {
    return levels_error;
  }
  read_number(v, "app_phase_s", &req->app_phase_s);
  return "";
}

/// The "job" member, validated as an integer id in [0, 2^53].
std::uint64_t job_id(const json::Value& request) {
  const json::Value* v = request.find("job");
  if (v == nullptr || v->is_null()) {
    throw json::ParseError("missing required field: job");
  }
  std::uint64_t id = 0;
  const std::string error =
      read_integer(request, "job", std::uint64_t{0}, kMaxExactInteger, &id);
  if (!error.empty()) {
    throw json::ParseError(error);
  }
  return id;
}

/// Failure detail for a terminal-but-not-done job: the structured error
/// object plus injection metadata when the failure was injected.
json::Value job_error_object(const JobStatus& s) {
  json::Value err = error_object(
      s.error_code.empty() ? errc::kInternal : s.error_code, s.error);
  if (!s.fault_site.empty()) {
    err.set("site", json::Value::string(s.fault_site));
  }
  if (s.attempts > 0) {
    err.set("attempts",
            json::Value::number(static_cast<double>(s.attempts)));
  }
  return err;
}

/// Writes an admission's outcome into `out`: the job id with its cached
/// and stale flags, or the structured rejection error.
void set_admission(json::Value& out, const SubmitOutcome& outcome) {
  if (outcome.accepted) {
    out.set("job", json::Value::number(static_cast<double>(outcome.id)));
    out.set("cached", json::Value::boolean(outcome.cached));
    out.set("stale", json::Value::boolean(outcome.stale));
  } else {
    out.set("error", error_object(outcome.reject_code.empty()
                                      ? errc::kInternal
                                      : outcome.reject_code,
                                  outcome.reject_reason));
  }
}

json::Value status_value(const JobStatus& s) {
  json::Value out = json::Value::object();
  out.set("job", json::Value::number(static_cast<double>(s.id)));
  out.set("state", json::Value::string(to_string(s.state)));
  out.set("from_cache", json::Value::boolean(s.from_cache));
  out.set("stale", json::Value::boolean(s.stale));
  out.set("attempts", json::Value::number(static_cast<double>(s.attempts)));
  if (!s.error.empty()) {
    out.set("error", job_error_object(s));
  }
  out.set("canonical", json::Value::string(s.canonical));
  return out;
}

/// The answer for a job id the service holds no job for: `job_retired`
/// for an id it admitted and has since retired, `unknown_job` otherwise.
std::string missing_job_response(const std::string& op,
                                 const SimService& service,
                                 std::uint64_t id) {
  if (service.retired(id)) {
    return error_response(op, errc::kJobRetired,
                          "job retired: " + std::to_string(id));
  }
  return error_response(op, errc::kUnknownJob,
                        "unknown job: " + std::to_string(id));
}

}  // namespace

std::string SimServer::handle_line(const std::string& line) {
  if (line.size() > kMaxLineBytes) {
    return finish_response(error_response(
        "", errc::kOversizedLine,
        "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes"));
  }
  json::Value request;
  try {
    request = json::Value::parse(line);
  } catch (const std::exception& e) {
    return finish_response(error_response(
        "", errc::kParseError, std::string("parse error: ") + e.what()));
  }
  if (!request.is_object()) {
    return finish_response(error_response(
        "", errc::kBadRequest, "request must be a JSON object"));
  }
  std::string op;
  try {
    if (!read_string(request, "op", &op)) {
      return finish_response(error_response(
          "", errc::kBadRequest, "missing required field: op"));
    }
    if (op == "submit") {
      return finish_response(handle_submit(request));
    }
    if (op == "compare") {
      return finish_response(handle_compare(request));
    }
    if (op == "status") {
      return finish_response(handle_status(request));
    }
    if (op == "result") {
      return finish_response(handle_result(request));
    }
    if (op == "cancel") {
      return finish_response(handle_cancel(request));
    }
    if (op == "wait") {
      return finish_response(handle_wait(request));
    }
    if (op == "stats") {
      return finish_response(handle_stats());
    }
    if (op == "scenarios") {
      return finish_response(handle_scenarios());
    }
    if (op == "shutdown") {
      shutdown_requested_ = true;
      json::Value out = json::Value::object();
      out.set("ok", json::Value::boolean(true));
      out.set("op", json::Value::string("shutdown"));
      return finish_response(out.dump());
    }
    return finish_response(
        error_response(op, errc::kUnknownOp, "unknown op: " + op));
  } catch (const json::ParseError& e) {
    return finish_response(error_response(op, errc::kBadRequest, e.what()));
  } catch (const std::exception& e) {
    return finish_response(error_response(op, errc::kInternal, e.what()));
  }
}

std::string SimServer::handle_submit(const json::Value& request) {
  SimRequest req;
  const std::string field_error = read_request_fields(request, &req);
  if (!field_error.empty()) {
    return error_response("submit", errc::kBadRequest, field_error);
  }
  double deadline_s = -1.0;
  const std::string deadline_error = read_finite_at_most(
      request, "deadline_s", kMaxWaitSeconds, &deadline_s);
  if (!deadline_error.empty()) {
    return error_response("submit", errc::kBadRequest, deadline_error);
  }

  // Fan submit: "seeds": N fans the request over seeds seed..seed+N-1 in
  // one request line; every lane is an ordinary submit.
  std::size_t seeds = 1;
  const std::string seeds_error = read_integer(
      request, "seeds", std::size_t{1}, kMaxFanSeeds, &seeds);
  if (!seeds_error.empty()) {
    return error_response("submit", errc::kBadRequest, seeds_error);
  }
  // Every lane's seed must be one a plain submit can ask for.
  if (req.seed + (seeds - 1) > kMaxExactInteger) {
    return error_response("submit", errc::kBadRequest,
                          "seed + seeds - 1 must be at most " +
                              std::to_string(kMaxExactInteger));
  }
  if (seeds > 1) {
    return handle_submit_many(req, seeds, deadline_s);
  }

  const SubmitOutcome outcome = service_.submit(req, deadline_s);
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(outcome.accepted));
  out.set("op", json::Value::string("submit"));
  set_admission(out, outcome);
  return out.dump();
}

std::string SimServer::handle_submit_many(const SimRequest& request,
                                          std::size_t seeds,
                                          double deadline_s) {
  // Lane k is the request at seed + k, admitted in lane order like a
  // plain submit. ok reflects the fan as a whole; per-lane outcomes carry
  // their own accept/reject detail in lane (seed) order.
  bool all_accepted = true;
  json::Value jobs = json::Value::array();
  SimRequest lane_request = request;
  for (std::size_t k = 0; k < seeds; ++k) {
    lane_request.seed = request.seed + static_cast<std::uint64_t>(k);
    const SubmitOutcome outcome = service_.submit(lane_request, deadline_s);
    json::Value lane = json::Value::object();
    lane.set("accepted", json::Value::boolean(outcome.accepted));
    set_admission(lane, outcome);
    all_accepted = all_accepted && outcome.accepted;
    jobs.push(lane);
  }
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(all_accepted));
  out.set("op", json::Value::string("submit"));
  out.set("seeds", json::Value::number(static_cast<double>(seeds)));
  out.set("jobs", jobs);
  return out.dump();
}

std::string SimServer::handle_compare(const json::Value& request) {
  const json::Value* arms = request.find("arms");
  if (arms == nullptr || !arms->is_array()) {
    return error_response("compare", errc::kBadRequest,
                          "compare requires an \"arms\" array");
  }
  CompareRequest cmp;
  cmp.arms.reserve(arms->items().size());
  for (const json::Value& item : arms->items()) {
    if (!item.is_object()) {
      return error_response("compare", errc::kBadRequest,
                            "every compare arm must be an object");
    }
    CompareArmRequest arm;
    const std::string field_error = read_request_fields(item, &arm.request);
    if (!field_error.empty()) {
      return error_response("compare", errc::kBadRequest,
                            "arm " + std::to_string(cmp.arms.size()) + ": " +
                                field_error);
    }
    read_string(item, "name", &arm.name);
    cmp.arms.push_back(std::move(arm));
  }
  read_string(request, "metric", &cmp.metric);
  read_number(request, "confidence", &cmp.confidence);
  for (const auto& [key, value] :
       {std::pair<const char*, int*>{"max_seeds", &cmp.max_seeds},
        std::pair<const char*, int*>{"round_seeds", &cmp.round_seeds},
        std::pair<const char*, int*>{"min_seeds", &cmp.min_seeds}}) {
    const std::string int_error = read_integer(request, key, 1, kMaxInt, value);
    if (!int_error.empty()) {
      return error_response("compare", errc::kBadRequest, int_error);
    }
  }
  // Two arms that never separate run the whole budget, so one request
  // line may ask for no more runs than the widest fan.
  if (cmp.arms.size() * static_cast<std::size_t>(cmp.max_seeds) >
      kMaxFanSeeds) {
    return error_response("compare", errc::kBadRequest,
                          "arms x max_seeds must be at most " +
                              std::to_string(kMaxFanSeeds));
  }
  const std::string seed_error = read_integer(
      request, "base_seed", std::uint64_t{0}, kMaxExactInteger, &cmp.base_seed);
  if (!seed_error.empty()) {
    return error_response("compare", errc::kBadRequest, seed_error);
  }
  double deadline_s = -1.0;
  const std::string deadline_error = read_finite_at_most(
      request, "deadline_s", kMaxWaitSeconds, &deadline_s);
  if (!deadline_error.empty()) {
    return error_response("compare", errc::kBadRequest, deadline_error);
  }

  const SubmitOutcome outcome = service_.submit_compare(cmp, deadline_s);
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(outcome.accepted));
  out.set("op", json::Value::string("compare"));
  set_admission(out, outcome);
  return out.dump();
}

std::string SimServer::handle_status(const json::Value& request) {
  const std::uint64_t id = job_id(request);
  const auto status = service_.status(id);
  if (!status) {
    return missing_job_response("status", service_, id);
  }
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(true));
  out.set("op", json::Value::string("status"));
  // Bound to a local: members() returns a reference into the value, and a
  // temporary would be destroyed before the loop body runs (UB pre-C++23).
  const json::Value fields = status_value(*status);
  for (const auto& [key, value] : fields.members()) {
    out.set(key, value);
  }
  return out.dump();
}

std::string SimServer::handle_result(const json::Value& request) {
  const std::uint64_t id = job_id(request);
  const auto status = service_.status(id);
  if (!status) {
    return missing_job_response("result", service_, id);
  }
  if (status->state != JobState::kDone) {
    json::Value out = json::Value::object();
    out.set("ok", json::Value::boolean(false));
    out.set("op", json::Value::string("result"));
    out.set("job", json::Value::number(static_cast<double>(id)));
    out.set("state", json::Value::string(to_string(status->state)));
    json::Value err = job_error_object(*status);
    err.set("code", json::Value::string(errc::kNotDone));
    err.set("message",
            json::Value::string(std::string("job is ") +
                                to_string(status->state) + ", not done" +
                                (status->error.empty()
                                     ? ""
                                     : " (" + status->error + ")")));
    out.set("error", std::move(err));
    return out.dump();
  }
  const std::shared_ptr<const JobResult> result = service_.result(id);
  if (!result) {
    // Retired since the status read above.
    return missing_job_response("result", service_, id);
  }
  // The stored payload is spliced in verbatim (not re-serialized), so a
  // cache hit's response bytes match the original run's exactly. New
  // members must stay *before* "result": clients slice the payload out
  // from that marker.
  std::string out = "{\"ok\":true,\"op\":\"result\",\"job\":";
  out += std::to_string(id);
  out += ",\"state\":\"done\",\"from_cache\":";
  out += status->from_cache ? "true" : "false";
  out += ",\"stale\":";
  out += status->stale ? "true" : "false";
  out += ",\"result\":";
  out += result->payload;
  out += "}";
  return out;
}

std::string SimServer::handle_cancel(const json::Value& request) {
  const std::uint64_t id = job_id(request);
  const bool cancelled = service_.cancel(id);
  if (!cancelled && !service_.status(id)) {
    return missing_job_response("cancel", service_, id);
  }
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(true));
  out.set("op", json::Value::string("cancel"));
  out.set("job", json::Value::number(static_cast<double>(id)));
  out.set("cancelled", json::Value::boolean(cancelled));
  return out.dump();
}

std::string SimServer::handle_wait(const json::Value& request) {
  const std::uint64_t id = job_id(request);
  double timeout_s = 60.0;
  const std::string timeout_error =
      read_finite_at_most(request, "timeout_s", kMaxWaitSeconds, &timeout_s);
  if (!timeout_error.empty()) {
    return error_response("wait", errc::kBadRequest, timeout_error);
  }
  // The wait op blocks the serving thread by contract; net_server.h
  // documents the caveat and tells clients to keep timeouts short.
  // LOCKCHECK: ok(wait op blocks by contract, documented in net_server.h)
  const bool done = service_.wait(id, timeout_s);
  const auto status = service_.status(id);
  if (!status) {
    return missing_job_response("wait", service_, id);
  }
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(true));
  out.set("op", json::Value::string("wait"));
  out.set("job", json::Value::number(static_cast<double>(id)));
  out.set("done", json::Value::boolean(done));
  out.set("state", json::Value::string(to_string(status->state)));
  return out.dump();
}

std::string SimServer::handle_stats() {
  const ServiceStats s = service_.stats();
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(true));
  out.set("op", json::Value::string("stats"));
  out.set("submitted", json::Value::number(static_cast<double>(s.submitted)));
  out.set("rejected", json::Value::number(static_cast<double>(s.rejected)));
  out.set("completed", json::Value::number(static_cast<double>(s.completed)));
  out.set("failed", json::Value::number(static_cast<double>(s.failed)));
  out.set("cancelled", json::Value::number(static_cast<double>(s.cancelled)));
  out.set("expired", json::Value::number(static_cast<double>(s.expired)));
  out.set("retries", json::Value::number(static_cast<double>(s.retries)));
  out.set("stale_served",
          json::Value::number(static_cast<double>(s.stale_served)));
  out.set("faults_injected",
          json::Value::number(static_cast<double>(s.faults_injected)));
  out.set("queued", json::Value::number(static_cast<double>(s.queued)));
  out.set("retry_backlog",
          json::Value::number(static_cast<double>(s.retry_backlog)));
  out.set("running", json::Value::number(static_cast<double>(s.running)));
  out.set("compares", json::Value::number(static_cast<double>(s.compares)));
  out.set("compare_rounds",
          json::Value::number(static_cast<double>(s.compare_rounds)));
  out.set("compare_lane_runs",
          json::Value::number(static_cast<double>(s.compare_lane_runs)));
  out.set("compare_lane_hits",
          json::Value::number(static_cast<double>(s.compare_lane_hits)));
  out.set("compare_early_stops",
          json::Value::number(static_cast<double>(s.compare_early_stops)));
  out.set("workers", json::Value::number(static_cast<double>(s.workers)));
  out.set("queue_capacity",
          json::Value::number(static_cast<double>(s.queue_capacity)));
  json::Value cache = json::Value::object();
  cache.set("hits", json::Value::number(static_cast<double>(s.cache.hits)));
  cache.set("misses",
            json::Value::number(static_cast<double>(s.cache.misses)));
  cache.set("evictions",
            json::Value::number(static_cast<double>(s.cache.evictions)));
  cache.set("collisions",
            json::Value::number(static_cast<double>(s.cache.collisions)));
  cache.set("corruptions",
            json::Value::number(static_cast<double>(s.cache.corruptions)));
  cache.set("stale_hits",
            json::Value::number(static_cast<double>(s.cache.stale_hits)));
  cache.set("size", json::Value::number(static_cast<double>(s.cache.size)));
  cache.set("stale_size",
            json::Value::number(static_cast<double>(s.cache.stale_size)));
  cache.set("capacity",
            json::Value::number(static_cast<double>(s.cache.capacity)));
  out.set("cache", cache);
  return out.dump();
}

std::string SimServer::handle_scenarios() {
  const ScenarioRegistry& registry = service_.registry();
  json::Value out = json::Value::object();
  out.set("ok", json::Value::boolean(true));
  out.set("op", json::Value::string("scenarios"));
  json::Value list = json::Value::array();
  for (const std::string& name : registry.names()) {
    const ScenarioRegistry::Entry& entry = registry.at(name);
    json::Value e = json::Value::object();
    e.set("name", json::Value::string(entry.name));
    e.set("description", json::Value::string(entry.description));
    e.set("platform", json::Value::string(entry.platform));
    e.set("default_duration_s",
          json::Value::number(entry.default_duration_s));
    e.set("default_initial_temp_c",
          json::Value::number(entry.default_initial_temp_c));
    e.set("default_app", json::Value::string(entry.default_app));
    e.set("default_policy", json::Value::string(entry.default_policy));
    json::Value policies = json::Value::array();
    for (const std::string& p : entry.policies) {
      policies.push(json::Value::string(p));
    }
    e.set("policies", policies);
    json::Value apps = json::Value::array();
    for (const std::string& a : entry.apps) {
      apps.push(json::Value::string(a));
    }
    e.set("apps", apps);
    list.push(e);
  }
  out.set("scenarios", list);
  // Attached workload packs (name, content hash, qualified app names).
  json::Value packs = json::Value::array();
  if (const workload::PackSet* set = registry.packs()) {
    for (const std::string& pack_name : set->pack_names()) {
      const workload::WorkloadPack* pack = set->find(pack_name);
      json::Value p = json::Value::object();
      p.set("name", json::Value::string(pack->name));
      p.set("description", json::Value::string(pack->description));
      p.set("content_hash", json::Value::string(pack->content_hash_hex()));
      json::Value apps = json::Value::array();
      for (const workload::AppSpec& spec : pack->apps) {
        apps.push(json::Value::string(pack->name + "/" + spec.name));
      }
      p.set("apps", apps);
      packs.push(p);
    }
  }
  out.set("packs", packs);
  // Registered power/leakage model strategies.
  json::Value models = json::Value::array();
  const power::ModelRegistry& model_registry =
      power::standard_model_registry();
  for (const std::string& model_name : model_registry.names()) {
    json::Value m = json::Value::object();
    m.set("name", json::Value::string(model_name));
    m.set("description",
          json::Value::string(model_registry.at(model_name).description));
    models.push(m);
  }
  out.set("models", models);
  // The verdict metrics the compare op accepts, stable order.
  json::Value metrics = json::Value::array();
  for (const std::string& name : sim::compare_metric_names()) {
    metrics.push(json::Value::string(name));
  }
  out.set("compare_metrics", metrics);
  return out.dump();
}

std::string SimServer::finish_response(std::string response) {
  if (faults_ != nullptr &&
      faults_->fires(
          util::FaultSite::kMalformedResponse,
          faults_->next_sequence(util::FaultSite::kMalformedResponse))) {
    // Drop the second half of the line — the client sees unparseable
    // JSON (but still a newline-terminated line) and must retry.
    response.resize(response.size() / 2);
  }
  return response;
}

bool SimServer::is_blank_line(const std::string& line) {
  return line.size() <= kMaxLineBytes &&
         line.find_first_not_of(" \t\r") == std::string::npos;
}

void SimServer::serve(std::istream& in, std::ostream& out) {
  // Framed by hand so a line costs at most kMaxLineBytes + 1 bytes; the
  // kept prefix still makes handle_line answer oversized_line. A line
  // loses one trailing '\r' as on the socket, unless bytes were dropped.
  constexpr int kEof = std::char_traits<char>::eof();
  std::streambuf* buf = in.rdbuf();
  std::string line;
  while (!shutdown_requested_ && buf->sgetc() != kEof) {
    line.clear();
    bool cut = false;
    for (int c = buf->sbumpc(); c != kEof && c != '\n'; c = buf->sbumpc()) {
      if (line.size() <= kMaxLineBytes) {
        line.push_back(static_cast<char>(c));
      } else {
        cut = true;
      }
    }
    if (!cut && !line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (!is_blank_line(line)) {
      out << handle_line(line) << "\n";
      out.flush();
    }
  }
}

}  // namespace mobitherm::service
