// Error-path offensive for the service layer (PR 5).
//
// Four fronts:
//  * FaultPlan: the seeded injection schedule is a pure function of
//    (seed, site, key) — reproducible across instances, threads and runs.
//  * Protocol: a malformed-input corpus (truncated JSON, wrong types,
//    duplicate keys, deep nesting, oversized lines) must produce a
//    structured error per line, never crash the server, and never leak a
//    job slot; plus a randomized round-trip property test for util::json.
//  * Degradation: transient injected faults are retried with backoff and
//    give up into stale cache hits; corruption is detected by checksum and
//    recomputed; the whole injected schedule replays byte-for-byte.
//  * Numerical guards: runaway aborts at the tick the Sec. IV-A stability
//    analysis predicts; NaN state aborts immediately; the deadline fires
//    even when it lapses during a job's final partial slice.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <thread>
#include <memory>
#include <string>
#include <vector>

#include "platform/soc.h"
#include "service/result_cache.h"
#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/service.h"
#include "sim/engine.h"
#include "sim/sim_error.h"
#include "stability/fixed_point.h"
#include "stability/trajectory.h"
#include "thermal/network.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/app.h"

namespace mobitherm::service {
namespace {

namespace json = util::json;
using util::ConfigError;
using util::FaultPlan;
using util::FaultPlanConfig;
using util::FaultSite;

// --- FaultPlan -------------------------------------------------------------

int site_index(FaultSite site) { return static_cast<int>(site); }

TEST(FaultPlan, DefaultConstructedIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (int i = 0; i < util::kNumFaultSites; ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    EXPECT_FALSE(plan.should_inject(site, 12345));
    EXPECT_FALSE(plan.fires(site, 12345));
  }
  EXPECT_EQ(plan.total_injected(), 0u);
  EXPECT_TRUE(plan.journal().empty());
}

TEST(FaultPlan, ParseSpecString) {
  const FaultPlan plan = FaultPlan::parse(
      "seed=7,admission=0.1,crash_before=0.3,crash_after=0.2,corrupt=0.5,"
      "latency=0.25,latency_s=0.02,malformed=0.15");
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed(), 7u);
  EXPECT_DOUBLE_EQ(plan.probability(FaultSite::kQueueAdmission), 0.1);
  EXPECT_DOUBLE_EQ(plan.probability(FaultSite::kWorkerCrashBeforeSlice), 0.3);
  EXPECT_DOUBLE_EQ(plan.probability(FaultSite::kWorkerCrashAfterSlice), 0.2);
  EXPECT_DOUBLE_EQ(plan.probability(FaultSite::kCacheCorruption), 0.5);
  EXPECT_DOUBLE_EQ(plan.probability(FaultSite::kSliceLatency), 0.25);
  EXPECT_DOUBLE_EQ(plan.probability(FaultSite::kMalformedResponse), 0.15);
  EXPECT_DOUBLE_EQ(plan.latency_s(), 0.02);
}

TEST(FaultPlan, ParseRejectsBadSpecs) {
  EXPECT_THROW(FaultPlan::parse("warp=0.5"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("corrupt"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("corrupt=nope"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("corrupt=1.5"), ConfigError);
  EXPECT_THROW(FaultPlan::parse("latency_s=-1"), ConfigError);
}

TEST(FaultPlan, DecisionIsAPureFunctionOfSeedSiteKey) {
  FaultPlanConfig config;
  config.seed = 99;
  for (int i = 0; i < util::kNumFaultSites; ++i) {
    config.probability[i] = 0.5;
  }
  const FaultPlan a(config);
  const FaultPlan b(config);
  config.seed = 100;
  const FaultPlan c(config);
  int differs = 0;
  for (std::uint64_t key = 0; key < 200; ++key) {
    for (int i = 0; i < util::kNumFaultSites; ++i) {
      const FaultSite site = static_cast<FaultSite>(i);
      EXPECT_EQ(a.should_inject(site, key), b.should_inject(site, key));
      differs += a.should_inject(site, key) != c.should_inject(site, key);
    }
  }
  EXPECT_GT(differs, 0);  // a different seed is a different schedule
}

TEST(FaultPlan, DecisionFrequencyTracksProbability) {
  FaultPlanConfig config;
  config.seed = 3;
  config.probability[site_index(FaultSite::kCacheCorruption)] = 0.3;
  const FaultPlan plan(config);
  int fired = 0;
  for (std::uint64_t key = 0; key < 10000; ++key) {
    fired += plan.should_inject(FaultSite::kCacheCorruption, key);
  }
  EXPECT_NEAR(fired, 3000, 250);
}

TEST(FaultPlan, FiresCountsAndJournals) {
  FaultPlanConfig config;
  config.seed = 1;
  config.probability[site_index(FaultSite::kQueueAdmission)] = 1.0;
  FaultPlan plan(config);
  EXPECT_TRUE(plan.fires(FaultSite::kQueueAdmission, 11));
  EXPECT_TRUE(plan.fires(FaultSite::kQueueAdmission, 22));
  EXPECT_FALSE(plan.fires(FaultSite::kCacheCorruption, 11));  // p = 0
  EXPECT_EQ(plan.injected(FaultSite::kQueueAdmission), 2u);
  EXPECT_EQ(plan.total_injected(), 2u);
  const auto journal = plan.journal();
  ASSERT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal[0].key, 11u);
  EXPECT_EQ(journal[1].key, 22u);
  EXPECT_EQ(plan.journal_string(),
            "admission@000000000000000b;admission@0000000000000016");
  plan.reset();
  EXPECT_EQ(plan.total_injected(), 0u);
  EXPECT_TRUE(plan.journal().empty());
}

TEST(FaultPlan, SequenceCountersAreMonotonicPerSite) {
  FaultPlan plan;
  EXPECT_EQ(plan.next_sequence(FaultSite::kQueueAdmission), 0u);
  EXPECT_EQ(plan.next_sequence(FaultSite::kQueueAdmission), 1u);
  EXPECT_EQ(plan.next_sequence(FaultSite::kMalformedResponse), 0u);
}

TEST(FaultPlan, JitterIsDeterministicAndBounded) {
  FaultPlanConfig config;
  config.seed = 5;
  const FaultPlan a(config);
  const FaultPlan b(config);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const double j = a.jitter(key);
    EXPECT_GE(j, 0.5);
    EXPECT_LT(j, 1.5);
    EXPECT_DOUBLE_EQ(j, b.jitter(key));
  }
}

// --- json.h property tests --------------------------------------------------

std::string random_string(util::Xorshift64Star& rng) {
  static const char palette[] =
      "abcXYZ019 _-\"\\\n\t\r/\x01\x1f{}[]:,\xc3\xa9";
  const int len = static_cast<int>(rng.uniform(0.0, 13.0));
  std::string out;
  for (int i = 0; i < len; ++i) {
    out.push_back(
        palette[static_cast<int>(rng.uniform(0.0, sizeof(palette) - 1.0))]);
  }
  return out;
}

double random_number(util::Xorshift64Star& rng) {
  const double mag = std::pow(10.0, std::floor(rng.uniform(-12.0, 13.0)));
  double v = rng.uniform(-1.0, 1.0) * mag;
  if (rng.uniform() < 0.3) {
    v = std::floor(v);
  }
  return v;
}

json::Value random_value(util::Xorshift64Star& rng, int depth) {
  const double r = rng.uniform();
  if (depth <= 0 || r < 0.4) {
    const double kind = rng.uniform();
    if (kind < 0.15) {
      return json::Value::null();
    }
    if (kind < 0.35) {
      return json::Value::boolean(rng.uniform() < 0.5);
    }
    if (kind < 0.7) {
      return json::Value::number(random_number(rng));
    }
    return json::Value::string(random_string(rng));
  }
  if (r < 0.7) {
    json::Value arr = json::Value::array();
    const int n = static_cast<int>(rng.uniform(0.0, 5.0));
    for (int i = 0; i < n; ++i) {
      arr.push(random_value(rng, depth - 1));
    }
    return arr;
  }
  json::Value obj = json::Value::object();
  const int n = static_cast<int>(rng.uniform(0.0, 5.0));
  for (int i = 0; i < n; ++i) {
    // Distinct keys: the parser rejects duplicates by design.
    obj.set("k" + std::to_string(i) + random_string(rng),
            random_value(rng, depth - 1));
  }
  return obj;
}

TEST(JsonProperty, DumpParseDumpIsIdentityOnRandomValues) {
  util::Xorshift64Star rng(20260805);
  for (int iter = 0; iter < 300; ++iter) {
    const json::Value v = random_value(rng, 4);
    const std::string dumped = v.dump();
    json::Value reparsed;
    ASSERT_NO_THROW(reparsed = json::Value::parse(dumped))
        << "iteration " << iter << ": " << dumped;
    EXPECT_EQ(reparsed.dump(), dumped) << "iteration " << iter;
  }
}

TEST(JsonProperty, NumbersRoundTripValueExactly) {
  util::Xorshift64Star rng(42);
  for (int iter = 0; iter < 2000; ++iter) {
    const double v = random_number(rng);
    const std::string text = json::format_number(v);
    EXPECT_EQ(json::Value::parse(text).as_number(), v)
        << "v=" << v << " text=" << text;
  }
}

TEST(JsonProperty, RejectsInvalidInputCorpus) {
  const std::vector<std::string> corpus = {
      "", "{", "}", "[", "{\"a\":}", "{\"a\" 1}", "{\"a\":1,}", "[1,2,",
      "tru", "nul", "+1", "1.2.3", "\"unterminated", "\"bad \\q escape\"",
      "\"trunc \\u12\"", "{\"a\":1} {\"b\":2}", "{'a':1}", "{a:1}",
      "[01a]", "{\"dup\":1,\"dup\":2}", std::string(300, '['),
  };
  for (const std::string& text : corpus) {
    EXPECT_THROW(json::Value::parse(text), json::ParseError)
        << "accepted: " << text.substr(0, 40);
  }
}

TEST(JsonProperty, DepthLimitBoundsNestingExactly) {
  // kMaxParseDepth containers parse; one more is rejected.
  std::string ok(json::kMaxParseDepth, '[');
  ok += "1";
  ok += std::string(json::kMaxParseDepth, ']');
  EXPECT_NO_THROW(json::Value::parse(ok));
  std::string deep(json::kMaxParseDepth + 1, '[');
  deep += "1";
  deep += std::string(json::kMaxParseDepth + 1, ']');
  EXPECT_THROW(json::Value::parse(deep), json::ParseError);
}

// --- NDJSON malformed-input corpus ------------------------------------------

SimRequest short_request(std::uint64_t seed = 42, double duration_s = 1.0) {
  SimRequest req;
  req.scenario = "nexus";
  req.app = "paperio";
  req.duration_s = duration_s;
  req.seed = seed;
  return req;
}

ServiceConfig small_config(unsigned workers = 1,
                           std::size_t queue_capacity = 4,
                           std::size_t cache_capacity = 8) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  cfg.cache_capacity = cache_capacity;
  cfg.retry_backoff_s = 0.001;
  cfg.retry_backoff_max_s = 0.01;
  return cfg;
}

/// Every corpus response must itself parse as JSON with ok:false and a
/// structured error object carrying a code.
void expect_structured_error(const std::string& response,
                             const std::string& line_label) {
  json::Value v;
  ASSERT_NO_THROW(v = json::Value::parse(response))
      << line_label << " -> unparseable response: " << response;
  ASSERT_TRUE(v.is_object()) << line_label;
  const json::Value* ok = v.find("ok");
  ASSERT_NE(ok, nullptr) << line_label;
  EXPECT_FALSE(ok->as_bool()) << line_label;
  const json::Value* error = v.find("error");
  ASSERT_NE(error, nullptr) << line_label << " -> " << response;
  ASSERT_TRUE(error->is_object())
      << line_label << " -> error is not structured: " << response;
  const json::Value* code = error->find("code");
  ASSERT_NE(code, nullptr) << line_label;
  EXPECT_FALSE(code->as_string().empty()) << line_label;
  const json::Value* message = error->find("message");
  ASSERT_NE(message, nullptr) << line_label;
  EXPECT_FALSE(message->as_string().empty()) << line_label;
}

TEST(ServerRobustness, MalformedInputCorpusAlwaysGetsStructuredErrors) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);

  const std::vector<std::string> corpus = {
      "{",                                       // truncated object
      "{\"op\":",                                // truncated member
      "garbage",                                 // not JSON at all
      "[1,2,3]",                                 // not an object
      "42",                                      // not an object
      "\"submit\"",                              // not an object
      "null",                                    // not an object
      "{}",                                      // missing op
      "{\"op\":5}",                              // op has the wrong type
      "{\"op\":true}",                           // op has the wrong type
      "{\"op\":\"warp\"}",                       // unknown op
      "{\"op\":\"stats\",\"op\":\"shutdown\"}",  // duplicate key smuggling
      "{\"op\":\"submit\"}",                     // missing scenario
      "{\"op\":\"submit\",\"scenario\":7}",      // scenario wrong type
      "{\"op\":\"submit\",\"scenario\":\"gameboy\"}",  // unknown scenario
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":\"x\"}",
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"seed\":-4}",
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":0}",
      // Integer fields beyond their range or not integers at all: each
      // is a bad_request before any cast.
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"seed\":1e300}",
      "{\"op\":\"submit\",\"scenario\":\"nexus\","
      "\"seed\":18446744073709551616}",
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"seeds\":1e300}",
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"seeds\":1000000}",
      "{\"op\":\"status\",\"job\":1e300}",
      "{\"op\":\"submit\",\"scenario\":\"odroid\",\"app\":\"nenamark\","
      "\"app_levels\":1e12}",
      "{\"op\":\"submit\",\"scenario\":\"odroid\",\"app\":\"nenamark\","
      "\"app_levels\":2.7}",
      "{\"op\":\"submit\",\"scenario\":\"odroid\",\"app\":\"nenamark\","
      "\"app_levels\":-5}",
      "{\"op\":\"compare\",\"arms\":[{\"scenario\":\"nexus\"},"
      "{\"scenario\":\"nexus\",\"policy\":\"unthrottled\"}],"
      "\"max_seeds\":1e12,\"min_seeds\":1e12}",
      // A fan whose last lane passes 2^53, which no plain submit can
      // reach, and two identical arms that would run 2^32 lanes.
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":1,"
      "\"seed\":9007199254740992,\"seeds\":2}",
      "{\"op\":\"compare\",\"arms\":[{\"scenario\":\"nexus\","
      "\"duration_s\":1},{\"scenario\":\"nexus\",\"duration_s\":1}],"
      "\"max_seeds\":2147483647}",
      // Waits, durations and phase counts beyond their bounds: each is
      // refused at admission instead of expiring at once, failing after
      // the run, or holding a worker for days.
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":2,"
      "\"deadline_s\":1e300}",
      "{\"op\":\"compare\",\"arms\":[{\"scenario\":\"nexus\"},"
      "{\"scenario\":\"nexus\",\"policy\":\"unthrottled\"}],"
      "\"deadline_s\":1e300}",
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":0.05}",
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":1e9}",
      "{\"op\":\"submit\",\"scenario\":\"odroid\",\"app\":\"nenamark\","
      "\"app_levels\":100000000}",
      // Starting temperatures and phase lengths beyond their bounds: the
      // former used to fail at t = 0, the latter to run phases that no
      // once-a-second fps sample can measure.
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":1,"
      "\"initial_temp_c\":1e300}",
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":1,"
      "\"initial_temp_c\":-1e300}",
      "{\"op\":\"submit\",\"scenario\":\"odroid\",\"app\":\"threedmark\","
      "\"app_phase_s\":0.001}",
      "{\"op\":\"submit\",\"scenario\":\"odroid\",\"app\":\"threedmark\","
      "\"app_phase_s\":1e300}",
      "{\"op\":\"status\"}",                     // missing job
      "{\"op\":\"status\",\"job\":-1}",          // negative job
      "{\"op\":\"status\",\"job\":1.5}",         // fractional job
      "{\"op\":\"status\",\"job\":\"one\"}",     // job wrong type
      "{\"op\":\"status\",\"job\":999}",         // unknown job
      "{\"op\":\"result\",\"job\":999}",         // unknown job
      "{\"op\":\"wait\",\"job\":1,\"timeout_s\":false}",
      "{\"op\":\"submit\",\"scenario\":\"nex\\qus\"}",  // bad escape
      "{\"op\":\"\\u12\"}",                      // truncated \u escape
      std::string(200, '[') + "1",               // deep nesting
      std::string(kMaxLineBytes + 1, 'x'),       // oversized line
      "{\"op\":\"" + std::string(kMaxLineBytes, 'y') + "\"}",  // oversized
  };
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    expect_structured_error(server.handle_line(corpus[i]),
                            "corpus line " + std::to_string(i));
    EXPECT_FALSE(server.shutdown_requested());
  }

  // The server is still healthy and no job slot leaked: nothing queued,
  // nothing running, nothing ever submitted.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);

  // ...and a well-formed request sequence still completes end-to-end.
  const std::string submit = server.handle_line(
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"app\":\"paperio\","
      "\"duration_s\":1}");
  const json::Value sv = json::Value::parse(submit);
  ASSERT_TRUE(sv.find("ok")->as_bool()) << submit;
  const std::uint64_t id =
      static_cast<std::uint64_t>(sv.find("job")->as_number());
  const std::string wait = server.handle_line(
      "{\"op\":\"wait\",\"job\":" + std::to_string(id) +
      ",\"timeout_s\":600}");
  EXPECT_TRUE(json::Value::parse(wait).find("done")->as_bool()) << wait;
  const std::string result = server.handle_line(
      "{\"op\":\"result\",\"job\":" + std::to_string(id) + "}");
  const json::Value rv = json::Value::parse(result);
  EXPECT_TRUE(rv.find("ok")->as_bool()) << result;
  EXPECT_NE(rv.find("result"), nullptr);
}

TEST(ServerRobustness, LegacyErrorSubstringsSurviveInMessages) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  EXPECT_NE(server.handle_line("{\"op\":\"warp\"}").find("unknown op"),
            std::string::npos);
  EXPECT_NE(server.handle_line("{}").find("missing required field: op"),
            std::string::npos);
  EXPECT_NE(
      server.handle_line("{\"op\":\"status\",\"job\":9}").find("unknown job"),
      std::string::npos);
}

// --- fault-matrix determinism -----------------------------------------------

/// Mirrors the per-slice fault key in service.cpp (pinned contract: the
/// schedule depends only on job key, attempt and slice index).
std::uint64_t slice_key(std::uint64_t job_key, int attempt,
                        std::uint64_t slice) {
  return util::derive_seed(
      util::derive_seed(job_key, static_cast<std::uint64_t>(attempt)),
      slice);
}

/// Runs a fixed submit schedule against a freshly seeded plan and renders
/// everything observable into one transcript string.
std::string run_schedule(std::uint64_t plan_seed) {
  FaultPlanConfig config;
  config.seed = plan_seed;
  config.probability[site_index(FaultSite::kQueueAdmission)] = 0.3;
  config.probability[site_index(FaultSite::kWorkerCrashBeforeSlice)] = 0.6;
  config.probability[site_index(FaultSite::kWorkerCrashAfterSlice)] = 0.3;
  config.probability[site_index(FaultSite::kCacheCorruption)] = 0.6;
  FaultPlan plan(config);

  ServiceConfig cfg = small_config(/*workers=*/1, /*queue_capacity=*/4,
                                   /*cache_capacity=*/4);
  cfg.faults = &plan;
  cfg.serve_stale = false;  // keep outcomes a pure function of the plan
  SimService service(ScenarioRegistry::standard(), cfg);

  std::string transcript;
  for (int round = 0; round < 2; ++round) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const SubmitOutcome out = service.submit(short_request(seed));
      if (!out.accepted) {
        transcript += "reject:" + out.reject_code + ";";
        continue;
      }
      EXPECT_TRUE(service.wait(out.id, 600.0));
      const auto s = service.status(out.id);
      EXPECT_TRUE(s.has_value());
      transcript += to_string(s->state);
      transcript += ":" + s->error_code + ":" + s->fault_site;
      transcript += ":a" + std::to_string(s->attempts);
      transcript += out.cached ? ":c" : ":f";
      const auto result = service.result(out.id);
      if (result != nullptr) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), ":%016llx",
                      static_cast<unsigned long long>(
                          fnv1a64(result->payload)));
        transcript += buf;
      }
      transcript += ";";
    }
  }
  transcript += "|journal=" + plan.journal_string();
  return transcript;
}

TEST(FaultMatrix, InjectedScheduleReplaysByteForByte) {
  const std::string first = run_schedule(19);
  const std::string second = run_schedule(19);
  EXPECT_EQ(first, second);
  // The transcript exercised real failure paths, not a quiet run: at
  // least one injection fired and at least one job needed a retry.
  EXPECT_NE(first.find("|journal="), first.size() - 9) << first;
  EXPECT_NE(first.find(":a2"), std::string::npos) << first;
  const std::string other = run_schedule(21);
  EXPECT_NE(first, other);
}

// --- graceful degradation ---------------------------------------------------

TEST(Degradation, TransientFaultIsRetriedAndSucceeds) {
  const ScenarioRegistry registry = ScenarioRegistry::standard();
  const SimRequest req = short_request(/*seed=*/9);
  const std::uint64_t job_key = fnv1a64(registry.canonical_key(req));

  // Find a plan seed whose schedule crashes attempt 1 but not attempts
  // 2..3 of this job's single slice (duration 1 s -> one slice).
  const FaultSite site = FaultSite::kWorkerCrashBeforeSlice;
  std::uint64_t plan_seed = 0;
  for (std::uint64_t candidate = 1; candidate < 10000; ++candidate) {
    FaultPlanConfig probe;
    probe.seed = candidate;
    probe.probability[site_index(site)] = 0.5;
    const FaultPlan p(probe);
    if (p.should_inject(site, slice_key(job_key, 1, 0)) &&
        !p.should_inject(site, slice_key(job_key, 2, 0))) {
      plan_seed = candidate;
      break;
    }
  }
  ASSERT_NE(plan_seed, 0u);

  FaultPlanConfig config;
  config.seed = plan_seed;
  config.probability[site_index(site)] = 0.5;
  FaultPlan plan(config);
  ServiceConfig cfg = small_config();
  cfg.faults = &plan;
  SimService service(registry, cfg);

  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.accepted);
  ASSERT_TRUE(service.wait(out.id, 600.0));
  const auto s = service.status(out.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone);
  EXPECT_EQ(s->attempts, 2);  // one crash, one clean pass
  EXPECT_TRUE(s->error.empty());
  EXPECT_TRUE(s->error_code.empty());
  EXPECT_FALSE(s->stale);
  EXPECT_NE(service.result(out.id), nullptr);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(plan.injected(site), 1u);
}

TEST(Degradation, ExhaustedRetriesFailWithCodeAndSite) {
  FaultPlanConfig config;
  config.seed = 2;
  config.probability[site_index(FaultSite::kWorkerCrashBeforeSlice)] = 1.0;
  FaultPlan plan(config);
  ServiceConfig cfg = small_config();
  cfg.faults = &plan;
  cfg.max_attempts = 2;
  SimService service(ScenarioRegistry::standard(), cfg);

  const SubmitOutcome out = service.submit(short_request());
  ASSERT_TRUE(out.accepted);
  ASSERT_TRUE(service.wait(out.id, 600.0));
  const auto s = service.status(out.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kFailed);
  EXPECT_EQ(s->attempts, 2);
  EXPECT_EQ(s->error_code, errc::kInjectedFault);
  EXPECT_EQ(s->fault_site, "crash_before");
  EXPECT_EQ(service.result(out.id), nullptr);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_GE(stats.faults_injected, 2u);
}

TEST(Degradation, RetryExhaustionFallsBackToStaleCacheEntry) {
  FaultPlan plan;  // starts disabled; armed after the cache is staged
  ServiceConfig cfg = small_config(/*workers=*/1, /*queue_capacity=*/4,
                                   /*cache_capacity=*/1);
  cfg.faults = &plan;
  cfg.max_attempts = 2;
  SimService service(ScenarioRegistry::standard(), cfg);

  // Stage: run A (cached), then B (evicts A into the stale store).
  const SubmitOutcome a1 = service.submit(short_request(1));
  ASSERT_TRUE(a1.accepted);
  ASSERT_TRUE(service.wait(a1.id, 600.0));
  const auto fresh = service.result(a1.id);
  ASSERT_NE(fresh, nullptr);
  const SubmitOutcome b = service.submit(short_request(2));
  ASSERT_TRUE(b.accepted);
  ASSERT_TRUE(service.wait(b.id, 600.0));
  EXPECT_EQ(service.stats().cache.evictions, 1u);

  // Now every execution attempt crashes; resubmitting A must degrade to
  // the evicted (stale) copy instead of failing.
  plan.set_probability(FaultSite::kWorkerCrashBeforeSlice, 1.0);
  const SubmitOutcome a2 = service.submit(short_request(1));
  ASSERT_TRUE(a2.accepted);
  EXPECT_FALSE(a2.cached);  // evicted from the primary cache
  ASSERT_TRUE(service.wait(a2.id, 600.0));
  const auto s = service.status(a2.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone);
  EXPECT_TRUE(s->stale);
  EXPECT_TRUE(s->from_cache);
  EXPECT_EQ(s->attempts, 2);
  // The degraded completion keeps the failure breadcrumbs visible.
  EXPECT_EQ(s->error_code, errc::kInjectedFault);
  EXPECT_FALSE(s->error.empty());
  const auto stale = service.result(a2.id);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->payload, fresh->payload);  // byte-identical, just old
  EXPECT_EQ(service.stats().stale_served, 1u);
}

TEST(Degradation, SaturatedQueueServesStaleInsteadOfRejecting) {
  ServiceConfig cfg = small_config(/*workers=*/1, /*queue_capacity=*/1,
                                   /*cache_capacity=*/1);
  SimService service(ScenarioRegistry::standard(), cfg);

  const SubmitOutcome a1 = service.submit(short_request(1));
  ASSERT_TRUE(a1.accepted);
  ASSERT_TRUE(service.wait(a1.id, 600.0));
  const auto fresh = service.result(a1.id);
  ASSERT_NE(fresh, nullptr);
  const SubmitOutcome b = service.submit(short_request(2));
  ASSERT_TRUE(b.accepted);
  ASSERT_TRUE(service.wait(b.id, 600.0));  // evicts A to the stale store

  // Saturate: one long job running, one queued. The long job must have
  // left the queue (state kRunning) before the filler can be admitted.
  const SubmitOutcome running = service.submit(short_request(3, 100000.0));
  ASSERT_TRUE(running.accepted);
  for (int spin = 0; spin < 2000; ++spin) {
    const auto rs = service.status(running.id);
    ASSERT_TRUE(rs.has_value());
    if (rs->state == JobState::kRunning) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.status(running.id)->state, JobState::kRunning);
  const SubmitOutcome queued = service.submit(short_request(4, 100000.0));
  ASSERT_TRUE(queued.accepted);

  // A fresh request still rejects...
  const SubmitOutcome overflow = service.submit(short_request(5));
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.reject_code, errc::kQueueFull);
  EXPECT_NE(overflow.reject_reason.find("queue full"), std::string::npos);

  // ...but a request with a stale copy completes degraded instead.
  const SubmitOutcome a2 = service.submit(short_request(1));
  ASSERT_TRUE(a2.accepted);
  EXPECT_TRUE(a2.cached);
  EXPECT_TRUE(a2.stale);
  ASSERT_TRUE(service.wait(a2.id, 600.0));
  const auto s = service.status(a2.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone);
  EXPECT_TRUE(s->stale);
  const auto stale = service.result(a2.id);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->payload, fresh->payload);

  EXPECT_TRUE(service.cancel(running.id));
  EXPECT_TRUE(service.cancel(queued.id));
  EXPECT_TRUE(service.wait(running.id, 600.0));
}

TEST(Degradation, CorruptedCacheEntryIsDetectedAndRecomputed) {
  FaultPlanConfig config;
  config.seed = 4;
  config.probability[site_index(FaultSite::kCacheCorruption)] = 1.0;
  FaultPlan plan(config);
  ServiceConfig cfg = small_config();
  cfg.faults = &plan;
  SimService service(ScenarioRegistry::standard(), cfg);

  const SubmitOutcome first = service.submit(short_request());
  ASSERT_TRUE(first.accepted);
  ASSERT_TRUE(service.wait(first.id, 600.0));
  const auto original = service.result(first.id);
  ASSERT_NE(original, nullptr);

  // The stored copy was damaged at insert; the resubmit must detect the
  // checksum mismatch, recompute, and produce the same bytes again.
  const SubmitOutcome second = service.submit(short_request());
  ASSERT_TRUE(second.accepted);
  EXPECT_FALSE(second.cached);
  ASSERT_TRUE(service.wait(second.id, 600.0));
  const auto s = service.status(second.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kDone);
  EXPECT_FALSE(s->from_cache);
  const auto recomputed = service.result(second.id);
  ASSERT_NE(recomputed, nullptr);
  EXPECT_EQ(recomputed->payload, original->payload);
  EXPECT_GE(service.stats().cache.corruptions, 1u);
}

// --- final-slice deadline (regression) --------------------------------------

TEST(Deadline, FiresWhenItLapsesDuringTheFinalSlice) {
  // The injected slice latency makes the job's only slice overshoot its
  // deadline; a deadline checked only at the top of the slice loop would
  // let the job complete as if on time. One second is the shortest run a
  // request may ask for.
  FaultPlanConfig config;
  config.seed = 6;
  config.probability[site_index(FaultSite::kSliceLatency)] = 1.0;
  config.latency_s = 0.25;
  FaultPlan plan(config);
  ServiceConfig cfg = small_config();
  cfg.faults = &plan;
  SimService service(ScenarioRegistry::standard(), cfg);

  const SubmitOutcome out =
      service.submit(short_request(42, /*duration_s=*/1.0),
                     /*deadline_s=*/0.05);
  ASSERT_TRUE(out.accepted);
  ASSERT_TRUE(service.wait(out.id, 600.0));
  const auto s = service.status(out.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kExpired);
  EXPECT_EQ(s->error_code, errc::kDeadlineRunning);
  EXPECT_NE(s->error.find("deadline exceeded while running"),
            std::string::npos);
  EXPECT_EQ(service.result(out.id), nullptr);
  EXPECT_EQ(service.stats().expired, 1u);
}

// --- numerical guards vs. the stability analysis ----------------------------

/// A deliberately unstable synthetic platform whose chip node follows the
/// lumped Sec. IV-A dynamics exactly: one single-OPP cluster with
/// leakage_share 1 at nominal voltage (P_leak = A T^2 e^{-theta/T}), a
/// saturating batch workload (P_dyn = ceff V^2 f), idle and board power
/// zero, and a chip node with conductance G to ambient and capacitance C.
struct RunawayPlatform {
  static constexpr double kGWPerK = 0.07;
  static constexpr double kCJPerK = 1.0;
  static constexpr double kFreqMhz = 2000.0;
  static constexpr double kCeffF = 1.5e-8;  // -> 30 W fully busy

  static stability::Params params() {
    stability::Params p;  // leakage A/theta stay at the shared defaults
    p.g_w_per_k = util::watts_per_kelvin(kGWPerK);
    p.c_j_per_k = util::joules_per_kelvin(kCJPerK);
    return p;
  }

  static std::unique_ptr<sim::Engine> make_engine() {
    platform::SocSpec soc;
    soc.name = "runaway-soc";
    platform::ClusterSpec cluster;
    cluster.name = "burner";
    cluster.kind = platform::ResourceKind::kCpuBig;
    cluster.num_cores = 1;
    cluster.opps =
        platform::OppTable::from_mhz_mv({{kFreqMhz, 1000.0}});
    cluster.ipc = 1.0;
    cluster.ceff_f = util::farads(kCeffF);
    cluster.idle_power_w = util::watts(0.0);
    cluster.leakage_share = 1.0;
    cluster.nominal_voltage_v = util::volts(1.0);
    cluster.thermal_node = 0;
    soc.clusters = {cluster};

    thermal::ThermalNetworkSpec net;
    net.t_ambient_k = util::kelvin(298.15);
    net.nodes = {{"chip", util::joules_per_kelvin(kCJPerK),
                  util::watts_per_kelvin(kGWPerK)},
                 {"board", util::joules_per_kelvin(5.0),
                  util::watts_per_kelvin(1.0)}};

    auto engine = std::make_unique<sim::Engine>(
        soc, net, power::LeakageParams{}, /*board_base_w=*/0.0);
    workload::AppSpec burn;
    burn.name = "burn";
    burn.target_fps = 0.0;  // batch: demands unbounded CPU work
    burn.phases = {{1.0e9, 1.0, 0.0}};
    burn.cpu_threads = 1;
    engine->add_app(burn, /*cpu_cluster=*/0);
    return engine;
  }

  /// Dynamic power of the saturated cluster, read off the power model so
  /// the analysis input and the simulated physics can't drift apart.
  static double p_dyn_w(const sim::Engine& engine) {
    return engine.power_model().dynamic_per_core_at(0, 0).value();
  }
};

TEST(NumericalGuards, RunawayAbortsAtTheTickStabilityPredicts) {
  auto engine = RunawayPlatform::make_engine();
  const double p_dyn = RunawayPlatform::p_dyn_w(*engine);
  const stability::Params params = RunawayPlatform::params();

  // The platform is past its critical power: no stable fixed point.
  EXPECT_LT(stability::critical_power(params), p_dyn);
  EXPECT_EQ(stability::analyze(params, p_dyn).cls,
            stability::StabilityClass::kUnstable);

  const double guard_k = util::celsius_to_kelvin(150.0);
  const double predicted_s = stability::time_to_temperature(
      params, p_dyn, /*t0_k=*/298.15, guard_k);
  ASSERT_TRUE(std::isfinite(predicted_s));
  ASSERT_GT(predicted_s, 0.0);

  engine->set_runaway_guard(guard_k);
  try {
    engine->run(4.0 * predicted_s);
    FAIL() << "runaway guard never fired";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrorCode::kThermalRunaway);
    EXPECT_GT(e.temp_k(), guard_k);
    EXPECT_DOUBLE_EQ(e.limit_k(), guard_k);
    // Fig. 7 agreement: the simulated divergence crosses the guard when
    // the lumped trajectory integration says it will (the engine holds
    // leakage piecewise-constant over each 1 ms tick, hence the margin).
    EXPECT_NEAR(e.t_s(), predicted_s, 0.03 * predicted_s + 0.1);
  }
}

TEST(NumericalGuards, GuardDisabledRunsPastTheThreshold) {
  auto engine = RunawayPlatform::make_engine();
  const double p_dyn = RunawayPlatform::p_dyn_w(*engine);
  const double guard_k = util::celsius_to_kelvin(150.0);
  const double predicted_s = stability::time_to_temperature(
      RunawayPlatform::params(), p_dyn, 298.15, guard_k);
  ASSERT_TRUE(std::isfinite(predicted_s));
  // Default guard is off: the same divergence simulates right through the
  // threshold (divergence studies depend on this).
  EXPECT_NO_THROW(engine->run(predicted_s + 1.0));
  EXPECT_GT(engine->network().max_temperature().value(), guard_k);
}

TEST(NumericalGuards, NonFiniteStateAbortsImmediately) {
  auto engine = RunawayPlatform::make_engine();
  engine->set_initial_temperature(
      std::numeric_limits<double>::quiet_NaN());
  try {
    engine->run(0.01);
    FAIL() << "non-finite state not detected";
  } catch (const sim::SimError& e) {
    EXPECT_EQ(e.code(), sim::SimErrorCode::kNonFiniteTemperature);
    EXPECT_LE(e.t_s(), 0.01);
  }
}

TEST(NumericalGuards, ServiceReportsRunawayAsTypedNonRetryableFailure) {
  ScenarioRegistry registry = ScenarioRegistry::standard();
  ScenarioRegistry::Entry entry;
  entry.name = "runaway";
  entry.description = "unstable synthetic platform (guard tests)";
  entry.platform = "synthetic";
  entry.default_duration_s = 60.0;
  entry.default_initial_temp_c = 25.0;
  entry.default_app = "paperio";  // must name a real workload; the
  entry.default_policy = "default";  // factory wires its own app anyway
  entry.policies = {"default"};
  entry.factory = [](const SimRequest&, const workload::AppSpec&) {
    return RunawayPlatform::make_engine();
  };
  registry.add(entry);

  ServiceConfig cfg = small_config();
  cfg.max_attempts = 3;  // must NOT be consumed: SimError is deterministic
  SimService service(registry, cfg);
  ASSERT_GT(cfg.guard_max_temp_c, 0.0);

  SimRequest req;
  req.scenario = "runaway";
  const SubmitOutcome out = service.submit(req);
  ASSERT_TRUE(out.accepted);
  ASSERT_TRUE(service.wait(out.id, 600.0));
  const auto s = service.status(out.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kFailed);
  EXPECT_EQ(s->error_code, errc::kSimRunaway);
  EXPECT_EQ(s->attempts, 1);  // deterministic failures are not retried
  EXPECT_NE(s->error.find("runaway"), std::string::npos);
  EXPECT_EQ(service.stats().retries, 0u);
  EXPECT_EQ(service.stats().failed, 1u);
}

}  // namespace
}  // namespace mobitherm::service
