// Service-layer tests: JSON round trips, scenario-registry resolution and
// canonical keys, LRU result-cache behavior, job-queue admission control
// (backpressure, deadlines, cancellation), the bounded job table, the
// NDJSON protocol, and a concurrent stress run for TSan. Plus a regression
// test that the cooperative stop token threads through Engine::run and
// BatchRunner.
#include <gtest/gtest.h>

#include <ext/stdio_filebuf.h>
#include <ext/stdio_sync_filebuf.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/result_cache.h"
#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/service.h"
#include "sim/batch.h"
#include "sim/experiment.h"
#include "util/error.h"
#include "util/json.h"
#include "workload/pack.h"
#include "workload/presets.h"

namespace mobitherm::service {
namespace {

namespace json = util::json;
using util::ConfigError;

// --- json.h ----------------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      "{\"a\":1,\"b\":[true,null,\"x\"],\"c\":{\"d\":-2.5}}";
  const json::Value v = json::Value::parse(text);
  EXPECT_EQ(v.dump(), text);
}

TEST(Json, NumberFormattingIsCanonical) {
  EXPECT_EQ(json::format_number(140.0), "140");
  EXPECT_EQ(json::format_number(-3.0), "-3");
  EXPECT_EQ(json::format_number(0.1), "0.1");
  // Same value -> same bytes, independent of how it was computed.
  EXPECT_EQ(json::format_number(0.1 + 0.2), json::format_number(0.30000000000000004));
  // Round trip: the printed form parses back to the exact double.
  const double x = 39.823640379352696;
  EXPECT_EQ(json::Value::parse(json::format_number(x)).as_number(), x);
}

TEST(Json, ObjectsKeepInsertionOrder) {
  json::Value v = json::Value::object();
  v.set("z", json::Value::number(1));
  v.set("a", json::Value::number(2));
  EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2}");
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(json::Value::parse(""), json::ParseError);
  EXPECT_THROW(json::Value::parse("{\"a\":}"), json::ParseError);
  EXPECT_THROW(json::Value::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::Value::parse("[1,2,"), json::ParseError);
}

TEST(Json, StringEscapes) {
  const json::Value v = json::Value::parse("\"a\\n\\\"b\\u00e9\"");
  EXPECT_EQ(v.as_string(), "a\n\"b\xc3\xa9");
}

// --- scenario registry -----------------------------------------------------

TEST(ScenarioRegistry, StandardScenariosAndDefaults) {
  const ScenarioRegistry& reg = standard_registry();
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"nexus", "odroid"}));

  SimRequest req;
  req.scenario = "nexus";
  const SimRequest r = reg.resolve(req);
  EXPECT_EQ(r.app, "paperio");
  EXPECT_EQ(r.policy, "throttled");
  EXPECT_EQ(r.duration_s, 140.0);
  EXPECT_EQ(r.initial_temp_c, 36.0);
  // Resolution is idempotent: canonical requests resolve to themselves.
  const SimRequest r2 = reg.resolve(r);
  EXPECT_EQ(reg.canonical_key(r), reg.canonical_key(r2));
}

TEST(ScenarioRegistry, InvalidRequestsThrow) {
  const ScenarioRegistry& reg = standard_registry();
  SimRequest req;
  req.scenario = "gameboy";
  EXPECT_THROW(reg.resolve(req), ConfigError);
  req.scenario = "nexus";
  req.app = "doom";
  EXPECT_THROW(reg.resolve(req), ConfigError);
  req.app = "paperio";
  req.policy = "proposed";  // odroid policy, not a nexus one
  EXPECT_THROW(reg.resolve(req), ConfigError);
  req.policy = "";
  req.duration_s = 0.0;
  EXPECT_THROW(reg.resolve(req), ConfigError);
}

TEST(ScenarioRegistry, CanonicalKeyNormalizesInapplicableOverrides) {
  const ScenarioRegistry& reg = standard_registry();
  SimRequest a;
  a.scenario = "nexus";
  a.app = "paperio";
  SimRequest b = a;
  b.app_levels = 7;  // paperio ignores levels; must not split the key
  b.app_phase_s = 9.0;
  EXPECT_EQ(reg.canonical_key(a), reg.canonical_key(b));
  EXPECT_EQ(fnv1a64(reg.canonical_key(a)), fnv1a64(reg.canonical_key(b)));

  // ...but for a parameterized app the overrides are part of the key.
  SimRequest nena = a;
  nena.scenario = "odroid";
  nena.app = "nenamark";
  SimRequest nena6 = nena;
  nena6.app_levels = 6;
  EXPECT_NE(reg.canonical_key(nena), reg.canonical_key(nena6));
}

TEST(ScenarioRegistry, PhaseLengthAndStartTemperatureAreRangeChecked) {
  const ScenarioRegistry& reg = standard_registry();
  SimRequest three;
  three.scenario = "odroid";
  three.app = "threedmark";
  // Every negative phase length means the preset's own: one key.
  const std::string preset_key = reg.canonical_key(three);
  for (const double phase_s : {-5.0, -1.0}) {
    SimRequest r = three;
    r.app_phase_s = phase_s;
    EXPECT_EQ(reg.canonical_key(r), preset_key) << phase_s;
  }
  for (const double phase_s : {0.0, 0.999, 100000.5}) {
    SimRequest r = three;
    r.app_phase_s = phase_s;
    EXPECT_THROW(reg.resolve(r), ConfigError) << phase_s;
  }
  for (const double phase_s : {1.0, 100000.0}) {
    SimRequest r = three;
    r.app_phase_s = phase_s;
    EXPECT_EQ(reg.resolve(r).app_phase_s, phase_s);
  }

  SimRequest nexus;
  nexus.scenario = "nexus";
  nexus.initial_temp_c = -40.0;
  EXPECT_NE(reg.canonical_key(nexus).find(";initial_temp_c=-40;"),
            std::string::npos);
  nexus.initial_temp_c = 125.0;
  EXPECT_NE(reg.canonical_key(nexus).find(";initial_temp_c=125;"),
            std::string::npos);
  for (const double temp_c : {-40.5, 125.5}) {
    nexus.initial_temp_c = temp_c;
    EXPECT_THROW(reg.resolve(nexus), ConfigError) << temp_c;
  }
}

TEST(ScenarioRegistry, KeySeparatesSeedPolicyAndVersion) {
  const ScenarioRegistry& reg = standard_registry();
  SimRequest a;
  a.scenario = "nexus";
  SimRequest b = a;
  b.seed = 43;
  EXPECT_NE(reg.canonical_key(a), reg.canonical_key(b));
  SimRequest c = a;
  c.policy = "unthrottled";
  EXPECT_NE(reg.canonical_key(a), reg.canonical_key(c));
  EXPECT_NE(reg.canonical_key(a).find(kSimCodeVersion), std::string::npos);
}

TEST(ScenarioRegistry, NexusAppNamesMatchTableOne) {
  EXPECT_EQ(nexus_app_names().size(), 5u);
  for (const std::string& name : nexus_app_names()) {
    EXPECT_FALSE(workload_by_name(name).name.empty());
  }
  EXPECT_THROW(workload_by_name("not_an_app"), ConfigError);
}

TEST(ScenarioRegistry, FactoryMatchesHandWiredEngine) {
  // The registry is the same wiring as make_nexus_engine: identical
  // requests must produce bit-identical runs.
  const ScenarioRegistry& reg = standard_registry();
  SimRequest req;
  req.scenario = "nexus";
  req.policy = "unthrottled";
  req.duration_s = 3.0;
  std::unique_ptr<sim::Engine> from_registry = reg.make_engine(req);
  from_registry->run(3.0);

  sim::NexusRun run;
  run.app = workload::paperio();
  run.throttling = false;
  run.duration_s = 3.0;
  std::unique_ptr<sim::Engine> hand = sim::make_nexus_engine(run);
  hand->run(3.0);

  const sim::NexusResult a = sim::nexus_result_from(*from_registry);
  const sim::NexusResult b = sim::nexus_result_from(*hand);
  EXPECT_EQ(a.peak_temp_c, b.peak_temp_c);
  EXPECT_EQ(a.median_fps, b.median_fps);
  EXPECT_EQ(a.temp_trace_c, b.temp_trace_c);
}

// --- result cache ----------------------------------------------------------

std::shared_ptr<JobResult> fake_result(const std::string& payload) {
  auto r = std::make_shared<JobResult>();
  r->payload = payload;
  return r;
}

TEST(ResultCache, HitIsBitwiseEqualAndCounted) {
  ResultCache cache(4);
  cache.insert(1, "key-1", fake_result("payload-1"));
  const auto hit = cache.lookup(1, "key-1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->payload, "payload-1");
  EXPECT_EQ(cache.lookup(2, "key-2"), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.capacity, 4u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.insert(1, "k1", fake_result("p1"));
  cache.insert(2, "k2", fake_result("p2"));
  ASSERT_NE(cache.lookup(1, "k1"), nullptr);  // 1 is now MRU, 2 is LRU
  cache.insert(3, "k3", fake_result("p3"));   // evicts 2
  EXPECT_EQ(cache.lookup(2, "k2"), nullptr);
  EXPECT_NE(cache.lookup(1, "k1"), nullptr);
  EXPECT_NE(cache.lookup(3, "k3"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(ResultCache, HashCollisionDegradesToMiss) {
  ResultCache cache(4);
  cache.insert(7, "canonical-a", fake_result("pa"));
  EXPECT_EQ(cache.lookup(7, "canonical-b"), nullptr);
  EXPECT_EQ(cache.stats().collisions, 1u);
}

TEST(ResultCache, ZeroCapacityDisablesCaching) {
  ResultCache cache(0);
  cache.insert(1, "k1", fake_result("p1"));
  EXPECT_EQ(cache.lookup(1, "k1"), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(ResultCache, ReinsertRefreshesRecency) {
  ResultCache cache(2);
  cache.insert(1, "k1", fake_result("p1"));
  cache.insert(2, "k2", fake_result("p2"));
  cache.insert(1, "k1", fake_result("p1-new"));  // 1 becomes MRU
  cache.insert(3, "k3", fake_result("p3"));      // evicts 2, not 1
  const auto hit = cache.lookup(1, "k1");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->payload, "p1-new");
  EXPECT_EQ(cache.lookup(2, "k2"), nullptr);
}

// --- service ---------------------------------------------------------------

SimRequest short_request(std::uint64_t seed = 42, double duration_s = 2.0) {
  SimRequest req;
  req.scenario = "nexus";
  req.app = "paperio";
  req.duration_s = duration_s;
  req.seed = seed;
  return req;
}

SimRequest long_request(std::uint64_t seed = 42) {
  return short_request(seed, 100000.0);
}

ServiceConfig small_config(unsigned workers = 1,
                           std::size_t queue_capacity = 2) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue_capacity;
  cfg.cache_capacity = 8;
  return cfg;
}

void wait_until_running(SimService& service, std::uint64_t id) {
  for (int i = 0; i < 20000; ++i) {
    const auto s = service.status(id);
    ASSERT_TRUE(s.has_value());
    if (s->state == JobState::kRunning || is_terminal(s->state)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job " << id << " never started running";
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(SimService, SecondIdenticalSubmitIsServedFromCacheByteIdentical) {
  SimService service(ScenarioRegistry::standard(), small_config());
  // 10 simulated seconds: the cold run dwarfs the cache's bookkeeping.
  const SimRequest req = short_request(42, 10.0);

  const auto cold_start = std::chrono::steady_clock::now();
  const SubmitOutcome first = service.submit(req);
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.cached);
  ASSERT_TRUE(service.wait(first.id, 600.0));
  const double cold_s = seconds_since(cold_start);

  const SubmitOutcome second = service.submit(req);
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(second.cached);
  ASSERT_TRUE(service.wait(second.id, 600.0));

  const auto a = service.result(first.id);
  const auto b = service.result(second.id);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->payload, b->payload);
  EXPECT_FALSE(a->payload.empty());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);

  const auto status = service.status(second.id);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->from_cache);
  EXPECT_EQ(status->state, JobState::kDone);

  // A hit resolves at least 10x faster than the cold run. The cold run is
  // timed once; a hit is the fastest of 20, so one preemption under a
  // parallel ctest cannot fail the ratio.
  double hit_s = cold_s;
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const SubmitOutcome hit = service.submit(req);
    ASSERT_TRUE(hit.accepted);
    ASSERT_TRUE(hit.cached);
    ASSERT_TRUE(service.wait(hit.id, 600.0));
    hit_s = std::min(hit_s, seconds_since(start));
  }
  std::printf("cache-hit speedup: %.0fx (cold %.3f ms, fastest hit %.1f us)\n",
              cold_s / hit_s, cold_s * 1e3, hit_s * 1e6);
  EXPECT_GE(cold_s, 10.0 * hit_s);
}

TEST(SimService, InvalidRequestIsRejectedWithReason) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimRequest req = short_request();
  req.scenario = "gameboy";
  const SubmitOutcome out = service.submit(req);
  EXPECT_FALSE(out.accepted);
  EXPECT_NE(out.reject_reason.find("gameboy"), std::string::npos);
  EXPECT_EQ(service.stats().rejected, 1u);
}

TEST(SimService, FullQueueRejectsWithBackpressureReason) {
  SimService service(ScenarioRegistry::standard(),
                     small_config(/*workers=*/1, /*queue_capacity=*/2));
  const SubmitOutcome running = service.submit(long_request(1));
  ASSERT_TRUE(running.accepted);
  wait_until_running(service, running.id);

  const SubmitOutcome q1 = service.submit(long_request(2));
  const SubmitOutcome q2 = service.submit(long_request(3));
  ASSERT_TRUE(q1.accepted);
  ASSERT_TRUE(q2.accepted);

  const SubmitOutcome overflow = service.submit(long_request(4));
  EXPECT_FALSE(overflow.accepted);
  EXPECT_NE(overflow.reject_reason.find("queue full"), std::string::npos);
  EXPECT_EQ(service.stats().rejected, 1u);

  // A cache hit is admitted even when the queue is full: it costs no
  // simulation work, so backpressure does not apply.
  const SimRequest small = short_request(7, 2.0);
  const SubmitOutcome warm = service.submit(small);
  EXPECT_FALSE(warm.accepted);  // queue full, not yet cached

  EXPECT_TRUE(service.cancel(running.id));
  EXPECT_TRUE(service.cancel(q1.id));
  EXPECT_TRUE(service.cancel(q2.id));
  EXPECT_TRUE(service.wait(running.id, 600.0));
}

TEST(SimService, QueuedJobPastDeadlineExpires) {
  SimService service(ScenarioRegistry::standard(), small_config());
  const SubmitOutcome running = service.submit(long_request(1));
  ASSERT_TRUE(running.accepted);
  wait_until_running(service, running.id);

  const SubmitOutcome queued =
      service.submit(long_request(2), /*deadline_s=*/0.05);
  ASSERT_TRUE(queued.accepted);
  ASSERT_TRUE(service.wait(queued.id, 600.0));
  const auto s = service.status(queued.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kExpired);
  EXPECT_NE(s->error.find("deadline"), std::string::npos);
  EXPECT_EQ(service.stats().expired, 1u);

  EXPECT_TRUE(service.cancel(running.id));
  EXPECT_TRUE(service.wait(running.id, 600.0));
}

TEST(SimService, RunningJobPastDeadlineExpires) {
  SimService service(ScenarioRegistry::standard(), small_config());
  const SubmitOutcome out =
      service.submit(long_request(1), /*deadline_s=*/0.1);
  ASSERT_TRUE(out.accepted);
  ASSERT_TRUE(service.wait(out.id, 600.0));
  const auto s = service.status(out.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kExpired);
  EXPECT_EQ(service.result(out.id), nullptr);
}

TEST(SimService, CancelMidRunStopsTheJob) {
  SimService service(ScenarioRegistry::standard(), small_config());
  const SubmitOutcome out = service.submit(long_request(1));
  ASSERT_TRUE(out.accepted);
  wait_until_running(service, out.id);
  EXPECT_TRUE(service.cancel(out.id));
  ASSERT_TRUE(service.wait(out.id, 600.0));
  const auto s = service.status(out.id);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->state, JobState::kCancelled);
  // Cancelling a terminal job is a no-op that reports false.
  EXPECT_FALSE(service.cancel(out.id));
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(SimService, WaitTimesOutOnRunningJobAndUnknownIdIsFalse) {
  SimService service(ScenarioRegistry::standard(), small_config());
  EXPECT_FALSE(service.wait(999, 0.01));
  const SubmitOutcome out = service.submit(long_request(1));
  ASSERT_TRUE(out.accepted);
  EXPECT_FALSE(service.wait(out.id, 0.05));
  EXPECT_TRUE(service.cancel(out.id));
  EXPECT_TRUE(service.wait(out.id, 600.0));
}

TEST(SimService, DestructorCancelsOutstandingJobs) {
  // Shutdown with a running job and a queued job must not hang.
  SimService service(ScenarioRegistry::standard(),
                     small_config(/*workers=*/1, /*queue_capacity=*/4));
  ASSERT_TRUE(service.submit(long_request(1)).accepted);
  ASSERT_TRUE(service.submit(long_request(2)).accepted);
}

TEST(SimService, ConcurrentSubmitPollCancelIsRaceFree) {
  // Exercised under TSan in CI: several client threads hammer one service.
  SimService service(ScenarioRegistry::standard(),
                     small_config(/*workers=*/2, /*queue_capacity=*/64));
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::atomic<int> accepted{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &accepted, c] {
      for (int i = 0; i < kPerClient; ++i) {
        // A small seed pool so some submissions hit the cache while
        // others race to compute the same request. (Runs must cover at
        // least one simulated second or fps summarization fails.)
        const SubmitOutcome out = service.submit(
            short_request(static_cast<std::uint64_t>(i % 3), 2.0));
        if (!out.accepted) {
          continue;
        }
        accepted.fetch_add(1);
        service.status(out.id);
        if ((c + i) % 5 == 0) {
          service.cancel(out.id);
        }
        service.wait(out.id, 600.0);
        service.result(out.id);
        service.stats();
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::size_t>(accepted.load()));
  EXPECT_EQ(stats.completed + stats.cancelled + stats.failed +
                stats.expired,
            stats.submitted);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
}

// --- NDJSON server ---------------------------------------------------------

TEST(SimServer, ProtocolErrorsAreStructured) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  EXPECT_NE(server.handle_line("not json").find("\"ok\":false"),
            std::string::npos);
  EXPECT_NE(server.handle_line("{\"op\":\"warp\"}").find("unknown op"),
            std::string::npos);
  EXPECT_NE(server.handle_line("{}").find("missing required field: op"),
            std::string::npos);
  EXPECT_NE(
      server.handle_line("{\"op\":\"submit\"}").find("scenario"),
      std::string::npos);
  EXPECT_NE(server.handle_line("{\"op\":\"status\",\"job\":123}")
                .find("unknown job"),
            std::string::npos);
  EXPECT_FALSE(server.shutdown_requested());
}

TEST(SimServer, SubmitWaitResultFlowAndCacheHitBytes) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  const std::string submit =
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"app\":\"paperio\","
      "\"duration_s\":2}";

  const std::string first = server.handle_line(submit);
  EXPECT_NE(first.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(first.find("\"cached\":false"), std::string::npos);
  server.handle_line("{\"op\":\"wait\",\"job\":1,\"timeout_s\":600}");
  const std::string result1 =
      server.handle_line("{\"op\":\"result\",\"job\":1}");
  ASSERT_NE(result1.find("\"result\":{"), std::string::npos);

  const std::string second = server.handle_line(submit);
  EXPECT_NE(second.find("\"cached\":true"), std::string::npos);
  const std::string result2 =
      server.handle_line("{\"op\":\"result\",\"job\":2}");

  // The payload after "result": must be byte-identical across the cold
  // run and the cache hit.
  const std::string marker = "\"result\":";
  const std::string payload1 = result1.substr(result1.find(marker));
  const std::string payload2 = result2.substr(result2.find(marker));
  EXPECT_EQ(payload1, payload2);
  EXPECT_NE(result2.find("\"from_cache\":true"), std::string::npos);

  const std::string stats = server.handle_line("{\"op\":\"stats\"}");
  const json::Value parsed = json::Value::parse(stats);
  EXPECT_EQ(parsed.find("cache")->find("hits")->as_number(), 1.0);

  const std::string scenarios = server.handle_line("{\"op\":\"scenarios\"}");
  EXPECT_NE(scenarios.find("\"nexus\""), std::string::npos);
  EXPECT_NE(scenarios.find("\"odroid\""), std::string::npos);

  EXPECT_NE(server.handle_line("{\"op\":\"shutdown\"}")
                .find("\"ok\":true"),
            std::string::npos);
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(SimServer, ResultOnUnfinishedJobReportsState) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  server.handle_line(
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"duration_s\":100000}");
  const std::string res = server.handle_line("{\"op\":\"result\",\"job\":1}");
  EXPECT_NE(res.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(res.find("not done"), std::string::npos);
  server.handle_line("{\"op\":\"cancel\",\"job\":1}");
}

// --- "seeds":N fans ---------------------------------------------------------
//
// A fan is N ordinary submits made by the server in lane order, so each
// lane must answer exactly as a plain submit of its seed would: same
// canonical key, same payload bytes, same cache and backpressure rules.

/// A submit line for short_request(seed); `seeds` > 0 adds the fan field.
std::string submit_line(std::uint64_t seed, int seeds = 0) {
  std::string line =
      "{\"op\":\"submit\",\"scenario\":\"nexus\",\"app\":\"paperio\","
      "\"duration_s\":2,\"seed\":" +
      std::to_string(seed);
  if (seeds > 0) {
    line += ",\"seeds\":" + std::to_string(seeds);
  }
  return line + "}";
}

/// The response entry of one accepted fan lane.
std::string accepted_lane(std::uint64_t job, bool cached, bool stale) {
  return std::string("{\"accepted\":true,\"job\":") + std::to_string(job) +
         ",\"cached\":" + (cached ? "true" : "false") +
         ",\"stale\":" + (stale ? "true" : "false") + "}";
}

std::string fan_response(bool ok, int seeds,
                         const std::vector<std::string>& lanes) {
  std::string out = std::string("{\"ok\":") + (ok ? "true" : "false") +
                    ",\"op\":\"submit\",\"seeds\":" +
                    std::to_string(seeds) + ",\"jobs\":[";
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    out += (k == 0 ? "" : ",") + lanes[k];
  }
  return out + "]}";
}

TEST(SimServer, FanLanesAreByteIdenticalToPlainSubmits) {
  SimService fan_service(ScenarioRegistry::standard(), small_config(2, 8));
  SimService plain_service(ScenarioRegistry::standard(), small_config(2, 8));
  SimServer fan_server(fan_service);
  SimServer plain_server(plain_service);

  EXPECT_EQ(fan_server.handle_line(submit_line(301, 3)),
            fan_response(true, 3,
                         {accepted_lane(1, false, false),
                          accepted_lane(2, false, false),
                          accepted_lane(3, false, false)}));
  for (std::uint64_t k = 0; k < 3; ++k) {
    EXPECT_EQ(plain_server.handle_line(submit_line(301 + k)),
              "{\"ok\":true,\"op\":\"submit\",\"job\":" +
                  std::to_string(k + 1) +
                  ",\"cached\":false,\"stale\":false}");
  }
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(fan_service.wait(id, 600.0));
    ASSERT_TRUE(plain_service.wait(id, 600.0));
    const auto lane = fan_service.result(id);
    const auto plain = plain_service.result(id);
    ASSERT_NE(lane, nullptr) << "lane " << id;
    ASSERT_NE(plain, nullptr) << "seed " << 300 + id;
    EXPECT_EQ(lane->payload, plain->payload) << "lane " << id;
    EXPECT_EQ(fan_service.status(id)->canonical,
              plain_service.status(id)->canonical);
  }

  // The same fan again is served from the cache lane for lane.
  EXPECT_EQ(fan_server.handle_line(submit_line(301, 3)),
            fan_response(true, 3,
                         {accepted_lane(4, true, false),
                          accepted_lane(5, true, false),
                          accepted_lane(6, true, false)}));
  for (std::uint64_t id = 4; id <= 6; ++id) {
    ASSERT_NE(fan_service.result(id), nullptr);
    EXPECT_EQ(fan_service.result(id)->payload,
              fan_service.result(id - 3)->payload);
  }
  const ServiceStats stats = fan_service.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.cache.hits, 3u);
  EXPECT_EQ(stats.cache.misses, 3u);
}

TEST(SimServer, PartlyCachedFanRunsOnlyTheMissingLanes) {
  SimService service(ScenarioRegistry::standard(), small_config(1, 8));
  SimServer server(service);
  // Warm the middle seed with a plain submit first.
  ASSERT_NE(server.handle_line(submit_line(402)).find("\"job\":1"),
            std::string::npos);
  ASSERT_TRUE(service.wait(1, 600.0));

  EXPECT_EQ(server.handle_line(submit_line(401, 3)),
            fan_response(true, 3,
                         {accepted_lane(2, false, false),
                          accepted_lane(3, true, false),
                          accepted_lane(4, false, false)}));
  for (std::uint64_t id = 2; id <= 4; ++id) {
    ASSERT_TRUE(service.wait(id, 600.0));
    EXPECT_NE(service.result(id), nullptr);
  }
  EXPECT_EQ(service.result(3)->payload, service.result(1)->payload);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 3u);  // seed 402 once, then 401 and 403
}

TEST(SimServer, OneSeedFanIsAPlainSubmit) {
  SimService fan_service(ScenarioRegistry::standard(), small_config());
  SimService plain_service(ScenarioRegistry::standard(), small_config());
  SimServer fan_server(fan_service);
  SimServer plain_server(plain_service);
  const std::string fan = fan_server.handle_line(submit_line(501, 1));
  EXPECT_EQ(fan,
            "{\"ok\":true,\"op\":\"submit\",\"job\":1,\"cached\":false,"
            "\"stale\":false}");
  EXPECT_EQ(fan, plain_server.handle_line(submit_line(501)));
  ASSERT_TRUE(fan_service.wait(1, 600.0));
  ASSERT_TRUE(plain_service.wait(1, 600.0));
  EXPECT_EQ(fan_service.result(1)->payload, plain_service.result(1)->payload);

  for (const char* bad : {"0", "2.5", "-3"}) {
    const std::string line =
        "{\"op\":\"submit\",\"scenario\":\"nexus\",\"seeds\":" +
        std::string(bad) + "}";
    EXPECT_NE(fan_server.handle_line(line).find("\"code\":\"bad_request\""),
              std::string::npos)
        << bad;
  }
}

TEST(SimServer, IntegerFieldsAreRangeCheckedBeforeUse) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  const std::string arms =
      "\"arms\":[{\"scenario\":\"nexus\"},"
      "{\"scenario\":\"nexus\",\"policy\":\"unthrottled\"}]";
  // Just past each bound (2^53 + 2 is the next double after 2^53).
  for (const std::string& line : {
           submit_line(9007199254740994ULL),
           submit_line(1, static_cast<int>(kMaxFanSeeds) + 1),
           std::string("{\"op\":\"submit\",\"scenario\":\"odroid\","
                       "\"app\":\"nenamark\",\"app_levels\":0}"),
           std::string("{\"op\":\"submit\",\"scenario\":\"odroid\","
                       "\"app\":\"nenamark\",\"app_levels\":2147483648}"),
           "{\"op\":\"compare\"," + arms + ",\"base_seed\":9007199254740994}",
           "{\"op\":\"compare\"," + arms + ",\"round_seeds\":2147483648}",
           std::string("{\"op\":\"status\",\"job\":9007199254740994}"),
           std::string("{\"op\":\"cancel\",\"job\":1e300}"),
       }) {
    EXPECT_NE(server.handle_line(line).find("\"code\":\"bad_request\""),
              std::string::npos)
        << line;
  }
  EXPECT_EQ(service.stats().submitted, 0u);

  // The bounds themselves are in range: seed 2^53 keeps its exact key,
  // and job 2^53 is merely unknown.
  const std::string accepted =
      server.handle_line(submit_line(9007199254740992ULL));
  EXPECT_EQ(accepted,
            "{\"ok\":true,\"op\":\"submit\",\"job\":1,\"cached\":false,"
            "\"stale\":false}");
  ASSERT_TRUE(service.wait(1, 600.0));
  const std::string canonical = service.status(1)->canonical;
  EXPECT_EQ(canonical.substr(canonical.rfind(";seed=")),
            ";seed=9007199254740992");
  EXPECT_NE(server.handle_line("{\"op\":\"status\",\"job\":9007199254740992}")
                .find("\"code\":\"unknown_job\""),
            std::string::npos);
}

TEST(SimServer, FanLanesAndCompareBudgetsAreBounded) {
  SimService service(ScenarioRegistry::standard(), small_config(1, 8));
  SimServer server(service);
  // A fan's last lane must be a seed a plain submit can reach: 2^53.
  const std::string past =
      server.handle_line(submit_line(9007199254740992ULL, 2));
  ASSERT_NE(past.find("\"code\":\"bad_request\""), std::string::npos)
      << past;
  EXPECT_EQ(service.stats().submitted, 0u);
  EXPECT_EQ(server.handle_line(submit_line(9007199254740991ULL, 2)),
            fan_response(true, 2,
                         {accepted_lane(1, false, false),
                          accepted_lane(2, false, false)}));
  ASSERT_TRUE(service.wait(2, 600.0));
  const std::string canonical = service.status(2)->canonical;
  EXPECT_EQ(canonical.substr(canonical.rfind(";seed=")),
            ";seed=9007199254740992");

  // A compare may ask for at most kMaxFanSeeds runs over all its arms.
  const auto compare_line = [](int max_seeds) {
    return "{\"op\":\"compare\",\"arms\":[{\"scenario\":\"nexus\","
           "\"duration_s\":1},{\"scenario\":\"nexus\",\"duration_s\":1}],"
           "\"max_seeds\":" +
           std::to_string(max_seeds) + "}";
  };
  const std::string over = server.handle_line(compare_line(513));
  ASSERT_NE(over.find("\"code\":\"bad_request\""), std::string::npos)
      << over;
  EXPECT_EQ(service.stats().submitted, 2u);
  const json::Value at =
      json::Value::parse(server.handle_line(compare_line(512)));
  ASSERT_TRUE(at.find("ok")->as_bool());
  const auto id = static_cast<std::uint64_t>(at.find("job")->as_number());
  EXPECT_TRUE(service.cancel(id));
  EXPECT_TRUE(service.wait(id, 600.0));
}

TEST(SimServer, WaitsDurationsAndAppLevelsAreBoundedAtAdmission) {
  SimService service(ScenarioRegistry::standard(),
                     small_config(/*workers=*/1, /*queue_capacity=*/8));
  SimServer server(service);
  // Occupy the only worker so job 2 stays queued.
  const SubmitOutcome blocker = service.submit(long_request(1));
  ASSERT_TRUE(blocker.accepted);
  wait_until_running(service, blocker.id);
  const SubmitOutcome queued = service.submit(short_request(2));
  ASSERT_TRUE(queued.accepted);

  // A timeout beyond kMaxWaitSeconds is refused before any conversion to
  // clock ticks, instead of returning at once with "done":false.
  const std::string wait =
      server.handle_line("{\"op\":\"wait\",\"job\":" +
                         std::to_string(queued.id) + ",\"timeout_s\":1e300}");
  EXPECT_NE(wait.find("\"code\":\"bad_request\""), std::string::npos)
      << wait;

  const auto duration_line = [](const std::string& duration_s) {
    return "{\"op\":\"submit\",\"scenario\":\"nexus\",\"app\":\"paperio\","
           "\"duration_s\":" +
           duration_s + "}";
  };
  const auto levels_line = [](int levels) {
    return "{\"op\":\"submit\",\"scenario\":\"odroid\","
           "\"app\":\"nenamark\",\"app_levels\":" +
           std::to_string(levels) + "}";
  };
  // Just outside [1, kMaxDurationS] and [1, kMaxAppPhases].
  for (const std::string& line :
       {duration_line("0.999"), duration_line("100000.5"),
        levels_line(static_cast<int>(workload::kMaxAppPhases) + 1)}) {
    const json::Value v = json::Value::parse(server.handle_line(line));
    EXPECT_FALSE(v.find("ok")->as_bool()) << line;
  }
  EXPECT_EQ(service.stats().submitted, 2u);

  // The bounds themselves are admitted, with the keys they always had.
  for (const auto& [line, field] :
       {std::pair<std::string, std::string>{duration_line("1"),
                                            ";duration_s=1;"},
        {duration_line("100000"), ";duration_s=100000;"},
        {levels_line(static_cast<int>(workload::kMaxAppPhases)),
         ";levels=4096;"}}) {
    const json::Value v = json::Value::parse(server.handle_line(line));
    ASSERT_TRUE(v.find("ok")->as_bool()) << line;
    const auto id = static_cast<std::uint64_t>(v.find("job")->as_number());
    EXPECT_NE(service.status(id)->canonical.find(field), std::string::npos)
        << line;
  }
}

TEST(SimServer, FanWiderThanTheFreeQueueDegradesLaneByLane) {
  ServiceConfig config = small_config(/*workers=*/1, /*queue_capacity=*/2);
  config.cache_capacity = 1;
  SimService service(ScenarioRegistry::standard(), config);
  SimServer server(service);
  // Seed 702 is cached, then evicted into the stale store by seed 900.
  const SubmitOutcome evicted = service.submit(short_request(702));
  ASSERT_TRUE(evicted.accepted);
  ASSERT_TRUE(service.wait(evicted.id, 600.0));
  const SubmitOutcome evictor = service.submit(short_request(900));
  ASSERT_TRUE(evictor.accepted);
  ASSERT_TRUE(service.wait(evictor.id, 600.0));
  // Occupy the only worker so the queue cannot drain during the fan.
  const SubmitOutcome blocker = service.submit(long_request(1));
  ASSERT_TRUE(blocker.accepted);
  wait_until_running(service, blocker.id);

  // Two free slots: lanes 700 and 701 take them, lane 702 degrades to its
  // stale entry, lanes 703 and 704 are rejected.
  const json::Value fan =
      json::Value::parse(server.handle_line(submit_line(700, 5)));
  EXPECT_FALSE(fan.find("ok")->as_bool());
  const std::vector<json::Value>& lanes = fan.find("jobs")->items();
  ASSERT_EQ(lanes.size(), 5u);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_TRUE(lanes[k].find("accepted")->as_bool()) << "lane " << k;
    const bool degraded = k == 2;
    EXPECT_EQ(lanes[k].find("cached")->as_bool(), degraded) << "lane " << k;
    EXPECT_EQ(lanes[k].find("stale")->as_bool(), degraded) << "lane " << k;
  }
  const auto stale = service.result(
      static_cast<std::uint64_t>(lanes[2].find("job")->as_number()));
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->payload, service.result(evicted.id)->payload);
  for (std::size_t k = 3; k < 5; ++k) {
    EXPECT_FALSE(lanes[k].find("accepted")->as_bool()) << "lane " << k;
    EXPECT_EQ(lanes[k].find("error")->find("code")->as_string(),
              errc::kQueueFull)
        << "lane " << k;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.stale_served, 1u);

  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_TRUE(service.cancel(
        static_cast<std::uint64_t>(lanes[k].find("job")->as_number())));
  }
  EXPECT_TRUE(service.cancel(blocker.id));
  EXPECT_TRUE(service.wait(blocker.id, 600.0));
}

TEST(SimServer, RejectedAdmissionsKeepTheirBytes) {
  // With no queue room every uncached admission is rejected, so the
  // admission fields of a plain submit, each fan lane and a compare are
  // pinned byte for byte.
  SimService service(ScenarioRegistry::standard(), small_config(1, 0));
  SimServer server(service);
  const std::string error =
      "\"error\":{\"code\":\"queue_full\","
      "\"message\":\"queue full (0 jobs pending, capacity 0)\"}";
  EXPECT_EQ(server.handle_line(submit_line(1)),
            "{\"ok\":false,\"op\":\"submit\"," + error + "}");
  EXPECT_EQ(server.handle_line(submit_line(1, 2)),
            fan_response(false, 2,
                         {"{\"accepted\":false," + error + "}",
                          "{\"accepted\":false," + error + "}"}));
  EXPECT_EQ(server.handle_line(
                "{\"op\":\"compare\",\"arms\":[{\"scenario\":\"nexus\"},"
                "{\"scenario\":\"nexus\",\"policy\":\"unthrottled\"}]}"),
            "{\"ok\":false,\"op\":\"compare\"," + error + "}");
  EXPECT_EQ(service.stats().rejected, 4u);
}

TEST(SimServer, ServeFramesStdinLikeTheSocket) {
  // An oversized line is answered oversized_line, a whitespace-only line
  // gets no response, and the next request is served.
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  std::istringstream in(std::string(80 * 1024, 'x') + "\n \t\r\n" +
                        "{\"op\":\"stats\"}\n");
  std::ostringstream out;
  server.serve(in, out);
  std::istringstream responses(out.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(responses, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u) << out.str();
  EXPECT_NE(lines[0].find("\"code\":\"oversized_line\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"op\":\"stats\""), std::string::npos) << lines[1];
}

// One '\n'-ended line read from `fd`; "" after 5 s without one.
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (true) {
    pollfd ready{fd, POLLIN, 0};
    if (::poll(&ready, 1, 5000) != 1 || ::read(fd, &c, 1) != 1) return "";
    if (c == '\n') return line;
    line += c;
  }
}

TEST(SimServer, ServeAnswersAPipeLineByLine) {
  // An interactive client writes one request and reads its answer before
  // it writes the next: serve must answer each line as it arrives, not
  // wait for a full chunk or for EOF. Over both kinds of std::cin buffer:
  // unsynced (a filebuf, as mobitherm_serve uses) and synced with stdio.
  // Then two lines in one write: the first is answered while the second,
  // a wait on a run that holds the only worker, still blocks.
  const auto write_all = [](int fd, const std::string& bytes) {
    EXPECT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  };
  for (const bool synced : {false, true}) {
    SimService service(ScenarioRegistry::standard(), small_config());
    SimServer server(service);
    int to_server[2];
    int from_server[2];
    ASSERT_EQ(::pipe(to_server), 0);
    ASSERT_EQ(::pipe(from_server), 0);
    std::FILE* in_file = ::fdopen(to_server[0], "r");
    __gnu_cxx::stdio_filebuf<char> file_buf(in_file, std::ios::in);
    __gnu_cxx::stdio_sync_filebuf<char> sync_buf(in_file);
    __gnu_cxx::stdio_filebuf<char> out_buf(from_server[1], std::ios::out);
    std::istream in(synced ? static_cast<std::streambuf*>(&sync_buf)
                           : &file_buf);
    std::ostream out(&out_buf);
    std::thread serving([&] { server.serve(in, out); });
    for (int i = 0; i < 3; ++i) {
      write_all(to_server[1], "{\"op\":\"status\",\"job\":" +
                                  std::to_string(i) + "}\n");
      const std::string response = read_line(from_server[0]);
      EXPECT_NE(response.find("unknown job: " + std::to_string(i) + "\""),
                std::string::npos)
          << "synced " << synced << ", request " << i << ": " << response;
    }
    write_all(to_server[1],
              "{\"op\":\"submit\",\"scenario\":\"nexus\","
              "\"duration_s\":100000}\n");
    EXPECT_NE(read_line(from_server[0]).find("\"job\":1,"),
              std::string::npos);
    write_all(to_server[1],
              "{\"op\":\"stats\"}\n"
              "{\"op\":\"wait\",\"job\":1,\"timeout_s\":10}\n");
    EXPECT_NE(read_line(from_server[0]).find("\"op\":\"stats\""),
              std::string::npos)
        << "synced " << synced;
    service.cancel(1);  // ends the wait
    EXPECT_NE(read_line(from_server[0]).find("\"op\":\"wait\""),
              std::string::npos);
    ::close(to_server[1]);  // EOF ends serve
    serving.join();
    std::fclose(in_file);
    ::close(from_server[0]);
  }
}

// --- job retirement ----------------------------------------------------------
//
// The table keeps at most kMaxTerminalJobs terminal jobs, and a read job
// only until kMaxReadJobs later jobs have been read. A retired id answers
// job_retired; an id never admitted stays unknown_job.

/// A `{"op":op,"job":id}` line.
std::string job_line(const std::string& op, std::uint64_t id) {
  return "{\"op\":\"" + op + "\",\"job\":" + std::to_string(id) + "}";
}

/// The error code of a response line; "" when it has none.
std::string error_code(const std::string& response) {
  const json::Value parsed = json::Value::parse(response);
  const json::Value* err = parsed.find("error");
  return err == nullptr ? "" : err->find("code")->as_string();
}

/// Job 1 runs short_request(42) cold; jobs 2..`jobs` are its cache hits.
void admit_cached_jobs(SimServer& server, std::uint64_t jobs) {
  server.handle_line(submit_line(42));
  server.handle_line("{\"op\":\"wait\",\"job\":1,\"timeout_s\":600}");
  for (std::uint64_t id = 2; id <= jobs; ++id) {
    server.handle_line(submit_line(42));
  }
}

TEST(SimServer, ReadJobIsRetiredAfterLaterReads) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  admit_cached_jobs(server, kMaxReadJobs + 2);
  ASSERT_EQ(error_code(server.handle_line(job_line("result", 1))), "");
  for (std::uint64_t id = 2; id <= kMaxReadJobs; ++id) {
    ASSERT_EQ(error_code(server.handle_line(job_line("result", id))), "");
  }
  // 63 later reads: job 1 is still held.
  EXPECT_EQ(error_code(server.handle_line(job_line("status", 1))), "");
  // The 64th later read retires it.
  server.handle_line(job_line("result", kMaxReadJobs + 1));
  for (const char* op : {"status", "result", "wait", "cancel"}) {
    const std::string response = server.handle_line(job_line(op, 1));
    EXPECT_EQ(error_code(response), errc::kJobRetired) << response;
    EXPECT_NE(response.find("job retired: 1"), std::string::npos) << response;
  }
  EXPECT_TRUE(service.retired(1));
  // The later jobs, read or not, are held; an id never admitted is
  // unknown to all four ops.
  EXPECT_EQ(error_code(server.handle_line(job_line("result", 2))), "");
  EXPECT_EQ(
      error_code(server.handle_line(job_line("status", kMaxReadJobs + 2))),
      "");
  const std::uint64_t never = kMaxReadJobs + 3;
  EXPECT_FALSE(service.retired(never));
  EXPECT_FALSE(service.retired(0));
  for (const char* op : {"status", "result", "wait", "cancel"}) {
    const std::string response = server.handle_line(job_line(op, never));
    EXPECT_EQ(error_code(response), errc::kUnknownJob) << response;
    EXPECT_NE(response.find("unknown job: " + std::to_string(never)),
              std::string::npos)
        << response;
  }
}

TEST(SimServer, CancelOfAFinishedJobIsNotCancelled) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  admit_cached_jobs(server, 2);
  // Job 1 ran and job 2 was a cache hit; both are done and held.
  for (std::uint64_t id = 1; id <= 2; ++id) {
    ASSERT_FALSE(service.retired(id));
    EXPECT_EQ(server.handle_line(job_line("cancel", id)),
              "{\"ok\":true,\"op\":\"cancel\",\"job\":" +
                  std::to_string(id) + ",\"cancelled\":false}");
    EXPECT_EQ(error_code(server.handle_line(job_line("result", id))), "");
  }
}

TEST(SimServer, RepeatReadsInsideTheWindowKeepTheirBytes) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  admit_cached_jobs(server, kMaxReadJobs + 1);
  const std::string first = server.handle_line(job_line("result", 1));
  ASSERT_NE(first.find("\"result\":{"), std::string::npos) << first;
  // Re-reading one job, however often, is one read: job 1 stays.
  const std::string second = server.handle_line(job_line("result", 2));
  for (std::size_t i = 0; i < 2 * kMaxReadJobs; ++i) {
    ASSERT_EQ(server.handle_line(job_line("result", 2)), second);
  }
  EXPECT_EQ(server.handle_line(job_line("result", 1)), first);
  for (std::uint64_t id = 3; id <= kMaxReadJobs + 1; ++id) {
    server.handle_line(job_line("result", id));
  }
  EXPECT_EQ(error_code(server.handle_line(job_line("result", 1))),
            errc::kJobRetired);
}

TEST(SimServer, OnlyTheNewestTerminalJobsAreKept) {
  SimService service(ScenarioRegistry::standard(), small_config());
  SimServer server(service);
  const std::uint64_t jobs = 1100;  // none of them read
  admit_cached_jobs(server, jobs);
  const std::uint64_t oldest_kept = jobs - kMaxTerminalJobs + 1;
  for (std::uint64_t id = 1; id <= jobs; ++id) {
    ASSERT_EQ(service.status(id).has_value(), id >= oldest_kept) << id;
    ASSERT_EQ(service.retired(id), id < oldest_kept) << id;
  }
  EXPECT_EQ(error_code(server.handle_line(job_line("result", 1))),
            errc::kJobRetired);
  EXPECT_EQ(error_code(server.handle_line(job_line("result", oldest_kept))),
            "");
}

TEST(SimService, QueuedAndRunningJobsAreNeverRetired) {
  SimService service(ScenarioRegistry::standard(), small_config(1, 4));
  const std::uint64_t warm = service.submit(short_request()).id;
  ASSERT_TRUE(service.wait(warm, 600.0));
  const SubmitOutcome running = service.submit(long_request(7));
  ASSERT_TRUE(running.accepted);
  wait_until_running(service, running.id);
  const SubmitOutcome queued = service.submit(long_request(8));
  ASSERT_TRUE(queued.accepted);
  for (std::size_t i = 0; i < kMaxTerminalJobs + 10; ++i) {
    ASSERT_TRUE(service.submit(short_request()).cached);
  }
  EXPECT_TRUE(service.retired(warm));
  ASSERT_TRUE(service.status(running.id).has_value());
  EXPECT_EQ(service.status(running.id)->state, JobState::kRunning);
  ASSERT_TRUE(service.status(queued.id).has_value());
  EXPECT_EQ(service.status(queued.id)->state, JobState::kQueued);
  // Both are left to the destructor: after its walk over the table it
  // cancels the queued job, which retires the oldest terminal job.
}

// --- cooperative stop token ------------------------------------------------

TEST(EngineStopToken, PreSetTokenPreventsAnyTick) {
  std::unique_ptr<sim::Engine> engine =
      standard_registry().make_engine(short_request());
  std::atomic<bool> stop{true};
  const double before = engine->now_s();
  engine->run(5.0, &stop);
  EXPECT_EQ(engine->now_s(), before);
}

TEST(EngineStopToken, MidRunStopEndsEarly) {
  std::unique_ptr<sim::Engine> engine =
      standard_registry().make_engine(long_request());
  std::atomic<bool> stop{false};
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    stop.store(true, std::memory_order_relaxed);
  });
  engine->run(100000.0, &stop);
  stopper.join();
  EXPECT_LT(engine->now_s(), 100000.0);
  EXPECT_GT(engine->now_s(), 0.0);
}

TEST(BatchRunnerStopToken, PreSetTokenSkipsRuns) {
  sim::BatchOptions options;
  options.threads = 2;
  const sim::BatchRunner runner(options);
  std::atomic<bool> stop{true};
  const auto records = runner.run(
      3, 1, 1.0,
      [](std::size_t, std::uint64_t seed) {
        sim::NexusRun run;
        run.app = workload::paperio();
        run.seed = seed;
        return sim::make_nexus_engine(run);
      },
      sim::MetricsOptions{}, &stop);
  ASSERT_EQ(records.size(), 3u);
  for (const sim::BatchRecord& rec : records) {
    EXPECT_FALSE(rec.completed);
  }
}

}  // namespace
}  // namespace mobitherm::service
