// perfbench_harness: drives mobitherm through its public calls for the
// benchmark's workloads and prints raw measurements as one JSON line;
// perfbench/run.py turns them into the benchmark's metrics.
//
//   perfbench_harness sweep  --seed N --seconds S [--trace 1] --out DIR
//   perfbench_harness cold   --port P --pid PID --seed N --seconds S ...
//   perfbench_harness warm   --port P --pid PID --seed N --seconds S ...
//   perfbench_harness layers --seed N --out DIR
//   perfbench_harness selftest
//
// `sweep` is the in-process library path (BatchRunner fans and a
// CompareRunner verdict). `cold` and `warm` are socket clients of a
// mobitherm_serve child whose pid they read /proc counters from. `layers`
// replays generated requests in-process through each inner boundary in
// turn (handle_line -> ServiceApi -> canonical_key/make_engine ->
// Engine::run -> summarize -> serialize_result) and times the kernels
// underneath. With --trace 1 every public call of the timed phase is
// recorded as a span; run.py compares such a run with an untraced one.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client.h"
#include "gen.h"
#include "linalg/matrix.h"
#include "service/result_cache.h"
#include "service/scenario_registry.h"
#include "service/server.h"
#include "service/service.h"
#include "sim/batch.h"
#include "sim/compare.h"
#include "sim/metrics.h"
#include "sim/observer.h"
#include "sim/report.h"
#include "thermal/network.h"
#include "util/json.h"
#include "util/units.h"
#include "workload/pack.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

namespace json = mobitherm::util::json;
namespace sim = mobitherm::sim;
namespace service = mobitherm::service;

/// The seed whose first-cycle payload digests are pinned below.
constexpr std::uint64_t kDefaultSeed = 1;
/// Every workload runs these three fixed requests (one per family) during
/// set-up, whatever its seed, and checks their digest against
/// kCanaryDigest: the in-process and the socket paths must agree on it.
constexpr std::uint64_t kCanarySeed = 2019;
constexpr const char* kCanaryDigest = "61f2b1a389ea7638";
/// Digest of the first cycle's payloads at kDefaultSeed (serve_warm: its
/// warm-up payloads).
const std::map<std::string, std::string>& first_cycle_pins() {
  static const std::map<std::string, std::string> pins = {
      {"sweep", "3281e6bd398c8457"},
      {"cold", "0aa8014bc72863fd"},
      {"warm", "d544152888d54549"}};
  return pins;
}

struct Args {
  std::string mode;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool shutdown = false;
  int port = 0;
  int pid = 0;
  std::string out = ".";
  std::string tag = "run";
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    throw std::runtime_error("missing mode");
  }
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::runtime_error(flag + " needs a value");
      }
      return argv[++i];
    };
    if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--shutdown") {
      a.shutdown = value() != "0";
    } else if (flag == "--port") {
      a.port = std::stoi(value());
    } else if (flag == "--pid") {
      a.pid = std::stoi(value());
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--tag") {
      a.tag = value();
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  return a;
}

/// Worker threads of the in-process workloads: the 4 they are shaped for,
/// or fewer where fewer CPUs are allowed.
unsigned bench_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int allowed =
      ::sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
  return static_cast<unsigned>(std::clamp(allowed, 1, 4));
}

/// Collects the values and sample files of one harness invocation and
/// prints them as the last line of stdout.
class Output {
 public:
  explicit Output(const Args& args) : args_(args) {}

  void value(const std::string& name, double v) {
    values_.set(name, json::Value::number(v));
  }
  void text(const std::string& name, const std::string& v) {
    values_.set(name, json::Value::string(v));
  }

  /// Raw float64 samples, written to <out>/<tag>.<name>.f64.
  void samples(const std::string& name, const std::vector<double>& v) {
    const std::string path = args_.out + "/" + args_.tag + "." + name + ".f64";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr || std::fwrite(v.data(), sizeof(double), v.size(), f) !=
                            v.size()) {
      throw std::runtime_error("cannot write " + path);
    }
    std::fclose(f);
    files_.set(name, json::Value::string(path));
  }

  void spans(const SpanLog& log) {
    const std::string path = args_.out + "/" + args_.tag + ".spans.csv";
    if (!log.write(path)) {
      throw std::runtime_error("cannot write " + path);
    }
    text("spans", path);
  }

  /// Compares a first-cycle digest with its pin at the default seed.
  void check_first_cycle(const std::string& workload, const std::string& hex,
                         Tally& tally) {
    text("digest.first_cycle", hex);
    const std::string& pin = first_cycle_pins().at(workload);
    if (args_.seed == kDefaultSeed && hex != pin) {
      tally.error(workload + " first-cycle digest " + hex + " != pinned " +
                  pin);
    }
  }

  void print(const Tally& tally) const {
    json::Value out = json::Value::object();
    out.set("attempted",
            json::Value::number(static_cast<double>(tally.attempted)));
    out.set("failed", json::Value::number(static_cast<double>(tally.failed)));
    json::Value errors = json::Value::array();
    for (const std::string& e : tally.errors) {
      errors.push(json::Value::string(e));
    }
    out.set("errors", errors);
    json::Value failures = json::Value::array();
    for (const std::string& e : tally.failures) {
      failures.push(json::Value::string(e));
    }
    out.set("failures", failures);
    out.set("values", values_);
    out.set("samples", files_);
    std::printf("%s\n", out.dump().c_str());
  }

 private:
  const Args& args_;
  json::Value values_ = json::Value::object();
  json::Value files_ = json::Value::object();
};

/// The registry mobitherm_serve builds: the paper's scenario families
/// plus the built-in synthetic stressor pack.
ScenarioRegistry make_registry() {
  ScenarioRegistry registry = ScenarioRegistry::standard();
  auto packs = std::make_shared<mobitherm::workload::PackSet>();
  packs->add(mobitherm::workload::synthetic_stressor_pack());
  registry.attach_packs(std::move(packs));
  return registry;
}

/// Fixed requests independent of --seed: the canary first, then filler
/// up to `n`.
std::vector<SimRequest> fixed_requests(std::size_t n) {
  std::vector<SimRequest> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(family_request(kFamilies[i % 3], kCanarySeed + i));
  }
  return out;
}

void check_canary(const std::vector<std::string>& payloads, Tally& tally,
                  Output& out) {
  Digest d;
  for (std::size_t i = 0; i < kFamilies.size() && i < payloads.size(); ++i) {
    d.fold(payloads[i]);
  }
  out.text("digest.canary", d.hex());
  if (payloads.size() < kFamilies.size()) {
    tally.error("canary requests did not complete");
  } else if (d.hex() != kCanaryDigest) {
    tally.error("canary digest " + d.hex() + " != pinned " + kCanaryDigest);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- sweep

/// One BatchRunner fan: the serialized payloads in run order (empty when
/// the fan failed), each run's BatchRecord::wall_s and the makespan.
struct Fan {
  std::vector<std::string> payloads;
  std::vector<double> run_wall_ms;
  double ms = 0.0;
};

Fan run_fan(const sim::BatchRunner& runner, const ScenarioRegistry& registry,
            const std::vector<SimRequest>& requests, const char* name,
            SpanLog& spans, Tally& tally) {
  ++tally.attempted;
  Fan fan;
  std::vector<sim::BatchRecord> records;
  const double t0 = now_s();
  try {
    ScopedSpan root(spans, name);
    const std::int64_t parent = root.index();
    records = runner.run(
        requests.size(), 0, kRunSimSeconds,
        [&](std::size_t index, std::uint64_t) {
          ScopedSpan span(spans, "registry.make_engine", parent,
                          requests[index].seed);
          return registry.make_engine(requests[index]);
        });
  } catch (const std::exception& e) {
    tally.fail(std::string(name) + ": " + e.what());
    return fan;
  }
  fan.ms = (now_s() - t0) * 1e3;
  ScopedSpan span(spans, "service.serialize_result");
  for (const sim::BatchRecord& rec : records) {
    if (!rec.completed) {
      tally.fail(std::string(name) + ": incomplete BatchRecord");
      fan.payloads.clear();
      return fan;
    }
    fan.run_wall_ms.push_back(rec.wall_s * 1e3);
    fan.payloads.push_back(
        service::serialize_result(rec.metrics, rec.report));
  }
  return fan;
}

/// One CompareRunner verdict on the Sec. IV-C pair; returns a canonical
/// rendering of the verdict (empty on failure).
std::string run_verdict(const sim::BatchOptions& batch,
                        const ScenarioRegistry& registry, std::uint64_t base,
                        SpanLog& spans, Tally& tally, double& ms,
                        double& sim_s) {
  ++tally.attempted;
  sim::CompareOptions options;
  options.max_seeds = kCompareMaxSeeds;
  options.round_seeds = kCompareRoundSeeds;
  options.min_seeds = kCompareRoundSeeds;
  options.base_seed = base;
  options.higher_is_better =
      sim::compare_metric_higher_is_better(kCompareMetric);
  options.duration_s = kRunSimSeconds;
  options.metric = [](const sim::BatchRecord& rec) {
    return sim::compare_metric_value(rec.metrics, kCompareMetric);
  };
  options.batch = batch;
  const double t0 = now_s();
  sim::CompareResult result;
  try {
    ScopedSpan root(spans, "sweep.verdict", -1, base);
    const std::int64_t parent = root.index();
    std::vector<sim::CompareArm> arms;
    for (const SimRequest& arm : compare_arms()) {
      arms.push_back({arm.policy, [&registry, &spans, arm, parent](
                                      std::size_t, std::uint64_t seed) {
                        SimRequest lane = arm;
                        lane.seed = seed;
                        ScopedSpan span(spans, "registry.make_engine", parent,
                                        seed);
                        return registry.make_engine(lane);
                      }});
    }
    result = sim::CompareRunner(options).run(arms);
  } catch (const std::exception& e) {
    tally.fail(std::string("verdict: ") + e.what());
    return {};
  }
  ms = (now_s() - t0) * 1e3;
  if (!result.completed) {
    tally.fail("verdict: incomplete");
    return {};
  }
  sim_s += result.seeds_per_arm * static_cast<double>(result.arms.size()) *
           kRunSimSeconds;
  std::string v = "best=" + std::to_string(result.best) +
                  ";separated=" + std::to_string(result.separated) +
                  ";rounds=" + std::to_string(result.rounds) +
                  ";seeds_per_arm=" + std::to_string(result.seeds_per_arm);
  for (const sim::ArmStats& arm : result.arms) {
    v += ";mean=" + json::format_number(arm.mean) +
         ",hw=" + json::format_number(arm.half_width) +
         ",n=" + std::to_string(arm.n);
  }
  return v;
}

/// sweep: cycles of a 16-run fan (a Table I confidence fan), two 8-run
/// fans (a CompareRunner round each), 24 single runs and a compare
/// verdict; runs cycle through the three families within a fan and across
/// the singles. The 16-run fan counts in the rates only: whether its two
/// lockstep groups run at full or at half speed side by side depends on
/// the host, so its makespan was either about one or about two 8-run
/// fans', from one batch of runs to the next.
void sweep_phase(const sim::BatchOptions& batch,
                 const ScenarioRegistry& registry, ColdKeyGen& gen,
                 double seconds, SpanLog& spans, Tally& tally, Output& out) {
  const sim::BatchRunner runner(batch);
  std::vector<double> runs, fan8, verdicts;
  double sim_s = 0.0;
  double busy_s = 0.0;
  std::size_t ops = 0;
  Digest digest;
  std::string first_cycle;
  const double end = now_s() + seconds;
  // A cycle's fans, then its single runs (enough for a p90 with room to
  // spare), then its verdict.
  constexpr std::size_t kFans[] = {16, 8, 8};
  constexpr std::size_t kSingles = 24;
  for (std::size_t cycle = 0; now_s() < end; ++cycle) {
    for (std::size_t unit = 0; unit < std::size(kFans) + kSingles; ++unit) {
      if (now_s() >= end) {
        break;
      }
      const std::size_t size = unit < std::size(kFans) ? kFans[unit] : 1;
      std::vector<SimRequest> requests;
      for (std::size_t i = 0; i < size; ++i) {
        // A fan cycles the families over its runs; singles over the cycle.
        requests.push_back(gen.plain(kFamilies[(size == 1 ? unit : i) % 3]));
      }
      const Fan fan = run_fan(runner, registry, requests,
                              size == 16  ? "sweep.fan16"
                              : size == 8 ? "sweep.fan8"
                                          : "sweep.run",
                              spans, tally);
      if (fan.payloads.empty()) {
        continue;
      }
      if (size == 8) {
        fan8.push_back(fan.ms);
      } else if (size == 1) {
        runs.push_back(fan.ms);
      }
      busy_s += fan.ms / 1e3;
      sim_s += static_cast<double>(size) * kRunSimSeconds;
      ++ops;
      for (const std::string& p : fan.payloads) {
        digest.fold(p);
      }
    }
    if (now_s() >= end) {
      break;
    }
    double ms = 0.0;
    const std::string verdict = run_verdict(
        batch, registry, gen.compare_base(), spans, tally, ms, sim_s);
    if (!verdict.empty()) {
      verdicts.push_back(ms);
      busy_s += ms / 1e3;
      ++ops;
      digest.fold(verdict);
    }
    if (cycle == 0) {
      first_cycle = digest.hex();
    }
  }
  out.value("sim_s", sim_s);
  out.value("busy_s", busy_s);
  out.value("ops", static_cast<double>(ops));
  out.samples("run_ms", runs);
  out.samples("fan8_ms", fan8);
  out.samples("verdict_ms", verdicts);
  if (!first_cycle.empty()) {
    out.check_first_cycle("sweep", first_cycle, tally);
  }
}

int run_sweep(const Args& args) {
  Tally tally;
  SpanLog spans;
  Output out(args);
  sim::BatchOptions batch;
  batch.threads = bench_threads();
  // Set-up: the registry plus a warm-up fan of the fixed requests. run.py
  // times it from this process's spawn to `ready_mono_s`.
  const ScenarioRegistry registry = make_registry();
  check_canary(run_fan(sim::BatchRunner(batch), registry, fixed_requests(8),
                       "sweep.warmup", spans, tally)
                   .payloads,
               tally, out);
  out.value("ready_mono_s", monotonic_s());

  ColdKeyGen gen(registry, args.seed);
  spans.set_enabled(args.trace);
  sweep_phase(batch, registry, gen, args.seconds, spans, tally, out);
  spans.set_enabled(false);
  if (args.trace) {
    out.spans(spans);
  }
  out.value("vmhwm_kb", proc_status_kb(0, "VmHWM:"));
  out.print(tally);
  return 0;
}

// ---------------------------------------------------------------- socket

double stat_number(const json::Value& stats, const char* key,
                   const char* group = nullptr) {
  const json::Value* scope = group ? stats.find(group) : &stats;
  const json::Value* v = scope ? scope->find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->as_number() : -1.0;
}

/// Stats-op counters a socket phase reports as deltas; -1 when the
/// server no longer exposes the counter.
constexpr const char* kStatCounters[] = {
    "compares", "compare_rounds", "compare_lane_runs", "compare_lane_hits",
    "wide_jobs", "lockstep_lanes", "submitted", "completed"};
constexpr const char* kCacheCounters[] = {"hits", "misses", "evictions"};

int run_socket(const Args& args, bool warm) {
  Tally tally;
  SpanLog spans;
  Output out(args);
  const ScenarioRegistry registry = make_registry();
  ColdKeyGen gen(registry, args.seed);
  Conn conn(args.port);
  BlockingClient client(conn, tally, spans);

  const double t0 = now_s();
  std::vector<std::string> canary;
  for (const SimRequest& r : fixed_requests(kFamilies.size())) {
    const auto ids = client.admit(submit_line(r), "protocol.submit", -1);
    if (ids.size() == 1) {
      canary.push_back(client.fetch(ids[0], -1));
    }
  }
  check_canary(canary, tally, out);
  std::vector<WarmKey> keys;
  if (warm) {
    keys = warm_key_set(gen);
    warm_up(client, keys, tally);
    Digest d;
    for (const WarmKey& k : keys) {
      for (const std::string& p : k.payloads) {
        d.fold(p);
      }
    }
    out.check_first_cycle("warm", d.hex(), tally);
  }
  out.value("setup_s", now_s() - t0);

  const json::Value before = client.stats();
  const double cpu0 = proc_cpu_s(args.pid);
  const double rss0 = proc_status_kb(args.pid, "VmRSS:");
  spans.set_enabled(args.trace);
  LoopResult r;
  if (warm) {
    ZipfStream zipf(mobitherm::util::derive_seed(args.seed, 1000),
                    keys.size());
    run_warm(conn, keys, zipf, args.seconds, tally, spans, r);
  } else {
    run_cold(client, gen, args.seconds, spans, r);
  }
  out.value("server_cpu_s", proc_cpu_s(args.pid) - cpu0);
  if (warm) {
    time_warm_composites(conn, keys, tally, spans, r);
  }
  spans.set_enabled(false);
  out.value("rss_delta_kb", proc_status_kb(args.pid, "VmRSS:") - rss0);
  const json::Value after = client.stats();
  for (const char* key : kStatCounters) {
    const double a = stat_number(after, key);
    out.value(key, a < 0 ? -1.0 : a - stat_number(before, key));
  }
  for (const char* key : kCacheCounters) {
    out.value(std::string("cache_") + key,
              stat_number(after, key, "cache") -
                  stat_number(before, key, "cache"));
  }
  out.value("sim_s", r.sim_s);
  out.value("wall_s", r.wall_s);
  out.value("ops", static_cast<double>(r.ops));
  out.value("submit_ops", static_cast<double>(r.submit_ops));
  out.samples("p50_ms", r.p50_ms);
  out.samples("fan_ms", r.fan_ms);
  out.samples("verdict_ms", r.verdict_ms);
  if (warm) {
    if (stat_number(after, "misses", "cache") !=
            stat_number(before, "misses", "cache") ||
        stat_number(after, "hits", "cache") <=
            stat_number(before, "hits", "cache")) {
      tally.error("serve_warm timed phase hit ratio is not 1.0");
    }
  } else {
    if (!r.first_cycle.empty()) {
      out.check_first_cycle("cold", r.first_cycle, tally);
    }
    if (stat_number(after, "hits", "cache") != 0.0 ||
        stat_number(after, "compare_lane_hits") > 0.0) {
      tally.error("serve_cold read a cache hit");
    }
  }
  out.value("vmhwm_kb", proc_status_kb(args.pid, "VmHWM:"));
  if (args.trace) {
    out.spans(spans);
  }
  if (args.shutdown) {
    const std::string resp = conn.request("{\"op\":\"shutdown\"}");
    if (!ok_response(resp)) {
      tally.fail("shutdown: " + resp);
    }
  }
  out.print(tally);
  return 0;
}

// ---------------------------------------------------------------- layers

/// Counts what an external observer sees; never touches the engine.
class CountingObserver final : public sim::SimObserver {
 public:
  void on_tick(const sim::TickInfo&) override { ++ticks; }
  void on_governor_decision(const sim::GovernorDecisionEvent&) override {
    ++decisions;
  }
  void on_dvfs_transition(const sim::DvfsTransitionEvent&) override {
    ++transitions;
  }
  std::size_t ticks = 0;
  std::size_t decisions = 0;
  std::size_t transitions = 0;
};

/// Mean wall time per call of `fn(i)` over `n` calls, as the median of 5
/// batches (µs).
template <typename Fn>
double per_call_us(std::size_t n, Fn&& fn) {
  std::vector<double> batches;
  std::size_t i = 0;
  for (int b = 0; b < 5; ++b) {
    const double t0 = now_s();
    for (std::size_t k = 0; k < n; ++k, ++i) {
      fn(i);
    }
    batches.push_back((now_s() - t0) / static_cast<double>(n) * 1e6);
  }
  return median(batches);
}

std::string wait_line(std::uint64_t job) {
  return "{\"op\":\"wait\",\"job\":" + std::to_string(job) +
         ",\"timeout_s\":60}";
}
std::string result_line(std::uint64_t job) {
  return "{\"op\":\"result\",\"job\":" + std::to_string(job) + "}";
}

int run_layers(const Args& args) {
  Tally tally;
  SpanLog spans;
  spans.set_enabled(true);
  Output out(args);
  const ScenarioRegistry registry = make_registry();
  ColdKeyGen gen(registry, args.seed);
  service::ServiceConfig config;
  config.workers = 1;
  service::SimService line_service(registry, config);
  service::SimServer server(line_service);
  service::SimService api_service(registry, config);

  std::map<Family, std::vector<double>> tick_us;
  std::map<Family, double> step_ns, gemv_ns;
  std::vector<double> build_us, summarize_us, serialize_us, api_ms,
      handoff_ms;
  double decisions = 0, transitions = 0, sim_s = 0, run_s = 0, step_s = 0;
  std::vector<SimRequest> replayed;
  std::vector<std::uint64_t> done_jobs;
  for (int round = 0; round < 2; ++round) {
    for (const Family family : kFamilies) {
      const SimRequest r = gen.plain(family);
      replayed.push_back(r);
      ++tally.attempted;
      ScopedSpan root(spans, "replay.request", -1, r.seed);
      std::string line_payload, api_payload, payload;
      {
        ScopedSpan span(spans, "server.handle_line", root.index(), r.seed);
        const auto ids = job_ids(server.handle_line(submit_line(r)));
        if (ids.size() == 1) {
          server.handle_line(wait_line(ids[0]));
          line_payload = payload_of(server.handle_line(result_line(ids[0])));
          done_jobs.push_back(ids[0]);
        }
      }
      double t = now_s();
      {
        ScopedSpan span(spans, "service.api", root.index(), r.seed);
        const service::SubmitOutcome o = api_service.submit(r);
        if (o.accepted && api_service.wait(o.id, kWaitTimeoutS)) {
          if (const auto res = api_service.result(o.id)) {
            api_payload = res->payload;
          }
        }
      }
      const double api = now_s() - t;
      api_ms.push_back(api * 1e3);

      t = now_s();
      std::string key;
      {
        ScopedSpan span(spans, "registry.canonical_key", root.index());
        key = registry.canonical_key(r);
      }
      const double key_s = now_s() - t;
      t = now_s();
      std::unique_ptr<sim::Engine> engine;
      {
        ScopedSpan span(spans, "registry.make_engine", root.index());
        engine = registry.make_engine(r);
        engine->set_runaway_guard(registry.runaway_guard_temp_k(
            registry.resolve(r), config.guard_max_temp_c));
      }
      const double build_s = now_s() - t;
      sim::MetricsObserver tap(config.metrics);
      CountingObserver counts;
      engine->add_observer(&tap);
      engine->add_observer(&counts);
      t = now_s();
      {
        ScopedSpan span(spans, "engine.run", root.index());
        engine->run(r.duration_s);
      }
      const double run = now_s() - t;
      t = now_s();
      sim::RunMetrics metrics;
      sim::RunReport report;
      {
        ScopedSpan span(spans, "sim.summarize", root.index());
        metrics = tap.metrics(*engine);
        report = sim::make_report(*engine, config.metrics.temp_limit_c);
      }
      const double summarize_s = now_s() - t;
      t = now_s();
      {
        ScopedSpan span(spans, "service.serialize_result", root.index());
        payload = service::serialize_result(metrics, report);
      }
      const double serialize_s = now_s() - t;
      if (payload.empty() || payload != api_payload ||
          payload != line_payload) {
        tally.error("in-process payloads differ across boundaries for " +
                    key);
      }

      build_us.push_back(build_s * 1e6);
      summarize_us.push_back(summarize_s * 1e6);
      serialize_us.push_back(serialize_s * 1e6);
      handoff_ms.push_back(
          (api - key_s - build_s - run - summarize_s - serialize_s) * 1e3);
      tick_us[family].push_back(run / static_cast<double>(counts.ticks) *
                                1e6);
      decisions += static_cast<double>(counts.decisions);
      transitions += static_cast<double>(counts.transitions);
      sim_s += r.duration_s;
      run_s += run;

      if (round == 0) {
        // The thermal step and the gemv inside it, at this network's size.
        mobitherm::thermal::ThermalNetwork net(engine->network().spec(),
                                               engine->network().method());
        const std::size_t n = net.num_nodes();
        const mobitherm::linalg::Vector power(n, 0.5);
        constexpr int kSteps = 20000;
        double t0 = now_s();
        for (int k = 0; k < kSteps; ++k) {
          net.step(power, mobitherm::util::seconds(1e-3));
        }
        step_ns[family] = (now_s() - t0) / kSteps * 1e9;
        mobitherm::linalg::Matrix m(n, n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            m(i, j) = 1.0 / static_cast<double>(1 + i + j);
          }
        }
        mobitherm::linalg::Vector x(n, 1.0), y;
        t0 = now_s();
        for (int k = 0; k < kSteps; ++k) {
          mobitherm::linalg::gemv(m, x, y);
          x[0] = 1.0 + y[0] * 1e-12;
        }
        gemv_ns[family] = (now_s() - t0) / kSteps * 1e9;
      }
      step_s += step_ns[family] * 1e-9 * static_cast<double>(counts.ticks);
    }
  }
  spans.set_enabled(false);

  // Cache-hit paths over the replayed (now cached) requests.
  std::vector<std::string> lines;
  for (const SimRequest& r : replayed) {
    lines.push_back(submit_line(r));
  }
  constexpr std::size_t kCalls = 2000;
  out.value("service.key_us", per_call_us(kCalls, [&](std::size_t i) {
              registry.canonical_key(replayed[i % replayed.size()]);
            }));
  out.value("service.submit_hit_us", per_call_us(kCalls, [&](std::size_t i) {
              if (!api_service.submit(replayed[i % replayed.size()]).cached) {
                tally.error("in-process resubmit missed the cache");
              }
            }));
  out.value("server.handle_line_us.submit",
            per_call_us(kCalls, [&](std::size_t i) {
              server.handle_line(lines[i % lines.size()]);
            }));
  out.value("server.handle_line_us.result",
            per_call_us(kCalls, [&](std::size_t i) {
              server.handle_line(result_line(done_jobs[i % done_jobs.size()]));
            }));
  out.value("json.parse_us", per_call_us(kCalls, [&](std::size_t i) {
              json::Value::parse(lines[i % lines.size()]);
            }));

  // Batch scheduling at the sweep's sizes, against the serial rate above.
  sim::BatchOptions batch;
  batch.threads = bench_threads();
  const sim::BatchRunner runner(batch);
  double fan_sim_s = 0, fan_wall_s = 0;
  std::vector<double> run_walls;
  for (const std::size_t size : {16, 8}) {
    std::vector<SimRequest> requests;
    for (std::size_t i = 0; i < size; ++i) {
      requests.push_back(gen.plain(kFamilies[i % 3]));
    }
    const Fan fan =
        run_fan(runner, registry, requests, "sweep.fan", spans, tally);
    if (!fan.payloads.empty()) {
      fan_sim_s += static_cast<double>(size) * kRunSimSeconds;
      fan_wall_s += fan.ms / 1e3;
      run_walls.insert(run_walls.end(), fan.run_wall_ms.begin(),
                       fan.run_wall_ms.end());
    }
  }
  const double serial_rate = sim_s / run_s;
  out.value("sim.batch.efficiency",
            fan_sim_s / fan_wall_s / (batch.threads * serial_rate));
  out.value("sim.batch.run_wall_ms", median(run_walls));

  for (const Family family : kFamilies) {
    out.value(std::string("sim.tick_us.") + family_name(family),
              median(tick_us[family]));
  }
  double step_sum = 0, gemv_sum = 0;
  for (const Family family : kFamilies) {
    step_sum += step_ns[family];
    gemv_sum += gemv_ns[family];
  }
  out.value("thermal.step_ns", step_sum / kFamilies.size());
  out.value("linalg.gemv_ns", gemv_sum / kFamilies.size());
  out.value("thermal.tick_share", step_s / run_s);
  out.value("sim.build_us", median(build_us));
  out.value("sim.summarize_us", median(summarize_us));
  out.value("sim.governor_decisions_per_sim_s", decisions / sim_s);
  out.value("sim.dvfs_transitions_per_sim_s", transitions / sim_s);
  out.value("service.cold_job_ms", median(api_ms));
  out.value("service.serialize_us", median(serialize_us));
  out.value("service.handoff_ms", median(handoff_ms));
  out.spans(spans);
  out.print(tally);
  return 0;
}

// ---------------------------------------------------------------- selftest

int run_selftest() {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  const ScenarioRegistry registry = make_registry();

  {
    // Every key the cold generator hands out, fan lanes and compare lanes
    // included, is new; checked against the registry's own keys.
    ColdKeyGen gen(registry, 7);
    std::vector<std::string> keys;
    for (int cycle = 0; cycle < 40; ++cycle) {
      for (int i = 0; i < 9; ++i) {
        keys.push_back(registry.canonical_key(
            gen.plain(kFamilies[static_cast<std::size_t>(i) % 3])));
      }
      SimRequest fan = gen.fan(kFamilies[cycle % 3], kFanLanes);
      for (int k = 0; k < kFanLanes; ++k) {
        keys.push_back(registry.canonical_key(fan));
        ++fan.seed;
      }
      for (const std::string& k :
           ColdKeyGen::compare_lane_keys(registry, gen.compare_base())) {
        keys.push_back(k);
      }
    }
    std::sort(keys.begin(), keys.end());
    check(std::adjacent_find(keys.begin(), keys.end()) == keys.end(),
          "cold key generator never repeats a canonical key (" +
              std::to_string(keys.size()) + " keys)");
  }
  {
    ZipfStream a(11, kWarmKeys), b(11, kWarmKeys), c(12, kWarmKeys);
    bool same = true, differs = false;
    std::vector<std::size_t> hist(kWarmKeys);
    for (int i = 0; i < 20000; ++i) {
      const std::size_t x = a.next();
      same = same && x == b.next();
      differs = differs || x != c.next();
      ++hist[x];
    }
    check(same && differs, "Zipf stream repeats for a seed, differs across");
    check(hist[0] > hist[1] && hist[1] > hist[kWarmKeys - 1],
          "Zipf stream favours low ranks");
  }
  {
    // A one-byte change anywhere in a real payload changes the digest.
    auto engine = registry.make_engine(family_request(Family::kNexus, 3));
    sim::MetricsObserver tap;
    engine->add_observer(&tap);
    engine->run(1.0);
    const std::string payload = service::serialize_result(
        tap.metrics(*engine), sim::make_report(*engine));
    Digest pinned;
    pinned.fold(payload);
    bool all_caught = true;
    for (std::size_t i = 0; i < payload.size(); i += 97) {
      std::string mutated = payload;
      mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
      Digest d;
      d.fold(mutated);
      all_caught = all_caught && d.hex() != pinned.hex();
    }
    check(all_caught, "one-byte payload change fails the digest check");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (args.mode == "sweep") {
      return run_sweep(args);
    }
    if (args.mode == "cold" || args.mode == "warm") {
      return run_socket(args, args.mode == "warm");
    }
    if (args.mode == "layers") {
      return run_layers(args);
    }
    if (args.mode == "selftest") {
      return run_selftest();
    }
    if (args.mode == "fingerprint") {
#if defined(__clang__)
      const char* compiler = "clang " __VERSION__;
#else
      const char* compiler = "gcc " __VERSION__;
#endif
      std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\"}\n",
                  compiler, PERFBENCH_BUILD_TYPE);
      return 0;
    }
    throw std::runtime_error("unknown mode " + args.mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
