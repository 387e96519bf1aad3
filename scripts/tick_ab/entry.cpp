// The one exported function of a tick_ab shared object (see
// scripts/tick_ab.py): runs one perfbench family request through the
// service's own job path and reports its timings and payload.
//
// The tree's sources are compiled with -Dmobitherm=<namespace> and hidden
// visibility, so two trees' libraries can live in one process; only
// TICK_AB_ENTRY is exported.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "service/result_cache.h"
#include "service/scenario_registry.h"
#include "service/service.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/observer.h"
#include "sim/report.h"
#include "workload/pack.h"
#include "workload/synthetic.h"

#ifndef TICK_AB_ENTRY
#error "TICK_AB_ENTRY must name the exported entry point"
#endif

namespace {

using mobitherm::service::ScenarioRegistry;
using mobitherm::service::SimRequest;

/// The standard scenarios plus the built-in synthetic pack, as perfbench's
/// harness and mobitherm_serve register them.
const ScenarioRegistry& registry() {
  static const ScenarioRegistry instance = [] {
    ScenarioRegistry r = ScenarioRegistry::standard();
    auto packs = std::make_shared<mobitherm::workload::PackSet>();
    packs->add(mobitherm::workload::synthetic_stressor_pack());
    r.attach_packs(std::move(packs));
    return r;
  }();
  return instance;
}

/// perfbench's three families: Nexus Paper.io throttled, Odroid
/// 3DMark+BML proposed, and the synthetic bursty stressor on the Nexus,
/// throttled.
bool family_request(int family, SimRequest& r) {
  switch (family) {
    case 0:
      r.scenario = "nexus";
      r.app = "paperio";
      r.policy = "throttled";
      return true;
    case 1:
      r.scenario = "odroid";
      r.app = "threedmark";
      r.policy = "proposed";
      r.with_bml = true;
      return true;
    case 2:
      r.scenario = "nexus";
      r.app = "synthetic/bursty_duty";
      r.policy = "throttled";
      return true;
    default:
      return false;
  }
}

struct TickCounter final : mobitherm::sim::SimObserver {
  long long ticks = 0;
  void on_tick(const mobitherm::sim::TickInfo&) override { ++ticks; }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Copies `text` into out[0, capacity) with a terminating NUL; returns
/// false when it does not fit.
bool copy_out(const std::string& text, char* out, long long capacity) {
  if (capacity <= 0 || text.size() >= static_cast<std::size_t>(capacity)) {
    return false;
  }
  std::memcpy(out, text.data(), text.size());
  out[text.size()] = '\0';
  return true;
}

}  // namespace

/// Runs `family` (0 nexus, 1 odroid, 2 synthetic) for `sim_seconds` at
/// `seed`. On success returns 0 and sets `run_s` (Engine::run alone),
/// `whole_s` (engine build through serialized payload), `ticks` and the
/// payload in out[0, capacity). On failure returns 1 with the error
/// message in `out`; returns 2 when the payload does not fit.
extern "C" __attribute__((visibility("default"))) int TICK_AB_ENTRY(
    int family, std::uint64_t seed, double sim_seconds, double* run_s,
    double* whole_s, long long* ticks, char* out, long long capacity) {
  try {
    SimRequest r;
    if (!family_request(family, r)) {
      copy_out("unknown family " + std::to_string(family), out, capacity);
      return 1;
    }
    r.duration_s = sim_seconds;
    r.seed = seed;
    const mobitherm::service::ServiceConfig config;
    const auto t0 = std::chrono::steady_clock::now();
    const SimRequest resolved = registry().resolve(r);
    std::unique_ptr<mobitherm::sim::Engine> engine =
        registry().make_engine(resolved);
    engine->set_runaway_guard(
        registry().runaway_guard_temp_k(resolved, config.guard_max_temp_c));
    TickCounter counter;
    engine->add_observer(&counter);
    const auto t1 = std::chrono::steady_clock::now();
    engine->run(resolved.duration_s);
    *run_s = seconds_since(t1);
    const std::string payload = mobitherm::service::serialize_result(
        mobitherm::sim::summarize_run(*engine, config.metrics),
        mobitherm::sim::make_report(*engine, config.metrics.temp_limit_c));
    *whole_s = seconds_since(t0);
    *ticks = counter.ticks;
    return copy_out(payload, out, capacity) ? 0 : 2;
  } catch (const std::exception& e) {
    copy_out(e.what(), out, capacity);
    return 1;
  }
}
