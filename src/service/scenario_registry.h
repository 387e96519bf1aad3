// Named, parameterized simulation scenarios — the single source of truth
// for the paper's workload wiring.
//
// Every consumer used to hand-wire an Engine per run (benches, examples,
// tests). The registry names each scenario family once: a request is a
// small value object {scenario, app, policy, model, overrides, duration,
// seed}, the registry resolves it against the scenario's defaults into a
// *canonical* request, and the canonical request deterministically maps to
// a fully wired Engine. Because every run is bit-deterministic (PR 1-3),
// the canonical request string is also the service layer's cache key:
// identical canonical requests produce byte-identical results, so they can
// be memoized (service/result_cache.h).
//
// Apps come from two catalogs: the built-in presets (workload/presets.h,
// addressed by bare name) and attached workload packs (workload/pack.h,
// addressed as "<pack>/<app>"). Pack-backed requests embed the pack's
// content hash in the canonical key, so editing a pack invalidates every
// cached result computed from it. The power/leakage physics is selected by
// SimRequest::power_model against power::ModelRegistry, and the
// thermal-runaway guard threshold is re-derived per model
// (runaway_guard_temp_k).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "util/hash.h"
#include "workload/app.h"
#include "workload/pack.h"

namespace mobitherm::service {

/// Tag mixed into every canonical request key. Bump whenever a change
/// alters simulation semantics (traces/metrics for a fixed request), so a
/// stale cache can never serve results computed by different code.
inline constexpr const char* kSimCodeVersion = "mobitherm-sim-v5";

/// Longest simulated run a request may ask for, in seconds; resolve()
/// rejects longer ones so one request cannot hold a worker for days. The
/// paper's longest run is 250 s.
inline constexpr double kMaxDurationS = 100000.0;

/// Range of a request's starting temperature, in degC; resolve() rejects a
/// value outside it, non-finite ones included. It holds both boards'
/// defaults (36 and 50 degC) and Table II's 78 degC start, and stays below
/// the service's 150 degC runaway guard.
inline constexpr double kMinInitialTempC = -40.0;
inline constexpr double kMaxInitialTempC = 125.0;

/// A parameterized simulation request. Field semantics are interpreted by
/// the scenario named in `scenario`; sentinel values (empty strings,
/// negative numbers) mean "use the scenario default" and are replaced by
/// ScenarioRegistry::resolve().
struct SimRequest {
  std::string scenario;        // registry key: "nexus" | "odroid" | custom
  std::string app;             // preset name ("paperio") or "<pack>/<app>"
  std::string policy;          // scenario policy ("throttled", "default"...)
  /// Power/leakage model strategy (power::ModelRegistry name); empty =
  /// "baseline", the paper's BSIM calibration.
  std::string power_model;
  bool with_bml = false;       // odroid: add the BML background task
  double duration_s = -1.0;    // simulated seconds; <0 = scenario default
  double initial_temp_c = kUnsetTemp;  // device temperature at t=0
  std::uint64_t seed = 42;
  /// Workload-shape overrides; only meaningful for parameterized apps
  /// (threedmark phase length, nenamark levels). resolve() normalizes
  /// them back to the sentinel for apps that ignore them, keeping the
  /// canonical key honest.
  int app_levels = -1;
  double app_phase_s = -1.0;

  static constexpr double kUnsetTemp = -1.0e9;
};

/// FNV-1a 64-bit hash of a canonical request string: the result-cache key,
/// which also keys the request's injected-fault decisions. Forwards to the
/// one audited implementation in util/hash.h.
inline std::uint64_t fnv1a64(const std::string& text) {
  return util::fnv1a64(text);
}

/// Look up a built-in workload preset by registry name ("paperio",
/// "threedmark", ...). `levels`/`phase_s` parameterize the apps that accept
/// them and are ignored (when negative) otherwise. Throws util::ConfigError
/// on unknown names. Pack-qualified names are resolved by the registry
/// (ScenarioRegistry::app_spec), not here.
workload::AppSpec workload_by_name(const std::string& name, int levels = -1,
                                   double phase_s = -1.0);

/// True if the named workload takes the levels/phase_s overrides.
bool workload_is_parameterized(const std::string& name);

/// Registry workload names for the five Table I apps, paper order.
const std::vector<std::string>& nexus_app_names();

class ScenarioRegistry {
 public:
  struct Entry {
    std::string name;
    std::string description;
    /// Platform the scenario wires ("snapdragon810", "exynos5422", ...);
    /// informational and part of the canonical key documentation.
    std::string platform;
    double default_duration_s = 0.0;
    double default_initial_temp_c = 0.0;
    std::string default_app;
    std::string default_policy;
    /// Allowed policy strings, for validation and the `scenarios` op.
    std::vector<std::string> policies;
    /// Built-in apps this scenario advertises (scenario-matrix harness,
    /// `scenarios` op). Any valid workload name is *accepted*; this list
    /// is what gets enumerated.
    std::vector<std::string> apps;
    /// Build a fully wired engine from a *resolved* request and its
    /// resolved app spec (built-in preset or pack app). Must be pure:
    /// identical requests yield engines that produce bit-identical runs.
    /// Called concurrently by the service worker pool.
    std::function<std::unique_ptr<sim::Engine>(
        const SimRequest&, const workload::AppSpec&)>
        factory;
  };

  /// Register (or replace) a scenario entry. Throws on empty name or
  /// missing factory.
  void add(Entry entry);

  const Entry& at(const std::string& name) const;  // throws on unknown
  std::vector<std::string> names() const;          // sorted
  std::size_t size() const { return entries_.size(); }

  /// Attach a pack set; "<pack>/<app>" request apps resolve against it.
  /// Copies of the registry made afterwards share the same (immutable)
  /// packs.
  void attach_packs(std::shared_ptr<const workload::PackSet> packs);
  const workload::PackSet* packs() const { return packs_.get(); }

  /// Fill scenario defaults into every sentinel field, validate the app,
  /// policy and power-model names, and normalize inapplicable overrides.
  /// The result is the canonical request: resolve(resolve(r)) ==
  /// resolve(r). A negative app_phase_s becomes the -1 sentinel. Throws
  /// util::ConfigError on unknown scenario/app/policy/model, on a duration
  /// or an app_phase_s outside [1, kMaxDurationS] seconds, and on an
  /// initial_temp_c outside [kMinInitialTempC, kMaxInitialTempC].
  SimRequest resolve(const SimRequest& request) const;

  /// The app spec a *resolved* request simulates: a built-in preset or an
  /// attached pack app. Throws util::ConfigError on unknown names.
  workload::AppSpec app_spec(const SimRequest& resolved) const;

  /// Every app name the scenario-matrix harness should enumerate for
  /// `scenario`: the entry's built-in list plus every attached pack app
  /// (qualified), in listing order.
  std::vector<std::string> apps_for(const std::string& scenario) const;

  /// Canonical key string of a request (resolves first). Two requests
  /// have equal keys iff the registry treats them identically; the key
  /// embeds kSimCodeVersion — and, for pack apps, the pack content hash —
  /// so cached results never outlive the code (or pack) that computed
  /// them.
  std::string canonical_key(const SimRequest& request) const;

  /// Resolve and build the engine for `request`.
  std::unique_ptr<sim::Engine> make_engine(const SimRequest& request) const;

  /// Thermal-runaway guard threshold (K) for `request`, wired to the
  /// active power model: the baseline model keeps the service-configured
  /// `config_guard_c` (Sec. IV-A calibration), alternate models clamp it
  /// to their own re-derived point of no return
  /// (stability::model_no_return_temp_k at zero dynamic power). Callers
  /// treat config_guard_c <= 0 as "guard disabled" before asking.
  double runaway_guard_temp_k(const SimRequest& request,
                              double config_guard_c) const;

  /// The paper's scenario families: "nexus" (Sec. III, Snapdragon 810)
  /// and "odroid" (Sec. IV-C, Exynos 5422).
  static ScenarioRegistry standard();

 private:
  std::map<std::string, Entry> entries_;
  std::shared_ptr<const workload::PackSet> packs_;
};

/// Shared immutable standard registry (constructed on first use).
const ScenarioRegistry& standard_registry();

}  // namespace mobitherm::service
