#include "service/scenario_registry.h"

#include <algorithm>

#include "power/model_registry.h"
#include "sim/experiment.h"
#include "stability/model_analysis.h"
#include "stability/presets.h"
#include "util/error.h"
#include "util/json.h"
#include "util/units.h"
#include "workload/presets.h"

namespace mobitherm::service {

using util::ConfigError;
namespace json = util::json;

workload::AppSpec workload_by_name(const std::string& name, int levels,
                                   double phase_s) {
  if (name == "paperio") {
    return workload::paperio();
  }
  if (name == "stickman_hook") {
    return workload::stickman_hook();
  }
  if (name == "amazon") {
    return workload::amazon();
  }
  if (name == "hangouts") {
    return workload::hangouts();
  }
  if (name == "facebook") {
    return workload::facebook();
  }
  if (name == "youtube") {
    return workload::youtube();
  }
  if (name == "navigation") {
    return workload::navigation();
  }
  if (name == "threedmark") {
    return phase_s > 0.0 ? workload::threedmark(phase_s)
                         : workload::threedmark();
  }
  if (name == "nenamark") {
    if (levels > 0 && phase_s > 0.0) {
      return workload::nenamark(levels, phase_s);
    }
    if (levels > 0) {
      return workload::nenamark(levels);
    }
    return workload::nenamark();
  }
  if (name == "bml") {
    return workload::bml();
  }
  throw ConfigError("service: unknown workload '" + name + "'");
}

bool workload_is_parameterized(const std::string& name) {
  return name == "threedmark" || name == "nenamark";
}

const std::vector<std::string>& nexus_app_names() {
  static const std::vector<std::string> names = {
      "paperio", "stickman_hook", "amazon", "hangouts", "facebook"};
  return names;
}

namespace {

/// Lumped dynamics calibration for the platforms the standard registry
/// wires; nullptr for platforms without a Sec. IV-A calibration (custom
/// test entries), which keep the configured guard as-is.
const stability::Params* lumped_params_for_platform(
    const std::string& platform) {
  if (platform == "snapdragon810") {
    static const stability::Params params = stability::nexus6p_params();
    return &params;
  }
  if (platform == "exynos5422") {
    static const stability::Params params = stability::odroid_xu3_params();
    return &params;
  }
  return nullptr;
}

power::LeakageParams baseline_leakage_for_platform(
    const std::string& platform) {
  if (platform == "snapdragon810") {
    return sim::nexus_baseline_leakage();
  }
  if (platform == "exynos5422") {
    return sim::odroid_baseline_leakage();
  }
  throw ConfigError("service: no baseline leakage calibration for '" +
                    platform + "'");
}

}  // namespace

void ScenarioRegistry::add(Entry entry) {
  if (entry.name.empty()) {
    throw ConfigError("ScenarioRegistry: entry name must be non-empty");
  }
  if (!entry.factory) {
    throw ConfigError("ScenarioRegistry: entry '" + entry.name +
                      "' has no factory");
  }
  entries_[entry.name] = std::move(entry);
}

const ScenarioRegistry::Entry& ScenarioRegistry::at(
    const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw ConfigError("ScenarioRegistry: unknown scenario '" + name + "'");
  }
  return it->second;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(name);
  }
  return out;  // std::map iterates sorted
}

void ScenarioRegistry::attach_packs(
    std::shared_ptr<const workload::PackSet> packs) {
  packs_ = std::move(packs);
}

SimRequest ScenarioRegistry::resolve(const SimRequest& request) const {
  const Entry& entry = at(request.scenario);
  SimRequest r = request;
  if (r.app.empty()) {
    r.app = entry.default_app;
  }
  if (r.policy.empty()) {
    r.policy = entry.default_policy;
  }
  if (r.power_model.empty()) {
    r.power_model = power::kBaselineModelName;
  }
  if (r.duration_s < 0.0) {
    r.duration_s = entry.default_duration_s;
  }
  if (r.initial_temp_c == SimRequest::kUnsetTemp) {
    r.initial_temp_c = entry.default_initial_temp_c;
  }
  if (!entry.policies.empty() &&
      std::find(entry.policies.begin(), entry.policies.end(), r.policy) ==
          entry.policies.end()) {
    throw ConfigError("service: scenario '" + entry.name +
                      "' does not accept policy '" + r.policy + "'");
  }
  if (!power::standard_model_registry().has(r.power_model)) {
    throw ConfigError("service: unknown power model '" + r.power_model +
                      "'");
  }
  if (r.app.find('/') != std::string::npos) {
    if (packs_ == nullptr || packs_->find_app(r.app) == nullptr) {
      throw ConfigError("service: unknown pack workload '" + r.app + "'");
    }
    // Pack apps carry their full shape in the pack; the preset overrides
    // never apply.
    r.app_levels = -1;
    r.app_phase_s = -1.0;
  } else {
    // Validates the app name; result discarded.
    workload_by_name(r.app);
    if (!workload_is_parameterized(r.app)) {
      r.app_levels = -1;
      r.app_phase_s = -1.0;
    }
  }
  // At least one full second, which the fps metric needs. Written so that
  // NaN fails the check.
  if (!(r.duration_s >= 1.0 && r.duration_s <= kMaxDurationS)) {
    throw ConfigError("service: request duration must lie in [1, " +
                      json::format_number(kMaxDurationS) + "] s");
  }
  if (!(r.initial_temp_c >= kMinInitialTempC &&
        r.initial_temp_c <= kMaxInitialTempC)) {
    throw ConfigError("service: initial_temp_c must lie in [" +
                      json::format_number(kMinInitialTempC) + ", " +
                      json::format_number(kMaxInitialTempC) + "] degC");
  }
  // Every negative phase length means "the preset's own", so it gets one
  // canonical spelling. fps is sampled once per simulated second, so a
  // phase shorter than that is never measured.
  if (r.app_phase_s < 0.0) {
    r.app_phase_s = -1.0;
  } else if (!(r.app_phase_s >= 1.0 && r.app_phase_s <= kMaxDurationS)) {
    throw ConfigError("service: app_phase_s must be negative (the preset "
                      "default) or lie in [1, " +
                      json::format_number(kMaxDurationS) + "] s");
  }
  return r;
}

workload::AppSpec ScenarioRegistry::app_spec(
    const SimRequest& resolved) const {
  if (resolved.app.find('/') != std::string::npos) {
    if (packs_ != nullptr) {
      if (const workload::AppSpec* spec = packs_->find_app(resolved.app)) {
        return *spec;
      }
    }
    throw ConfigError("service: unknown pack workload '" + resolved.app +
                      "'");
  }
  return workload_by_name(resolved.app, resolved.app_levels,
                          resolved.app_phase_s);
}

std::vector<std::string> ScenarioRegistry::apps_for(
    const std::string& scenario) const {
  const Entry& entry = at(scenario);
  std::vector<std::string> out = entry.apps;
  if (packs_ != nullptr) {
    for (const std::string& name : packs_->qualified_app_names()) {
      out.push_back(name);
    }
  }
  return out;
}

std::string ScenarioRegistry::canonical_key(const SimRequest& request) const {
  const SimRequest r = resolve(request);
  const Entry& entry = at(r.scenario);
  std::string key;
  key.reserve(192);
  key += "v=";
  key += kSimCodeVersion;
  key += ";scenario=";
  key += r.scenario;
  key += ";platform=";
  key += entry.platform;
  key += ";app=";
  key += r.app;
  if (r.app.find('/') != std::string::npos) {
    // packs_ was validated by resolve(); the hash pins the pack *content*
    // so editing a pack field can never serve a stale cached result.
    key += ";pack=";
    key += packs_->pack_of(r.app)->content_hash_hex();
  }
  key += ";policy=";
  key += r.policy;
  key += ";model=";
  key += r.power_model;
  key += ";bml=";
  key += r.with_bml ? '1' : '0';
  key += ";levels=";
  key += std::to_string(r.app_levels);
  key += ";phase_s=";
  key += json::format_number(r.app_phase_s);
  key += ";duration_s=";
  key += json::format_number(r.duration_s);
  key += ";initial_temp_c=";
  key += json::format_number(r.initial_temp_c);
  key += ";seed=";
  key += std::to_string(r.seed);
  return key;
}

std::unique_ptr<sim::Engine> ScenarioRegistry::make_engine(
    const SimRequest& request) const {
  const SimRequest r = resolve(request);
  std::unique_ptr<sim::Engine> engine =
      at(r.scenario).factory(r, app_spec(r));
  if (!engine) {
    throw ConfigError("ScenarioRegistry: scenario '" + r.scenario +
                      "' factory returned a null engine");
  }
  return engine;
}

double ScenarioRegistry::runaway_guard_temp_k(
    const SimRequest& request, double config_guard_c) const {
  const double config_guard_k = util::celsius_to_kelvin(config_guard_c);
  const SimRequest r = resolve(request);
  if (r.power_model == power::kBaselineModelName) {
    // The configured guard *is* the baseline model's Sec. IV-A-calibrated
    // threshold; keep it bit-exactly.
    return config_guard_k;
  }
  const Entry& entry = at(r.scenario);
  const stability::Params* base = lumped_params_for_platform(entry.platform);
  if (base == nullptr) {
    return config_guard_k;
  }
  const power::LeakageParams leakage =
      power::standard_model_registry().leakage_for(
          r.power_model, baseline_leakage_for_platform(entry.platform));
  try {
    // Point of no return with zero dynamic power: above it, this model's
    // dynamics diverge no matter what the governor does, so simulating
    // past it is wasted work for any guard at or above it.
    const double no_return_k =
        stability::model_no_return_temp_k(*base, leakage, /*p_dyn_w=*/0.0);
    return std::min(config_guard_k, no_return_k);
  } catch (const util::NumericError&) {
    // Model unstable even at zero power; the configured ceiling stands.
    return config_guard_k;
  }
}

ScenarioRegistry ScenarioRegistry::standard() {
  ScenarioRegistry registry;

  Entry nexus;
  nexus.name = "nexus";
  nexus.description =
      "Nexus 6P (Sec. III): one app for 140 s, step_wise throttling on or "
      "off";
  nexus.platform = "snapdragon810";
  nexus.default_duration_s = 140.0;
  nexus.default_initial_temp_c = 36.0;
  nexus.default_app = "paperio";
  nexus.default_policy = "throttled";
  nexus.policies = {"throttled", "unthrottled"};
  nexus.apps = {"paperio", "stickman_hook", "amazon", "hangouts",
                "facebook", "youtube",       "navigation"};
  nexus.factory = [](const SimRequest& r, const workload::AppSpec& app) {
    sim::NexusRun run;
    run.app = app;
    run.throttling = r.policy == "throttled";
    run.duration_s = r.duration_s;
    run.initial_temp_c = r.initial_temp_c;
    run.seed = r.seed;
    run.leakage = power::standard_model_registry().leakage_for(
        r.power_model, sim::nexus_baseline_leakage());
    return sim::make_nexus_engine(run);
  };
  registry.add(std::move(nexus));

  Entry odroid;
  odroid.name = "odroid";
  odroid.description =
      "Odroid-XU3 (Sec. IV-C): foreground GPU benchmark, optional BML "
      "background task, none/default/proposed thermal policy";
  odroid.platform = "exynos5422";
  odroid.default_duration_s = 250.0;
  odroid.default_initial_temp_c = 50.0;
  odroid.default_app = "threedmark";
  odroid.default_policy = "default";
  odroid.policies = {"none", "default", "proposed"};
  odroid.apps = {"threedmark", "nenamark"};
  odroid.factory = [](const SimRequest& r, const workload::AppSpec& app) {
    sim::OdroidRun run;
    run.foreground = app;
    run.with_bml = r.with_bml;
    if (r.policy == "none") {
      run.policy = sim::ThermalPolicy::kNone;
    } else if (r.policy == "proposed") {
      run.policy = sim::ThermalPolicy::kProposed;
    } else {
      run.policy = sim::ThermalPolicy::kDefault;
    }
    run.duration_s = r.duration_s;
    run.initial_temp_c = r.initial_temp_c;
    run.seed = r.seed;
    run.leakage = power::standard_model_registry().leakage_for(
        r.power_model, sim::odroid_baseline_leakage());
    return sim::make_odroid_engine(run);
  };
  registry.add(std::move(odroid));

  return registry;
}

const ScenarioRegistry& standard_registry() {
  static const ScenarioRegistry registry = ScenarioRegistry::standard();
  return registry;
}

}  // namespace mobitherm::service
