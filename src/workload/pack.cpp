#include "workload/pack.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/hash.h"
#include "workload/synthetic.h"

namespace mobitherm::workload {

using util::ConfigError;
namespace json = util::json;

namespace {

[[noreturn]] void fail(const std::string& origin, const std::string& path,
                       const std::string& message) {
  throw ConfigError("pack: " + origin + ": " + path + ": " + message);
}

/// Names entering canonical keys must stay free of the key/path
/// metacharacters (';', '=', '/', whitespace).
bool is_slug(const std::string& s) {
  if (s.empty()) {
    return false;
  }
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

/// Schema helper around one JSON object: typed field access with
/// path-carrying errors, plus unknown-field rejection.
class ObjectReader {
 public:
  ObjectReader(const json::Value& value, const std::string& origin,
               const std::string& path)
      : value_(value), origin_(origin), path_(path) {
    if (!value.is_object()) {
      fail(origin_, path_, "expected an object");
    }
  }

  const std::string& path() const { return path_; }

  std::string member_path(const std::string& key) const {
    return path_.empty() ? key : path_ + "." + key;
  }

  const json::Value* find(const std::string& key) {
    seen_.push_back(key);
    return value_.find(key);
  }

  const json::Value& require(const std::string& key) {
    const json::Value* v = find(key);
    if (v == nullptr) {
      fail(origin_, path_, "missing required field '" + key + "'");
    }
    return *v;
  }

  std::string string_field(const std::string& key,
                           const std::string& fallback) {
    const json::Value* v = find(key);
    if (v == nullptr) {
      return fallback;
    }
    if (!v->is_string()) {
      fail(origin_, member_path(key), "expected a string");
    }
    return v->as_string();
  }

  double number_field(const std::string& key, double fallback) {
    const json::Value* v = find(key);
    if (v == nullptr) {
      return fallback;
    }
    if (!v->is_number()) {
      fail(origin_, member_path(key), "expected a number");
    }
    return v->as_number();
  }

  /// A whole number within int's range; anything else (1e300 included)
  /// fails before the cast.
  int int_field(const std::string& key, int fallback) {
    const json::Value* v = find(key);
    if (v == nullptr) {
      return fallback;
    }
    if (!v->is_number() || v->as_number() != std::floor(v->as_number()) ||
        !(v->as_number() >= std::numeric_limits<int>::min() &&
          v->as_number() <= std::numeric_limits<int>::max())) {
      fail(origin_, member_path(key), "expected an integer");
    }
    return static_cast<int>(v->as_number());
  }

  bool bool_field(const std::string& key, bool fallback) {
    const json::Value* v = find(key);
    if (v == nullptr) {
      return fallback;
    }
    if (!v->is_bool()) {
      fail(origin_, member_path(key), "expected a boolean");
    }
    return v->as_bool();
  }

  /// Call after every legal field has been probed via the accessors.
  void reject_unknown_fields() {
    for (const auto& [key, member] : value_.members()) {
      if (std::find(seen_.begin(), seen_.end(), key) == seen_.end()) {
        fail(origin_, member_path(key), "unknown field");
      }
    }
  }

 private:
  const json::Value& value_;
  const std::string& origin_;
  std::string path_;
  std::vector<std::string> seen_;
};

Phase parse_phase(const json::Value& value, const std::string& origin,
                  const std::string& path) {
  ObjectReader reader(value, origin, path);
  Phase phase;
  phase.duration_s = reader.number_field("duration_s", -1.0);
  phase.cpu_work_per_frame = reader.number_field("cpu_work_per_frame", 0.0);
  phase.gpu_work_per_frame = reader.number_field("gpu_work_per_frame", 0.0);
  reader.reject_unknown_fields();
  if (!(phase.duration_s > 0.0)) {
    fail(origin, path + ".duration_s", "must be a positive duration");
  }
  if (phase.cpu_work_per_frame < 0.0) {
    fail(origin, path + ".cpu_work_per_frame", "must be non-negative");
  }
  if (phase.gpu_work_per_frame < 0.0) {
    fail(origin, path + ".gpu_work_per_frame", "must be non-negative");
  }
  return phase;
}

/// Instantiate a named synthetic template (workload/synthetic.h) from its
/// JSON parameter object. Template parameter errors (thrown by the
/// generators) are re-raised with the JSON path attached.
AppSpec parse_template(const json::Value& value, const std::string& origin,
                       const std::string& path) {
  ObjectReader reader(value, origin, path);
  const json::Value& name_v = reader.require("name");
  if (!name_v.is_string()) {
    fail(origin, path + ".name", "expected a string");
  }
  const std::string& name = name_v.as_string();
  // Field access errors already carry their own path; only the generator
  // calls (which throw bare parameter-validation ConfigErrors) get the
  // template's JSON path attached here.
  if (name == "cpu_burn_ramp") {
    const int steps = reader.int_field("steps", 8);
    const double step_s = reader.number_field("step_s", 5.0);
    const double cpu_from = reader.number_field("cpu_from", 1.0e7);
    const double cpu_to = reader.number_field("cpu_to", 1.6e8);
    const int threads = reader.int_field("threads", 4);
    reader.reject_unknown_fields();
    try {
      return cpu_burn_ramp(steps, step_s, cpu_from, cpu_to, threads);
    } catch (const ConfigError& e) {
      fail(origin, path, e.what());
    }
  }
  if (name == "memory_bound") {
    const double cpu_work = reader.number_field("cpu_work", 1.0);
    const double bytes = reader.number_field("bytes_per_work", 8.0);
    const int threads = reader.int_field("threads", 2);
    reader.reject_unknown_fields();
    try {
      return memory_bound(cpu_work, bytes, threads);
    } catch (const ConfigError& e) {
      fail(origin, path, e.what());
    }
  }
  if (name == "bursty_duty") {
    const double period_s = reader.number_field("period_s", 4.0);
    const double duty = reader.number_field("duty", 0.25);
    const double cpu_work = reader.number_field("cpu_work", 8.0e7);
    const double gpu_work = reader.number_field("gpu_work", 2.0e7);
    reader.reject_unknown_fields();
    try {
      return bursty_duty(period_s, duty, cpu_work, gpu_work);
    } catch (const ConfigError& e) {
      fail(origin, path, e.what());
    }
  }
  if (name == "interference_mix") {
    const int threads = reader.int_field("threads", 6);
    const double cpu_work = reader.number_field("cpu_work", 6.0e7);
    const double gpu_work = reader.number_field("gpu_work", 2.0e7);
    reader.reject_unknown_fields();
    try {
      return interference_mix(threads, cpu_work, gpu_work);
    } catch (const ConfigError& e) {
      fail(origin, path, e.what());
    }
  }
  fail(origin, path + ".name", "unknown template '" + name + "'");
}

AppSpec parse_app(const json::Value& value, const std::string& origin,
                  const std::string& path) {
  ObjectReader reader(value, origin, path);
  const json::Value& name_v = reader.require("name");
  if (!name_v.is_string() || !is_slug(name_v.as_string())) {
    fail(origin, path + ".name",
         "app name must be a non-empty [A-Za-z0-9_-] string");
  }
  const std::string app_name = name_v.as_string();

  const json::Value* template_v = reader.find("template");
  const json::Value* phases_v = reader.find("phases");
  if ((template_v != nullptr) == (phases_v != nullptr)) {
    fail(origin, path, "exactly one of 'phases' or 'template' is required");
  }

  AppSpec spec;
  if (template_v != nullptr) {
    // A templated app is fully described by its parameters; free-form
    // field overrides on top would make two spellings of the same
    // workload, so they are rejected.
    reader.reject_unknown_fields();
    spec = parse_template(*template_v, origin, path + ".template");
    spec.name = app_name;
    return spec;
  }

  spec.name = app_name;
  spec.target_fps = reader.number_field("target_fps", 60.0);
  spec.loop = reader.bool_field("loop", true);
  spec.jitter = reader.number_field("jitter", 0.0);
  spec.jitter_interval_s = reader.number_field("jitter_interval_s", 0.5);
  spec.realtime = reader.bool_field("realtime", false);
  spec.cpu_threads = reader.int_field("threads", 2);
  spec.mem_bytes_per_work = reader.number_field("mem_bytes_per_work", 0.0);
  const std::string cls = reader.string_field("class", "foreground");
  if (cls == "foreground") {
    spec.cls = sched::ProcessClass::kForeground;
  } else if (cls == "background") {
    spec.cls = sched::ProcessClass::kBackground;
  } else {
    fail(origin, path + ".class",
         "expected 'foreground' or 'background', got '" + cls + "'");
  }

  if (!phases_v->is_array() || phases_v->items().empty()) {
    fail(origin, path + ".phases", "expected a non-empty array");
  }
  if (phases_v->items().size() > kMaxAppPhases) {
    fail(origin, path + ".phases",
         "too many phases (max " + std::to_string(kMaxAppPhases) + ")");
  }
  spec.phases.reserve(phases_v->items().size());
  for (std::size_t i = 0; i < phases_v->items().size(); ++i) {
    spec.phases.push_back(
        parse_phase(phases_v->items()[i], origin,
                    path + ".phases[" + std::to_string(i) + "]"));
  }
  reader.reject_unknown_fields();

  if (spec.target_fps < 0.0) {
    fail(origin, path + ".target_fps", "must be non-negative (0 = batch)");
  }
  if (spec.jitter < 0.0 || spec.jitter >= 1.0) {
    fail(origin, path + ".jitter", "must be in [0, 1)");
  }
  if (!(spec.jitter_interval_s > 0.0)) {
    fail(origin, path + ".jitter_interval_s", "must be positive");
  }
  if (spec.cpu_threads < 1 || spec.cpu_threads > 64) {
    fail(origin, path + ".threads", "must be in [1, 64]");
  }
  if (spec.mem_bytes_per_work < 0.0) {
    fail(origin, path + ".mem_bytes_per_work", "must be non-negative");
  }
  return spec;
}

}  // namespace

std::string WorkloadPack::content_hash_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(content_hash));
  return std::string(buf);
}

const AppSpec* WorkloadPack::find_app(const std::string& app) const {
  for (const AppSpec& spec : apps) {
    if (spec.name == app) {
      return &spec;
    }
  }
  return nullptr;
}

std::string canonical_pack_json(const WorkloadPack& pack) {
  json::Value root = json::Value::object();
  root.set("pack", json::Value::string(pack.name));
  root.set("description", json::Value::string(pack.description));
  json::Value apps = json::Value::array();
  for (const AppSpec& spec : pack.apps) {
    json::Value app = json::Value::object();
    app.set("name", json::Value::string(spec.name));
    app.set("target_fps", json::Value::number(spec.target_fps));
    app.set("loop", json::Value::boolean(spec.loop));
    app.set("jitter", json::Value::number(spec.jitter));
    app.set("jitter_interval_s", json::Value::number(spec.jitter_interval_s));
    app.set("class", json::Value::string(
                         spec.cls == sched::ProcessClass::kBackground
                             ? "background"
                             : "foreground"));
    app.set("realtime", json::Value::boolean(spec.realtime));
    app.set("threads", json::Value::number(spec.cpu_threads));
    app.set("mem_bytes_per_work",
            json::Value::number(spec.mem_bytes_per_work));
    json::Value phases = json::Value::array();
    for (const Phase& phase : spec.phases) {
      json::Value p = json::Value::object();
      p.set("duration_s", json::Value::number(phase.duration_s));
      p.set("cpu_work_per_frame",
            json::Value::number(phase.cpu_work_per_frame));
      p.set("gpu_work_per_frame",
            json::Value::number(phase.gpu_work_per_frame));
      phases.push(std::move(p));
    }
    app.set("phases", std::move(phases));
    apps.push(std::move(app));
  }
  root.set("apps", std::move(apps));
  return root.dump();
}

WorkloadPack parse_pack(const json::Value& root, const std::string& origin) {
  ObjectReader reader(root, origin, "");
  WorkloadPack pack;
  const json::Value& name_v = reader.require("pack");
  if (!name_v.is_string() || !is_slug(name_v.as_string())) {
    fail(origin, "pack",
         "pack name must be a non-empty [A-Za-z0-9_-] string");
  }
  pack.name = name_v.as_string();
  pack.description = reader.string_field("description", "");

  const json::Value& apps_v = reader.require("apps");
  reader.reject_unknown_fields();
  if (!apps_v.is_array() || apps_v.items().empty()) {
    fail(origin, "apps", "expected a non-empty array");
  }
  if (apps_v.items().size() > kMaxPackApps) {
    fail(origin, "apps",
         "too many apps (max " + std::to_string(kMaxPackApps) + ")");
  }
  pack.apps.reserve(apps_v.items().size());
  for (std::size_t i = 0; i < apps_v.items().size(); ++i) {
    const std::string path = "apps[" + std::to_string(i) + "]";
    AppSpec spec = parse_app(apps_v.items()[i], origin, path);
    if (pack.find_app(spec.name) != nullptr) {
      fail(origin, path + ".name",
           "duplicate app name '" + spec.name + "'");
    }
    pack.apps.push_back(std::move(spec));
  }
  pack.content_hash = util::fnv1a64(canonical_pack_json(pack));
  return pack;
}

WorkloadPack parse_pack_text(const std::string& text,
                             const std::string& origin) {
  if (text.size() > kMaxPackBytes) {
    throw ConfigError("pack: " + origin + ": document exceeds " +
                      std::to_string(kMaxPackBytes) + " bytes");
  }
  json::Value root;
  try {
    root = json::Value::parse(text);
  } catch (const json::ParseError& e) {
    throw ConfigError("pack: " + origin + ": invalid JSON: " + e.what());
  }
  return parse_pack(root, origin);
}

void PackSet::add(WorkloadPack pack) {
  if (packs_.count(pack.name) != 0) {
    throw ConfigError("pack: duplicate pack name '" + pack.name + "'");
  }
  packs_.emplace(pack.name, std::move(pack));
}

const WorkloadPack* PackSet::find(const std::string& pack) const {
  const auto it = packs_.find(pack);
  return it == packs_.end() ? nullptr : &it->second;
}

const WorkloadPack* PackSet::pack_of(const std::string& qualified) const {
  const std::size_t slash = qualified.find('/');
  if (slash == std::string::npos) {
    return nullptr;
  }
  return find(qualified.substr(0, slash));
}

const AppSpec* PackSet::find_app(const std::string& qualified) const {
  const std::size_t slash = qualified.find('/');
  if (slash == std::string::npos) {
    return nullptr;
  }
  const WorkloadPack* pack = find(qualified.substr(0, slash));
  if (pack == nullptr) {
    return nullptr;
  }
  return pack->find_app(qualified.substr(slash + 1));
}

std::vector<std::string> PackSet::pack_names() const {
  std::vector<std::string> out;
  out.reserve(packs_.size());
  for (const auto& [name, pack] : packs_) {
    out.push_back(name);
  }
  return out;  // std::map iterates sorted
}

std::vector<std::string> PackSet::qualified_app_names() const {
  std::vector<std::string> out;
  for (const auto& [name, pack] : packs_) {
    for (const AppSpec& spec : pack.apps) {
      out.push_back(name + "/" + spec.name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

PackSet load_pack_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw ConfigError("pack: '" + dir + "' is not a directory");
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  PackSet set;
  for (const fs::path& path : files) {
    std::ifstream in(path);
    if (!in) {
      throw ConfigError("pack: cannot read '" + path.string() + "'");
    }
    std::ostringstream text;
    text << in.rdbuf();
    set.add(parse_pack_text(text.str(), path.filename().string()));
  }
  return set;
}

}  // namespace mobitherm::workload
