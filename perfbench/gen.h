// Request generation, payload digests and spans for the perfbench harness.
//
// Every input the benchmark sends is a pure function of its --seed
// argument: request seeds, the Zipf key stream and compare base seeds.
// The program under test only ever sees the generated requests.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "service/scenario_registry.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/seed_schedule.h"

namespace perfbench {

using mobitherm::service::ScenarioRegistry;
using mobitherm::service::SimRequest;

/// Simulated seconds of every run the benchmark requests.
inline constexpr double kRunSimSeconds = 10.0;
/// Lanes of a wide ("seeds":N) fan.
inline constexpr int kFanLanes = 8;
/// Compare shape: 2 arms x max_seeds lanes, decided every round_seeds.
/// At 10 s lanes the Sec. IV-C pair never separates, so every verdict
/// runs its full 16-lane budget in 2 rounds.
inline constexpr int kCompareMaxSeeds = 8;
inline constexpr int kCompareRoundSeeds = 4;
inline constexpr const char* kCompareMetric = "peak_temp_c";

/// The three scenario families every workload cycles through.
enum class Family { kNexus, kOdroid, kSynthetic };
inline constexpr std::array<Family, 3> kFamilies = {
    Family::kNexus, Family::kOdroid, Family::kSynthetic};

inline const char* family_name(Family f) {
  switch (f) {
    case Family::kNexus:
      return "nexus";
    case Family::kOdroid:
      return "odroid";
    case Family::kSynthetic:
      return "synthetic";
  }
  return "?";
}

/// Nexus Paper.io (throttled), Odroid 3DMark+BML (proposed) and a
/// synthetic stressor on the Nexus, 10 simulated seconds each.
inline SimRequest family_request(Family f, std::uint64_t seed) {
  SimRequest r;
  switch (f) {
    case Family::kNexus:
      r.scenario = "nexus";
      r.app = "paperio";
      r.policy = "throttled";
      break;
    case Family::kOdroid:
      r.scenario = "odroid";
      r.app = "threedmark";
      r.policy = "proposed";
      r.with_bml = true;
      break;
    case Family::kSynthetic:
      r.scenario = "nexus";
      r.app = "synthetic/bursty_duty";
      r.policy = "throttled";
      break;
  }
  r.duration_s = kRunSimSeconds;
  r.seed = seed;
  return r;
}

/// The two arms of the Sec. IV-C comparison (Odroid 3DMark+BML, default
/// vs proposed); the compare's seed schedule supplies every lane seed.
inline std::array<SimRequest, 2> compare_arms() {
  SimRequest proposed = family_request(Family::kOdroid, 0);
  SimRequest def = proposed;
  def.policy = "default";
  return {def, proposed};
}

/// JSON members shared by a submit line and a compare arm.
inline std::string request_members(const SimRequest& r, bool with_seed) {
  using mobitherm::util::json::format_number;
  using mobitherm::util::json::quote;
  std::string out = "\"scenario\":" + quote(r.scenario) +
                    ",\"app\":" + quote(r.app) +
                    ",\"policy\":" + quote(r.policy);
  if (r.with_bml) {
    out += ",\"with_bml\":true";
  }
  out += ",\"duration_s\":" + format_number(r.duration_s);
  if (with_seed) {
    out += ",\"seed\":" + std::to_string(r.seed);
  }
  return out;
}

inline std::string submit_line(const SimRequest& r, int seeds = 1) {
  std::string line = "{\"op\":\"submit\"," + request_members(r, true);
  if (seeds > 1) {
    line += ",\"seeds\":" + std::to_string(seeds);
  }
  return line + "}";
}

inline std::string compare_line(std::uint64_t base_seed) {
  const auto arms = compare_arms();
  return "{\"op\":\"compare\",\"arms\":[{" + request_members(arms[0], false) +
         "},{" + request_members(arms[1], false) + "}],\"metric\":\"" +
         kCompareMetric + "\",\"max_seeds\":" +
         std::to_string(kCompareMaxSeeds) + ",\"round_seeds\":" +
         std::to_string(kCompareRoundSeeds) + ",\"min_seeds\":" +
         std::to_string(kCompareRoundSeeds) +
         ",\"base_seed\":" + std::to_string(base_seed) + "}";
}

/// Hands out requests whose canonical keys were never handed out before:
/// plain requests, wide fans (every lane key new) and compare base seeds
/// (every lane key of both arms new). Seeds stay below 2^53 so they
/// survive the protocol's JSON numbers exactly.
class ColdKeyGen {
 public:
  ColdKeyGen(const ScenarioRegistry& registry, std::uint64_t seed)
      : registry_(registry), state_(seed) {}

  SimRequest plain(Family f) { return fan(f, 1); }

  /// Lane k of the fan is the returned request with seed + k.
  SimRequest fan(Family f, int lanes) {
    for (;;) {
      SimRequest r = family_request(f, next_seed());
      std::vector<std::string> keys;
      for (int k = 0; k < lanes; ++k) {
        SimRequest lane = r;
        lane.seed += static_cast<std::uint64_t>(k);
        keys.push_back(registry_.canonical_key(lane));
      }
      if (claim(keys)) {
        return r;
      }
    }
  }

  std::uint64_t compare_base() {
    for (;;) {
      const std::uint64_t base = next_seed();
      std::vector<std::string> keys = compare_lane_keys(registry_, base);
      keys.push_back("compare;base_seed=" + std::to_string(base));
      if (claim(keys)) {
        return base;
      }
    }
  }

  /// Canonical keys of every lane a compare with `base` can run.
  static std::vector<std::string> compare_lane_keys(
      const ScenarioRegistry& registry, std::uint64_t base) {
    const mobitherm::util::SeedSchedule schedule(base);
    std::vector<std::string> keys;
    for (SimRequest arm : compare_arms()) {
      for (int i = 0; i < kCompareMaxSeeds; ++i) {
        arm.seed = schedule.at(static_cast<std::uint64_t>(i));
        keys.push_back(registry.canonical_key(arm));
      }
    }
    return keys;
  }

 private:
  std::uint64_t next_seed() {
    return mobitherm::util::derive_seed(state_, counter_++) >> 11;
  }

  bool claim(const std::vector<std::string>& keys) {
    for (const std::string& k : keys) {
      if (seen_.count(k) != 0) {
        return false;
      }
    }
    seen_.insert(keys.begin(), keys.end());
    return true;
  }

  const ScenarioRegistry& registry_;
  std::uint64_t state_;
  std::uint64_t counter_ = 0;
  std::unordered_set<std::string> seen_;
};

/// Zipf(0.99) ranks over n keys; the stream is a pure function of the
/// seed.
class ZipfStream {
 public:
  ZipfStream(std::uint64_t seed, std::size_t n) : seed_(seed), cdf_(n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), 0.99);
      cdf_[i] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  std::size_t next() {
    const double u = mobitherm::util::hash_to_unit(
        mobitherm::util::derive_seed(seed_, counter_++));
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t counter_ = 0;
  std::vector<double> cdf_;
};

/// FNV-1a fold over payloads in arrival order (util/hash.h). A newline
/// separates payloads so that moving a byte across a boundary changes it.
struct Digest {
  std::uint64_t state = mobitherm::util::kFnv1aOffsetBasis64;
  std::size_t count = 0;

  void fold(std::string_view payload) {
    state = mobitherm::util::fnv1a64_bytes(payload.data(), payload.size(),
                                           state);
    state = mobitherm::util::fnv1a64_bytes("\n", 1, state);
    ++count;
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(state));
    return buf;
  }
};

/// Wall time since an arbitrary origin, in seconds.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return std::chrono::duration<double>(clock::now() - origin).count();
}

/// CLOCK_MONOTONIC in seconds (std::chrono::steady_clock on Linux), the
/// clock Python's time.monotonic() reads, so run.py can time a set-up from
/// the moment it spawned this process.
inline double monotonic_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log: name, start, end, parent and request id per span,
/// written out once at exit. A disabled log records nothing, so untraced
/// phases pay one branch per call site.
class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t parent = -1;
    std::uint64_t request = 0;
    double start = 0.0;
    double end = 0.0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::int64_t begin(const char* name, std::int64_t parent = -1,
                     std::uint64_t request = 0) {
    if (!enabled_) {
      return -1;
    }
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({intern(name), parent, request, t, t});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void end(std::int64_t index, std::uint64_t request = 0) {
    if (index < 0) {
      return;
    }
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = t;
    if (request != 0) {
      s.request = request;
    }
  }

  /// First line: the JSON list of span names; then one line per span,
  /// "name_index,start_s,end_s,parent_index,request_id".
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fputc('[', f);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ",", names_[i].c_str());
    }
    std::fputs("]\n", f);
    for (const Span& s : spans_) {
      std::fprintf(f, "%u,%.9f,%.9f,%lld,%llu\n", s.name, s.start, s.end,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::uint32_t intern(const char* name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return static_cast<std::uint32_t>(i);
      }
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  bool enabled_ = false;
  std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span over one public call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::int64_t parent = -1,
             std::uint64_t request = 0)
      : log_(log), index_(log.begin(name, parent, request)) {}
  ~ScopedSpan() { log_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int64_t index_;
};

}  // namespace perfbench
