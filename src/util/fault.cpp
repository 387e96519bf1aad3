#include "util/fault.h"

#include <cstdio>
#include <cstdlib>

#include "util/error.h"
#include "util/hash.h"
#include "util/rng.h"

namespace mobitherm::util {

namespace {

FaultSite site_at(int index) { return static_cast<FaultSite>(index); }

int index_of(FaultSite site) { return static_cast<int>(site); }

/// Uniform [0, 1) from a hash of (seed, site, key); the decision function.
double decision_uniform(std::uint64_t seed, FaultSite site,
                        std::uint64_t key) {
  const std::uint64_t stream =
      derive_seed(seed, static_cast<std::uint64_t>(index_of(site)) + 1);
  return hash_to_unit(derive_seed(stream, key));
}

}  // namespace

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kQueueAdmission:
      return "admission";
    case FaultSite::kWorkerCrashBeforeSlice:
      return "crash_before";
    case FaultSite::kWorkerCrashAfterSlice:
      return "crash_after";
    case FaultSite::kCacheCorruption:
      return "corrupt";
    case FaultSite::kSliceLatency:
      return "latency";
    case FaultSite::kMalformedResponse:
      return "malformed";
  }
  return "unknown";
}

FaultInjected::FaultInjected(FaultSite site)
    : std::runtime_error(std::string("injected fault at site '") +
                         to_string(site) + "'"),
      site_(site) {}

FaultPlan::FaultPlan(const FaultPlanConfig& config) : config_(config) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    const double p = config_.probability[i];
    if (p < 0.0 || p > 1.0) {
      throw ConfigError(std::string("FaultPlan: probability for '") +
                        to_string(site_at(i)) + "' must be in [0, 1]");
    }
    if (p > 0.0) {
      enabled_ = true;
    }
  }
  if (config_.latency_s < 0.0) {
    throw ConfigError("FaultPlan: latency_s must be nonnegative");
  }
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  return FaultPlan(parse_config(spec));
}

FaultPlanConfig FaultPlan::parse_config(const std::string& spec) {
  FaultPlanConfig config;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      continue;
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("FaultPlan: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    char* parse_end = nullptr;
    const double number = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0') {
      throw ConfigError("FaultPlan: bad value for '" + key + "': " + value);
    }
    if (key == "seed") {
      config.seed = static_cast<std::uint64_t>(number);
      continue;
    }
    if (key == "latency_s") {
      config.latency_s = number;
      continue;
    }
    bool matched = false;
    for (int i = 0; i < kNumFaultSites; ++i) {
      if (key == to_string(site_at(i))) {
        config.probability[i] = number;
        matched = true;
        break;
      }
    }
    if (!matched) {
      throw ConfigError("FaultPlan: unknown spec key '" + key + "'");
    }
  }
  return config;
}

double FaultPlan::probability(FaultSite site) const {
  return config_.probability[index_of(site)];
}

void FaultPlan::set_probability(FaultSite site, double probability) {
  if (probability < 0.0 || probability > 1.0) {
    throw ConfigError(std::string("FaultPlan: probability for '") +
                      to_string(site) + "' must be in [0, 1]");
  }
  config_.probability[index_of(site)] = probability;
  enabled_ = false;
  for (const double p : config_.probability) {
    if (p > 0.0) {
      enabled_ = true;
    }
  }
}

bool FaultPlan::should_inject(FaultSite site, std::uint64_t key) const {
  const double p = config_.probability[index_of(site)];
  if (p <= 0.0) {
    return false;
  }
  return decision_uniform(config_.seed, site, key) < p;
}

bool FaultPlan::fires(FaultSite site, std::uint64_t key) {
  if (!enabled_) {
    return false;
  }
  if (!should_inject(site, key)) {
    return false;
  }
  fired_[index_of(site)].fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(journal_mutex_);
    if (journal_.size() >= config_.journal_capacity) {
      journal_.erase(journal_.begin());
    }
    journal_.push_back(Event{site, key});
  }
  return true;
}

std::uint64_t FaultPlan::next_sequence(FaultSite site) {
  return sequence_[index_of(site)].fetch_add(1, std::memory_order_relaxed);
}

double FaultPlan::jitter(std::uint64_t key) const {
  return 0.5 + hash_to_unit(derive_seed(config_.seed ^ 0x6a7f1c3b9d2e4550ULL,
                                        key));
}

std::uint64_t FaultPlan::injected(FaultSite site) const {
  return fired_[index_of(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultPlan::total_injected() const {
  std::uint64_t total = 0;
  for (const auto& count : fired_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<FaultPlan::Event> FaultPlan::journal() const {
  MutexLock lock(journal_mutex_);
  return journal_;
}

std::string FaultPlan::journal_string() const {
  std::string out;
  for (const Event& e : journal()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "@%016llx",
                  static_cast<unsigned long long>(e.key));
    if (!out.empty()) {
      out.push_back(';');
    }
    out += to_string(e.site);
    out += buf;
  }
  return out;
}

void FaultPlan::reset() {
  MutexLock lock(journal_mutex_);
  journal_.clear();
  for (auto& count : fired_) {
    count.store(0, std::memory_order_relaxed);
  }
  for (auto& seq : sequence_) {
    seq.store(0, std::memory_order_relaxed);
  }
}

}  // namespace mobitherm::util
