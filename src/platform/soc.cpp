#include "platform/soc.h"

#include "util/error.h"

namespace mobitherm::platform {

using util::ConfigError;

const char* to_string(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpuLittle:
      return "cpu-little";
    case ResourceKind::kCpuBig:
      return "cpu-big";
    case ResourceKind::kGpu:
      return "gpu";
    case ResourceKind::kMemory:
      return "memory";
  }
  return "?";
}

std::size_t SocSpec::index_of_kind(ResourceKind kind) const {
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i].kind == kind) {
      return i;
    }
  }
  throw ConfigError(std::string("SocSpec: no cluster of kind ") +
                    to_string(kind));
}

bool SocSpec::has_kind(ResourceKind kind) const {
  for (const ClusterSpec& c : clusters) {
    if (c.kind == kind) {
      return true;
    }
  }
  return false;
}

Soc::Soc(SocSpec spec) : spec_(std::move(spec)) {
  if (spec_.clusters.empty()) {
    throw ConfigError("Soc: spec has no clusters");
  }
  states_.reserve(spec_.clusters.size());
  for (const ClusterSpec& c : spec_.clusters) {
    if (c.num_cores <= 0) {
      throw ConfigError("Soc: cluster " + c.name + " has no cores");
    }
    if (c.ipc <= 0.0) {
      throw ConfigError("Soc: cluster " + c.name + " has non-positive ipc");
    }
    if (c.opps.size() == 0) {
      throw ConfigError("Soc: cluster " + c.name + " has an empty OPP table");
    }
    states_.push_back(ClusterState{0, c.num_cores});
  }
}

void Soc::set_opp(std::size_t c, std::size_t opp_index) {
  check_cluster(c);
  if (opp_index >= spec_.clusters[c].opps.size()) {
    throw ConfigError("Soc::set_opp: index out of range for cluster " +
                      spec_.clusters[c].name);
  }
  states_[c].opp_index = opp_index;
}

void Soc::set_online_cores(std::size_t c, int cores) {
  check_cluster(c);
  if (cores < 0 || cores > spec_.clusters[c].num_cores) {
    throw ConfigError("Soc::set_online_cores: count out of range");
  }
  states_[c].online_cores = cores;
}

void Soc::cluster_out_of_range() {
  throw ConfigError("Soc: cluster index out of range");
}

}  // namespace mobitherm::platform
