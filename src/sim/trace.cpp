#include "sim/trace.h"

#include "util/error.h"

namespace mobitherm::sim {

using util::ConfigError;

Trace::Trace(std::size_t num_clusters,
             const std::vector<std::size_t>& opps_per_cluster)
    : rail_energy_j_(num_clusters, 0.0) {
  if (opps_per_cluster.size() != num_clusters) {
    throw ConfigError("Trace: opps_per_cluster size mismatch");
  }
  residency_.reserve(num_clusters);
  for (std::size_t n : opps_per_cluster) {
    residency_.emplace_back(n, 0.0);
  }
}

void Trace::add_point(TracePoint point) {
  points_.push_back(std::move(point));
}

void Trace::residency_out_of_range() {
  throw ConfigError("Trace: residency index out of range");
}

void Trace::rail_out_of_range() {
  throw ConfigError("Trace: rail index out of range");
}

const std::vector<double>& Trace::residency_s(std::size_t cluster) const {
  if (cluster >= residency_.size()) {
    throw ConfigError("Trace: cluster index out of range");
  }
  return residency_[cluster];
}

std::vector<double> Trace::residency_fraction(std::size_t cluster) const {
  const std::vector<double>& s = residency_s(cluster);
  double total = 0.0;
  for (double v : s) {
    total += v;
  }
  std::vector<double> frac(s.size(), 0.0);
  if (total > 0.0) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      frac[i] = s[i] / total;
    }
  }
  return frac;
}

double Trace::mean_rail_power_w(std::size_t cluster) const {
  if (cluster >= rail_energy_j_.size()) {
    rail_out_of_range();
  }
  return duration_s_ > 0.0 ? rail_energy_j_[cluster] / duration_s_ : 0.0;
}

double Trace::total_rail_energy_j() const {
  double total = 0.0;
  for (double e : rail_energy_j_) {
    total += e;
  }
  return total;
}

}  // namespace mobitherm::sim
