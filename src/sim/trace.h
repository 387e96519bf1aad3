// Simulation trace: decimated time series, OPP residency accounting, and
// per-rail energy — everything needed to regenerate the paper's figures
// (temperature profiles, frequency-residency histograms, power pies).
#pragma once

#include <cstddef>
#include <vector>

namespace mobitherm::sim {

/// One decimated sample of the simulation state.
struct TracePoint {
  double t_s = 0.0;
  /// Max over the chip nodes (what "maximum temperature" plots show).
  double max_chip_temp_k = 0.0;
};

class Trace {
 public:
  Trace(std::size_t num_clusters, const std::vector<std::size_t>& opps_per_cluster);

  void add_point(TracePoint point);

  // Called for every cluster on every tick, so defined here to inline;
  // an index out of range throws ConfigError.
  void add_residency(std::size_t cluster, std::size_t opp_index, double dt) {
    if (cluster >= residency_.size() ||
        opp_index >= residency_[cluster].size()) {
      residency_out_of_range();
    }
    residency_[cluster][opp_index] += dt;
  }
  void add_rail_energy(std::size_t cluster, double joules) {
    if (cluster >= rail_energy_j_.size()) {
      rail_out_of_range();
    }
    rail_energy_j_[cluster] += joules;
  }
  void add_time(double dt) { duration_s_ += dt; }

  const std::vector<TracePoint>& points() const { return points_; }
  double duration_s() const { return duration_s_; }

  /// Seconds spent at each OPP of `cluster`.
  const std::vector<double>& residency_s(std::size_t cluster) const;

  /// Fraction of total time at each OPP of `cluster` (sums to ~1).
  std::vector<double> residency_fraction(std::size_t cluster) const;

  /// Mean power of the cluster rail over the run (true energy / time).
  double mean_rail_power_w(std::size_t cluster) const;

  /// Total energy across all rails (J).
  double total_rail_energy_j() const;

 private:
  [[noreturn]] static void residency_out_of_range();
  [[noreturn]] static void rail_out_of_range();

  std::vector<TracePoint> points_;
  std::vector<std::vector<double>> residency_;
  std::vector<double> rail_energy_j_;
  double duration_s_ = 0.0;
};

}  // namespace mobitherm::sim
