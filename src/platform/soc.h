// SoC descriptors (static specs) and runtime DVFS state.
//
// A SocSpec lists the clusters of a heterogeneous SoC (LITTLE CPU, big CPU,
// GPU, and a memory pseudo-cluster for the DRAM rail). The runtime Soc
// object tracks each cluster's current OPP index and online core count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "platform/opp.h"
#include "util/units.h"

namespace mobitherm::platform {

/// Kind of processing resource a cluster represents.
enum class ResourceKind { kCpuLittle, kCpuBig, kGpu, kMemory };

const char* to_string(ResourceKind kind);

/// Static description of one frequency domain.
struct ClusterSpec {
  std::string name;
  ResourceKind kind = ResourceKind::kCpuLittle;
  int num_cores = 1;
  OppTable opps;

  /// Abstract work units retired per cycle per core. Normalizes
  /// heterogeneous throughput: a process doing W work units runs W /
  /// (ipc * freq) seconds on one core of this cluster.
  double ipc = 1.0;

  /// Effective switched capacitance: dynamic power of one fully busy core
  /// is ceff * V^2 * f (Farad * Volt^2 * Hertz = Watt, checked at compile
  /// time).
  util::Farad ceff_f{};

  /// Power drawn by the cluster when idle at any OPP.
  util::Watt idle_power_w{};

  /// Share of the SoC leakage coefficient attributed to this cluster;
  /// shares across clusters should sum to ~1.
  double leakage_share = 0.0;

  /// Voltage at which the leakage share was characterized; leakage scales
  /// linearly with V / nominal_voltage_v.
  util::Volt nominal_voltage_v{1.0};

  /// Index of the thermal-network node this cluster heats.
  std::size_t thermal_node = 0;
};

/// Static description of a system-on-chip.
struct SocSpec {
  std::string name;
  std::vector<ClusterSpec> clusters;

  /// Index of the first cluster of the given kind; throws if absent.
  std::size_t index_of_kind(ResourceKind kind) const;

  bool has_kind(ResourceKind kind) const;

  std::size_t little() const { return index_of_kind(ResourceKind::kCpuLittle); }
  std::size_t big() const { return index_of_kind(ResourceKind::kCpuBig); }
  std::size_t gpu() const { return index_of_kind(ResourceKind::kGpu); }
};

/// Runtime DVFS/hotplug state of one cluster.
struct ClusterState {
  std::size_t opp_index = 0;
  int online_cores = 0;
};

/// Runtime SoC: spec plus mutable per-cluster state. Clusters start at
/// their lowest OPP with all cores online.
class Soc {
 public:
  explicit Soc(SocSpec spec);

  const SocSpec& spec() const { return spec_; }
  std::size_t num_clusters() const { return spec_.clusters.size(); }

  // Defined here so that the per-tick reads inline; each throws
  // ConfigError for a cluster index >= num_clusters().
  const ClusterSpec& cluster(std::size_t c) const {
    check_cluster(c);
    return spec_.clusters[c];
  }
  const ClusterState& state(std::size_t c) const {
    check_cluster(c);
    return states_[c];
  }

  /// Set the OPP index; throws ConfigError if out of range.
  void set_opp(std::size_t c, std::size_t opp_index);

  /// Set the number of online cores in [0, num_cores].
  void set_online_cores(std::size_t c, int cores);

  util::Hertz frequency_hz(std::size_t c) const {
    check_cluster(c);
    return spec_.clusters[c].opps.at(states_[c].opp_index).freq_hz;
  }
  util::Volt voltage_v(std::size_t c) const {
    check_cluster(c);
    return spec_.clusters[c].opps.at(states_[c].opp_index).voltage_v;
  }

  /// Work units/s available to a single thread (ipc * freq).
  double per_core_rate(std::size_t c) const {
    check_cluster(c);
    // Abstract work units/s: ipc (work/cycle) x cycles/s. Work units are
    // not an SI dimension, so this is a sanctioned .value() boundary.
    return spec_.clusters[c].ipc * frequency_hz(c).value();
  }

 private:
  void check_cluster(std::size_t c) const {
    if (c >= spec_.clusters.size()) {
      cluster_out_of_range();
    }
  }
  /// Throws the out-of-range ConfigError; out of line, so the inline
  /// check stays a compare and a branch.
  [[noreturn]] static void cluster_out_of_range();

  SocSpec spec_;
  std::vector<ClusterState> states_;
};

}  // namespace mobitherm::platform
