#include "thermal/presets.h"

namespace mobitherm::thermal {

namespace {

// Node indices; keep in sync with platform/presets.h.
constexpr std::size_t kLittle = 0;
constexpr std::size_t kBig = 1;
constexpr std::size_t kGpu = 2;
constexpr std::size_t kMem = 3;
constexpr std::size_t kBoard = 4;

ThermalNodeSpec node(const char* name, double c_j_per_k, double g_w_per_k) {
  return {name, util::joules_per_kelvin(c_j_per_k),
          util::watts_per_kelvin(g_w_per_k)};
}

ThermalLinkSpec link(std::size_t a, std::size_t b, double g_w_per_k) {
  return {a, b, util::watts_per_kelvin(g_w_per_k)};
}

}  // namespace

ThermalNetworkSpec nexus6p_network(util::Kelvin t_ambient) {
  ThermalNetworkSpec spec;
  spec.t_ambient_k = t_ambient;
  spec.nodes = {
      node("little", 0.20, 0.006),
      node("big", 0.35, 0.012),
      node("gpu", 0.30, 0.012),
      node("mem", 0.25, 0.006),
      node("board", 7.00, 0.144),
  };
  spec.links = {
      link(kLittle, kBig, 0.60),  link(kBig, kGpu, 0.50),
      link(kLittle, kGpu, 0.30),  link(kMem, kBig, 0.20),
      link(kMem, kGpu, 0.20),     link(kLittle, kBoard, 0.35),
      link(kBig, kBoard, 0.50),   link(kGpu, kBoard, 0.45),
      link(kMem, kBoard, 0.30),
  };
  return spec;
}

ThermalNetworkSpec odroidxu3_network(util::Kelvin t_ambient) {
  ThermalNetworkSpec spec;
  spec.t_ambient_k = t_ambient;
  spec.nodes = {
      node("little", 0.25, 0.004),
      node("big", 0.45, 0.006),
      node("gpu", 0.40, 0.005),
      node("mem", 0.30, 0.003),
      node("board", 4.50, 0.0598),
  };
  spec.links = {
      link(kLittle, kBig, 0.60),  link(kBig, kGpu, 0.50),
      link(kLittle, kGpu, 0.30),  link(kMem, kBig, 0.20),
      link(kMem, kGpu, 0.20),     link(kLittle, kBoard, 0.35),
      link(kBig, kBoard, 0.50),   link(kGpu, kBoard, 0.45),
      link(kMem, kBoard, 0.30),
  };
  return spec;
}

LumpedParams lumped_equivalent(const ThermalNetworkSpec& spec,
                               util::WattPerKelvin2 leak_a,
                               util::Kelvin leak_theta) {
  LumpedParams p;
  p.t_ambient_k = spec.t_ambient_k;
  p.g_w_per_k = util::watts_per_kelvin(0.0);
  p.c_j_per_k = util::joules_per_kelvin(0.0);
  for (const ThermalNodeSpec& n : spec.nodes) {
    p.g_w_per_k += n.g_ambient_w_per_k;
    p.c_j_per_k += n.capacitance_j_per_k;
  }
  p.leak_a_w_per_k2 = leak_a;
  p.leak_theta_k = leak_theta;
  return p;
}

}  // namespace mobitherm::thermal
