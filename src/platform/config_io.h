// Plain-text platform descriptions.
//
// Lets users model their own board without recompiling: a single file
// carries the SoC clusters (with OPP ladders and power coefficients) and
// the RC thermal network, read by load_platform.
//
// Format (line oriented; '#' starts a comment):
//
//   soc <name>
//   cluster <name> <kind> <cores> <ipc> <ceff_f> <idle_w>
//           <leak_share> <vnom> <thermal_node>        (one line)
//   opp <mhz> <mv>                  # belongs to the last cluster
//   thermal ambient_c <celsius>
//   node <name> <capacitance_j_per_k> <g_ambient_w_per_k>
//   link <a> <b> <conductance_w_per_k>
//
// Kinds: cpu-little, cpu-big, gpu, memory.
#pragma once

#include <string>

#include "platform/soc.h"
#include "thermal/network.h"

namespace mobitherm::platform {

struct PlatformDescription {
  SocSpec soc;
  thermal::ThermalNetworkSpec network;
};

/// Parse a platform file. Throws ConfigError with the offending line
/// number on malformed input.
PlatformDescription load_platform(const std::string& path);

/// Parse a resource kind name ("cpu-big", ...). Throws on unknown names.
ResourceKind parse_resource_kind(const std::string& name);

}  // namespace mobitherm::platform
