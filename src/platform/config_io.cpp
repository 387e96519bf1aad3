#include "platform/config_io.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/units.h"

namespace mobitherm::platform {

using util::ConfigError;

ResourceKind parse_resource_kind(const std::string& name) {
  if (name == "cpu-little") {
    return ResourceKind::kCpuLittle;
  }
  if (name == "cpu-big") {
    return ResourceKind::kCpuBig;
  }
  if (name == "gpu") {
    return ResourceKind::kGpu;
  }
  if (name == "memory") {
    return ResourceKind::kMemory;
  }
  throw ConfigError("unknown resource kind: " + name);
}

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw ConfigError("platform file line " + std::to_string(line) + ": " +
                    what);
}

}  // namespace

PlatformDescription load_platform(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ConfigError("load_platform: cannot open " + path);
  }
  PlatformDescription desc;
  desc.network.t_ambient_k = util::kelvin(298.15);

  // OPPs are collected per cluster and attached when the cluster closes.
  std::vector<std::pair<double, double>> pending_opps;
  bool have_cluster = false;
  ClusterSpec current;

  auto flush_cluster = [&](int line) {
    if (!have_cluster) {
      return;
    }
    if (pending_opps.empty()) {
      fail(line, "cluster " + current.name + " has no opp lines");
    }
    current.opps = OppTable::from_mhz_mv(pending_opps);
    desc.soc.clusters.push_back(current);
    pending_opps.clear();
    have_cluster = false;
  };

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t comment = line.find('#');
    if (comment != std::string::npos) {
      line.erase(comment);
    }
    std::istringstream row(line);
    std::string keyword;
    if (!(row >> keyword)) {
      continue;  // blank line
    }
    if (keyword == "soc") {
      if (!(row >> desc.soc.name)) {
        fail(line_no, "soc needs a name");
      }
    } else if (keyword == "cluster") {
      flush_cluster(line_no);
      std::string kind;
      // Parse raw magnitudes, then enter the typed domain explicitly.
      double ceff_f = 0.0;
      double idle_power_w = 0.0;
      double nominal_voltage_v = 0.0;
      if (!(row >> current.name >> kind >> current.num_cores >>
            current.ipc >> ceff_f >> idle_power_w >>
            current.leakage_share >> nominal_voltage_v >>
            current.thermal_node)) {
        fail(line_no, "cluster needs 9 fields");
      }
      current.ceff_f = util::farads(ceff_f);
      current.idle_power_w = util::watts(idle_power_w);
      current.nominal_voltage_v = util::volts(nominal_voltage_v);
      current.kind = parse_resource_kind(kind);
      have_cluster = true;
    } else if (keyword == "opp") {
      if (!have_cluster) {
        fail(line_no, "opp before any cluster");
      }
      double mhz = 0.0;
      double mv = 0.0;
      if (!(row >> mhz >> mv)) {
        fail(line_no, "opp needs <mhz> <mv>");
      }
      pending_opps.emplace_back(mhz, mv);
    } else if (keyword == "thermal") {
      std::string sub;
      double celsius = 0.0;
      if (!(row >> sub >> celsius) || sub != "ambient_c") {
        fail(line_no, "expected: thermal ambient_c <celsius>");
      }
      desc.network.t_ambient_k = util::celsius(celsius);
    } else if (keyword == "node") {
      thermal::ThermalNodeSpec node;
      double capacitance_j_per_k = 0.0;
      double g_ambient_w_per_k = 0.0;
      if (!(row >> node.name >> capacitance_j_per_k >> g_ambient_w_per_k)) {
        fail(line_no, "node needs <name> <C> <g_amb>");
      }
      node.capacitance_j_per_k = util::joules_per_kelvin(capacitance_j_per_k);
      node.g_ambient_w_per_k = util::watts_per_kelvin(g_ambient_w_per_k);
      desc.network.nodes.push_back(node);
    } else if (keyword == "link") {
      thermal::ThermalLinkSpec link;
      double conductance_w_per_k = 0.0;
      if (!(row >> link.a >> link.b >> conductance_w_per_k)) {
        fail(line_no, "link needs <a> <b> <g>");
      }
      link.conductance_w_per_k = util::watts_per_kelvin(conductance_w_per_k);
      desc.network.links.push_back(link);
    } else {
      fail(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  flush_cluster(line_no);

  if (desc.soc.clusters.empty()) {
    throw ConfigError("load_platform: no clusters in " + path);
  }
  if (desc.network.nodes.empty()) {
    throw ConfigError("load_platform: no thermal nodes in " + path);
  }
  // Validate eagerly: constructing these throws on inconsistency.
  Soc validate_soc(desc.soc);
  thermal::ThermalNetwork validate_net(desc.network);
  for (const ClusterSpec& c : desc.soc.clusters) {
    if (c.thermal_node >= desc.network.nodes.size()) {
      throw ConfigError("load_platform: cluster " + c.name +
                        " maps to nonexistent thermal node");
    }
  }
  return desc;
}

}  // namespace mobitherm::platform
