#include "power/model.h"

#include <cmath>

#include "util/error.h"

namespace mobitherm::power {

using util::ConfigError;

PowerModel::PowerModel(const platform::SocSpec& spec, LeakageParams leakage,
                       util::Watt board_base_w)
    : spec_(spec), leakage_(leakage), board_base_w_(board_base_w) {
  if (leakage_.form == LeakageForm::kBsim) {
    if (leakage_.theta_k <= util::kelvin(0.0) ||
        leakage_.a_w_per_k2 < util::watts_per_kelvin2(0.0)) {
      throw ConfigError("PowerModel: invalid leakage parameters");
    }
  } else {
    if (leakage_.exp_a_w <= util::watts(0.0) || leakage_.exp_b_per_k <= 0.0) {
      throw ConfigError(
          "PowerModel: exponential leakage requires positive A_e and B");
    }
  }
  if (board_base_w_ < util::watts(0.0)) {
    throw ConfigError("PowerModel: negative board base power");
  }
}

ClusterPower PowerModel::cluster_power(const platform::Soc& soc,
                                       std::size_t c,
                                       const ClusterActivity& activity) const {
  const platform::ClusterSpec& cs = soc.cluster(c);
  const platform::ClusterState& st = soc.state(c);
  if (activity.busy_cores < -1e-9 ||
      activity.busy_cores > st.online_cores + 1e-9) {
    throw ConfigError("PowerModel: busy_cores out of [0, online] for " +
                      cs.name);
  }
  const util::Volt v = soc.voltage_v(c);
  const util::Hertz f = soc.frequency_hz(c);

  ClusterPower p;
  p.dynamic_w = activity.busy_cores * cs.ceff_f * v * v * f;
  p.idle_w = st.online_cores > 0 ? cs.idle_power_w : util::watts(0.0);
  const util::Kelvin t = activity.temp_k;
  // The baseline branch keeps the original expression (and evaluation
  // order) exactly: regression traces pin the baseline model bitwise.
  if (leakage_.form == LeakageForm::kBsim) {
    p.leakage_w = cs.leakage_share * leakage_.a_w_per_k2 * t * t *
                  std::exp(-leakage_.theta_k / t) *
                  (v / cs.nominal_voltage_v);
  } else {
    p.leakage_w = cs.leakage_share * leakage_.exp_a_w *
                  std::exp(leakage_.exp_b_per_k * t.value()) *
                  (v / cs.nominal_voltage_v);
  }
  return p;
}

util::Watt PowerModel::dynamic_per_core_at(std::size_t c,
                                           std::size_t opp) const {
  if (c >= spec_.clusters.size()) {
    throw ConfigError("PowerModel: cluster index out of range");
  }
  const platform::ClusterSpec& cs = spec_.clusters[c];
  const platform::OperatingPoint& pt = cs.opps.at(opp);
  return cs.ceff_f * pt.voltage_v * pt.voltage_v * pt.freq_hz;
}

util::Watt PowerModel::soc_leakage_nominal(util::Kelvin temp) const {
  if (leakage_.form == LeakageForm::kBsim) {
    return leakage_.a_w_per_k2 * temp * temp *
           std::exp(-leakage_.theta_k / temp);
  }
  return leakage_.exp_a_w * std::exp(leakage_.exp_b_per_k * temp.value());
}

}  // namespace mobitherm::power
