#include "platform/opp.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/units.h"

namespace mobitherm::platform {

using util::ConfigError;

OppTable::OppTable(std::vector<OperatingPoint> points)
    : points_(std::move(points)) {
  if (points_.empty()) {
    throw ConfigError("OppTable must contain at least one operating point");
  }
  std::sort(points_.begin(), points_.end(),
            [](const OperatingPoint& a, const OperatingPoint& b) {
              return a.freq_hz < b.freq_hz;
            });
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].freq_hz <= util::hertz(0.0) ||
        points_[i].voltage_v <= util::volts(0.0)) {
      throw ConfigError("OppTable entries must have positive freq/voltage");
    }
    if (i > 0 && points_[i].freq_hz - points_[i - 1].freq_hz <
                     util::hertz(1.0)) {
      throw ConfigError("OppTable entries must have distinct frequencies");
    }
  }
}

OppTable OppTable::from_mhz_mv(
    const std::vector<std::pair<double, double>>& points) {
  std::vector<OperatingPoint> converted;
  converted.reserve(points.size());
  for (const auto& [mhz, mv] : points) {
    converted.push_back({util::megahertz(mhz), util::millivolts(mv)});
  }
  return OppTable(std::move(converted));
}

void OppTable::index_out_of_range() {
  throw ConfigError("OppTable index out of range");
}

std::size_t OppTable::ceil_index(util::Hertz freq) const {
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].freq_hz >= freq) {
      return i;
    }
  }
  return max_index();
}

}  // namespace mobitherm::platform
