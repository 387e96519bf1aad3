// Operating performance points (frequency/voltage pairs) and OPP tables.
//
// Governors never set raw frequencies; they pick OPP indices, exactly like
// the Linux cpufreq/devfreq frameworks the paper's experiments exercise.
// Frequencies and voltages are dimensioned (util::Hertz / util::Volt);
// raw MHz/mV enter only through the explicit from_mhz_mv edge constructor.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/units.h"

namespace mobitherm::platform {

/// One DVFS operating point.
struct OperatingPoint {
  util::Hertz freq_hz{};
  util::Volt voltage_v{};
};

/// Immutable, ascending-frequency table of operating points.
class OppTable {
 public:
  /// Empty table; a placeholder until a real ladder is assigned. Rejected
  /// by Soc at construction.
  OppTable() = default;

  /// Points are sorted by frequency; duplicate frequencies are rejected.
  /// The list must be non-empty.
  explicit OppTable(std::vector<OperatingPoint> points);

  /// Convenience constructor from (MHz, mV) pairs.
  static OppTable from_mhz_mv(
      const std::vector<std::pair<double, double>>& points);

  std::size_t size() const { return points_.size(); }
  /// Throws ConfigError for index >= size(). Inline: every tick reads it.
  const OperatingPoint& at(std::size_t index) const {
    if (index >= points_.size()) {
      index_out_of_range();
    }
    return points_[index];
  }
  const OperatingPoint& lowest() const { return points_.front(); }
  const OperatingPoint& highest() const { return points_.back(); }
  std::size_t max_index() const { return points_.size() - 1; }

  /// Index of the lowest OPP with frequency >= freq; max_index() if
  /// freq is above the highest OPP.
  std::size_t ceil_index(util::Hertz freq) const;

  auto begin() const { return points_.begin(); }
  auto end() const { return points_.end(); }

 private:
  [[noreturn]] static void index_out_of_range();

  std::vector<OperatingPoint> points_;
};

}  // namespace mobitherm::platform
