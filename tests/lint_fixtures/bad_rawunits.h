// Fixture: raw unit-suffixed double parameters in a public header.
// These should be util::Kelvin / util::Hertz / util::Watt instead.
// LINT-EXPECT: raw-units-param
// LINT-EXPECT: raw-units-param
// LINT-EXPECT: raw-units-param
#pragma once

class BadModel {
 public:
  void set_ambient(double t_ambient_k);
  double power_at(double freq_hz, double temp_k) const;
};
