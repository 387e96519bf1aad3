// Unit conventions, conversion helpers, and the compile-time dimensional
// analysis layer used across mobitherm.
//
// All internal computations use SI units:
//   temperature  -> kelvin   (Kelvin)
//   power        -> watt     (Watt)
//   frequency    -> hertz    (Hertz)
//   time         -> second   (Seconds)
//   capacitance  -> J/K (JoulePerKelvin), conductance -> W/K (WattPerKelvin)
//
// A `Quantity<Dim>` is a double tagged with its SI base-dimension exponents
// (mass, length, time, current, temperature). Arithmetic yields the correct
// derived dimension at compile time — `Watt / WattPerKelvin` is a `Kelvin`,
// `Farad * Volt * Volt * Hertz` is a `Watt` — and mixing dimensions is a
// compile error. Construction is explicit (`kelvin(300.0)`, `celsius(85.0)`,
// `watts(2.5)`, ...), so a Celsius-into-Kelvin or mW-into-W slip cannot pass
// silently through a typed API. The wrapper is zero-overhead: trivially
// copyable, same size as double, all operations constexpr and inline.
//
// Raw doubles leave the typed domain only through `.value()`, and only at
// the sanctioned boundaries: linalg vectors/matrices, traces/CSV, sensor
// sample arrays, and user-facing presentation (degC / MHz / ms at the edge,
// via the helpers at the bottom). scripts/mobilint.py enforces that public
// headers do not grow new raw-double unit parameters.
#pragma once

#include <type_traits>

namespace mobitherm::util {

// ---------------------------------------------------------------------------
// Dimension algebra
// ---------------------------------------------------------------------------

/// SI base-dimension exponents: kg^M m^L s^T A^I K^K.
template <int M, int L, int T, int I, int K>
struct Dim {
  static constexpr int mass = M;
  static constexpr int length = L;
  static constexpr int time = T;
  static constexpr int current = I;
  static constexpr int temperature = K;
};

template <typename A, typename B>
using DimMultiply = Dim<A::mass + B::mass, A::length + B::length,
                        A::time + B::time, A::current + B::current,
                        A::temperature + B::temperature>;

template <typename A, typename B>
using DimDivide = Dim<A::mass - B::mass, A::length - B::length,
                      A::time - B::time, A::current - B::current,
                      A::temperature - B::temperature>;

using Dimensionless = Dim<0, 0, 0, 0, 0>;

template <typename D>
inline constexpr bool is_dimensionless_v =
    std::is_same_v<D, Dimensionless>;

// ---------------------------------------------------------------------------
// Quantity
// ---------------------------------------------------------------------------

/// A double tagged with a dimension. Explicit construction, explicit
/// `.value()` exit; dimensioned arithmetic in between.
template <typename D>
class Quantity {
 public:
  using dimension = D;

  constexpr Quantity() = default;
  explicit constexpr Quantity(double value) : value_(value) {}

  /// The raw SI magnitude. The only exit from the typed domain; call sites
  /// mark the sanctioned raw-double boundaries (linalg, traces, sensors).
  constexpr double value() const { return value_; }

  // Same-dimension arithmetic.
  constexpr Quantity operator+(Quantity other) const {
    return Quantity(value_ + other.value_);
  }
  constexpr Quantity operator-(Quantity other) const {
    return Quantity(value_ - other.value_);
  }
  constexpr Quantity operator-() const { return Quantity(-value_); }
  constexpr Quantity& operator+=(Quantity other) {
    value_ += other.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity other) {
    value_ -= other.value_;
    return *this;
  }

  // Scalar scaling.
  constexpr Quantity operator*(double s) const { return Quantity(value_ * s); }
  constexpr Quantity operator/(double s) const { return Quantity(value_ / s); }
  constexpr Quantity& operator*=(double s) {
    value_ *= s;
    return *this;
  }
  constexpr Quantity& operator/=(double s) {
    value_ /= s;
    return *this;
  }

  // Comparisons (same dimension only).
  constexpr bool operator==(Quantity other) const {
    return value_ == other.value_;
  }
  constexpr bool operator!=(Quantity other) const {
    return value_ != other.value_;
  }
  constexpr bool operator<(Quantity other) const {
    return value_ < other.value_;
  }
  constexpr bool operator<=(Quantity other) const {
    return value_ <= other.value_;
  }
  constexpr bool operator>(Quantity other) const {
    return value_ > other.value_;
  }
  constexpr bool operator>=(Quantity other) const {
    return value_ >= other.value_;
  }

 private:
  double value_ = 0.0;
};

/// Result type of a dimension product/quotient: collapses to plain double
/// when the dimensions cancel, so `Watt / Watt` is an ordinary ratio.
template <typename D>
using QuantityOrDouble =
    std::conditional_t<is_dimensionless_v<D>, double, Quantity<D>>;

namespace detail {
template <typename D>
constexpr QuantityOrDouble<D> make_quantity(double value) {
  if constexpr (is_dimensionless_v<D>) {
    return value;
  } else {
    return Quantity<D>(value);
  }
}
}  // namespace detail

// Cross-dimension products and quotients.
template <typename A, typename B>
constexpr QuantityOrDouble<DimMultiply<A, B>> operator*(Quantity<A> a,
                                                        Quantity<B> b) {
  return detail::make_quantity<DimMultiply<A, B>>(a.value() * b.value());
}

template <typename A, typename B>
constexpr QuantityOrDouble<DimDivide<A, B>> operator/(Quantity<A> a,
                                                      Quantity<B> b) {
  return detail::make_quantity<DimDivide<A, B>>(a.value() / b.value());
}

template <typename D>
constexpr Quantity<D> operator*(double s, Quantity<D> q) {
  return Quantity<D>(s * q.value());
}

template <typename D>
constexpr QuantityOrDouble<DimDivide<Dimensionless, D>> operator/(
    double s, Quantity<D> q) {
  return detail::make_quantity<DimDivide<Dimensionless, D>>(s / q.value());
}

// ---------------------------------------------------------------------------
// Named dimensions                      kg   m   s   A   K
// ---------------------------------------------------------------------------
using Kelvin          = Quantity<Dim<0,  0,  0,  0,  1>>;
using Seconds         = Quantity<Dim<0,  0,  1,  0,  0>>;
using Hertz           = Quantity<Dim<0,  0, -1,  0,  0>>;
using Joule           = Quantity<Dim<1,  2, -2,  0,  0>>;
using Watt            = Quantity<Dim<1,  2, -3,  0,  0>>;
using JoulePerKelvin  = Quantity<Dim<1,  2, -2,  0, -1>>;
using WattPerKelvin   = Quantity<Dim<1,  2, -3,  0, -1>>;
using WattPerKelvin2  = Quantity<Dim<1,  2, -3,  0, -2>>;
using Volt            = Quantity<Dim<1,  2, -3, -1,  0>>;
using Farad           = Quantity<Dim<-1, -2, 4,  2,  0>>;
using KelvinPerSecond = Quantity<Dim<0,  0, -1,  0,  1>>;
using WattPerKelvinSecond = Quantity<Dim<1, 2, -4,  0, -1>>;

// Zero-overhead proof: the tags must compile away entirely.
static_assert(sizeof(Kelvin) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Kelvin>);
static_assert(std::is_trivially_destructible_v<Watt>);
static_assert(std::is_standard_layout_v<JoulePerKelvin>);

// Derived-dimension sanity: the identities the physics relies on.
static_assert(std::is_same_v<decltype(Watt{} / WattPerKelvin{}), Kelvin>);
static_assert(std::is_same_v<decltype(WattPerKelvin{} * Kelvin{}), Watt>);
static_assert(std::is_same_v<decltype(Joule{} / Seconds{}), Watt>);
static_assert(std::is_same_v<decltype(JoulePerKelvin{} / WattPerKelvin{}),
                             Seconds>);
static_assert(std::is_same_v<decltype(Farad{} * Volt{} * Volt{} * Hertz{}),
                             Watt>);
static_assert(std::is_same_v<decltype(WattPerKelvin2{} * Kelvin{} * Kelvin{}),
                             Watt>);
static_assert(std::is_same_v<decltype(Watt{} / Watt{}), double>);
static_assert(std::is_same_v<decltype(1.0 / Seconds{}), Hertz>);
static_assert(std::is_same_v<decltype(Kelvin{} / Seconds{}),
                             KelvinPerSecond>);
static_assert(std::is_same_v<decltype(Watt{} / JoulePerKelvin{}),
                             KelvinPerSecond>);
static_assert(std::is_same_v<
              decltype(WattPerKelvinSecond{} * Kelvin{} * Seconds{}), Watt>);

inline constexpr double kZeroCelsiusInKelvin = 273.15;

/// Presentation-edge tag for temperatures in degrees Celsius. Converts to
/// the internal Kelvin domain explicitly, never implicitly.
struct Celsius {
  double degrees = 0.0;
  constexpr Kelvin kelvin() const {
    return Kelvin(degrees + kZeroCelsiusInKelvin);
  }
};

// ---------------------------------------------------------------------------
// Tagged constructors (the only sanctioned way into the typed domain)
// ---------------------------------------------------------------------------
constexpr Kelvin kelvin(double k) { return Kelvin(k); }
constexpr Kelvin celsius(double c) { return Celsius{c}.kelvin(); }

constexpr Seconds seconds(double s) { return Seconds(s); }
constexpr Seconds milliseconds(double ms) { return Seconds(ms * 1.0e-3); }
constexpr Hertz hertz(double hz) { return Hertz(hz); }
constexpr Hertz megahertz(double mhz) { return Hertz(mhz * 1.0e6); }
constexpr Watt watts(double w) { return Watt(w); }
constexpr Watt milliwatts(double mw) { return Watt(mw * 1.0e-3); }
constexpr Joule joules(double j) { return Joule(j); }
constexpr Volt volts(double v) { return Volt(v); }
constexpr Volt millivolts(double mv) { return Volt(mv * 1.0e-3); }
constexpr Farad farads(double f) { return Farad(f); }
constexpr JoulePerKelvin joules_per_kelvin(double jk) {
  return JoulePerKelvin(jk);
}
constexpr WattPerKelvin watts_per_kelvin(double wk) {
  return WattPerKelvin(wk);
}
constexpr WattPerKelvin2 watts_per_kelvin2(double wk2) {
  return WattPerKelvin2(wk2);
}
constexpr WattPerKelvinSecond watts_per_kelvin_second(double wks) {
  return WattPerKelvinSecond(wks);
}

// ---------------------------------------------------------------------------
// Raw-double conversion helpers (presentation edge only)
// ---------------------------------------------------------------------------
// Traces, tables and plots convert to degC / MHz / ms at the boundary via
// these; internal code should carry Quantity values instead.

/// Convert a temperature in degrees Celsius to kelvin.
constexpr double celsius_to_kelvin(double c) {
  return c + kZeroCelsiusInKelvin;
}

/// Convert a temperature in kelvin to degrees Celsius.
constexpr double kelvin_to_celsius(double k) {
  return k - kZeroCelsiusInKelvin;
}

/// Convert a frequency in megahertz to hertz.
constexpr double mhz_to_hz(double mhz) { return mhz * 1.0e6; }

/// Convert a frequency in hertz to megahertz.
constexpr double hz_to_mhz(double hz) { return hz * 1.0e-6; }

/// Convert milliseconds to seconds.
constexpr double ms_to_s(double ms) { return ms * 1.0e-3; }

/// Convert seconds to milliseconds.
constexpr double s_to_ms(double s) { return s * 1.0e3; }

/// Convert milliwatts to watts.
constexpr double mw_to_w(double mw) { return mw * 1.0e-3; }

/// Boltzmann constant in eV/K; used to derive the leakage temperature
/// constant theta = q*Vth/(eta*k) from a threshold voltage.
inline constexpr double kBoltzmannEvPerK = 8.617333262e-5;

/// Leakage temperature constant theta (kelvin) for a threshold voltage
/// `vth_volts` and subthreshold-slope ideality factor `eta`.
constexpr Kelvin leakage_theta(double vth_volts, double eta) {
  return Kelvin(vth_volts / (eta * kBoltzmannEvPerK));
}

}  // namespace mobitherm::util
