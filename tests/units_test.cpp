// Tests for the compile-time dimensional-analysis layer (util/units.h):
// conversion round-trips, derived-dimension arithmetic, zero-overhead
// guarantees, and negative tests proving that dimension mixing and
// implicit raw-double entry are ill-formed.
#include "util/units.h"

#include <gtest/gtest.h>

#include <type_traits>

namespace mobitherm {
namespace {

using util::Farad;
using util::Hertz;
using util::Joule;
using util::JoulePerKelvin;
using util::Kelvin;
using util::KelvinPerSecond;
using util::Seconds;
using util::Volt;
using util::Watt;
using util::WattPerKelvin;
using util::WattPerKelvin2;
using util::WattPerKelvinSecond;

TEST(Units, CelsiusKelvinRoundTrip) {
  EXPECT_DOUBLE_EQ(util::celsius(0.0).value(), 273.15);
  EXPECT_DOUBLE_EQ(util::celsius(85.0).value(), 358.15);
  // Raw presentation-edge helpers agree with the typed path.
  for (double c : {-40.0, 0.0, 25.0, 85.0, 105.0}) {
    EXPECT_DOUBLE_EQ(util::celsius(c).value(), util::celsius_to_kelvin(c));
    EXPECT_DOUBLE_EQ(
        util::kelvin_to_celsius(util::celsius_to_kelvin(c)), c);
  }
}

TEST(Units, ScaledConstructorsMatchRawHelpers) {
  EXPECT_DOUBLE_EQ(util::megahertz(1500.0).value(),
                   util::mhz_to_hz(1500.0));
  EXPECT_DOUBLE_EQ(util::hz_to_mhz(util::megahertz(384.0).value()), 384.0);
  EXPECT_DOUBLE_EQ(util::milliseconds(100.0).value(),
                   util::ms_to_s(100.0));
  EXPECT_DOUBLE_EQ(util::s_to_ms(util::milliseconds(250.0).value()), 250.0);
  EXPECT_DOUBLE_EQ(util::milliwatts(750.0).value(), util::mw_to_w(750.0));
  EXPECT_DOUBLE_EQ(util::millivolts(1250.0).value(), 1.25);
}

TEST(Units, DerivedDimensionArithmetic) {
  // P = g * (T - T_amb): W/K times K is W.
  const Watt p = util::watts_per_kelvin(0.25) *
                 (util::kelvin(358.15) - util::kelvin(298.15));
  EXPECT_DOUBLE_EQ(p.value(), 15.0);

  // Thermal time constant tau = C / g: J/K over W/K is seconds.
  const Seconds tau =
      util::joules_per_kelvin(12.0) / util::watts_per_kelvin(0.5);
  EXPECT_DOUBLE_EQ(tau.value(), 24.0);

  // Dynamic power Ceff * V^2 * f: F * V * V * Hz is W.
  const Watt dyn = util::farads(1.0e-9) * util::volts(1.1) *
                   util::volts(1.1) * util::megahertz(2000.0);
  EXPECT_NEAR(dyn.value(), 2.42, 1e-12);

  // dT/dt = P / C: W over J/K is K/s.
  const KelvinPerSecond rate =
      util::watts(3.0) / util::joules_per_kelvin(6.0);
  EXPECT_DOUBLE_EQ(rate.value(), 0.5);

  // Same-dimension division collapses to a plain ratio.
  const double ratio = util::watts(3.0) / util::watts(1.5);
  EXPECT_DOUBLE_EQ(ratio, 2.0);

  // 1/s is Hz.
  const Hertz inv = 1.0 / util::seconds(0.001);
  EXPECT_DOUBLE_EQ(inv.value(), 1000.0);

  // IPA integral term: (W/(K*s)) * K * s is W.
  const Watt integral =
      util::watts_per_kelvin_second(10.0) * util::kelvin(0.2) *
      util::seconds(0.1);
  EXPECT_NEAR(integral.value(), 0.2, 1e-12);
}

TEST(Units, SameDimensionOpsAndComparisons) {
  Kelvin t = util::kelvin(300.0);
  t += util::kelvin(5.0);
  t -= util::kelvin(2.5);
  EXPECT_DOUBLE_EQ(t.value(), 302.5);
  EXPECT_TRUE(t > util::kelvin(302.0));
  EXPECT_TRUE(t <= util::kelvin(302.5));
  EXPECT_TRUE(-util::watts(2.0) < util::watts(0.0));

  Watt w = util::watts(2.0);
  w *= 3.0;
  w /= 4.0;
  EXPECT_DOUBLE_EQ(w.value(), 1.5);
  EXPECT_DOUBLE_EQ((util::watts(2.0) * 0.5).value(), 1.0);
  EXPECT_DOUBLE_EQ((2.0 * util::watts(0.5)).value(), 1.0);
  EXPECT_DOUBLE_EQ((util::seconds(1.0) / 4.0).value(), 0.25);
}

TEST(Units, LeakageTheta) {
  // theta = Vth / (eta * k_B); Table II derives ~2321 K for Vth=0.3 V,
  // eta=1.5.
  const Kelvin theta = util::leakage_theta(0.3, 1.5);
  EXPECT_NEAR(theta.value(), 0.3 / (1.5 * 8.617333262e-5), 1e-9);
}

// ---------------------------------------------------------------------------
// Compile-time guarantees. The positive identities are static_asserts in
// units.h itself; here we assert the *negative* space — expressions that
// must NOT compile — via requires-expressions evaluated on the real types.
// ---------------------------------------------------------------------------

// Zero overhead: tags vanish at runtime.
static_assert(sizeof(Kelvin) == sizeof(double));
static_assert(sizeof(WattPerKelvinSecond) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Watt>);

// No implicit entry from raw doubles.
static_assert(!std::is_convertible_v<double, Kelvin>);
static_assert(!std::is_convertible_v<double, Watt>);
static_assert(std::is_constructible_v<Kelvin, double>);  // explicit only

// No implicit exit back to double.
static_assert(!std::is_convertible_v<Kelvin, double>);
static_assert(!std::is_convertible_v<Seconds, double>);

// Cross-dimension addition / comparison is ill-formed.
template <typename A, typename B>
concept Addable = requires(A a, B b) { a + b; };
template <typename A, typename B>
concept Comparable = requires(A a, B b) { a < b; };
template <typename A, typename B>
concept Assignable = requires(A a, B b) { a = b; };

static_assert(Addable<Kelvin, Kelvin>);
static_assert(!Addable<Kelvin, Watt>);
static_assert(!Addable<Kelvin, double>);
static_assert(!Addable<double, Watt>);
static_assert(!Addable<Seconds, Hertz>);
static_assert(Comparable<Watt, Watt>);
static_assert(!Comparable<Watt, Kelvin>);
static_assert(!Comparable<Watt, double>);
static_assert(!Assignable<Kelvin&, Watt>);
static_assert(!Assignable<Kelvin&, double>);

// Products/quotients produce exactly the documented derived dimensions.
static_assert(std::is_same_v<decltype(JoulePerKelvin{} / Seconds{}),
                             WattPerKelvin>);
static_assert(std::is_same_v<decltype(WattPerKelvin{} / Seconds{}),
                             WattPerKelvinSecond>);
static_assert(std::is_same_v<decltype(Joule{} / Watt{}), Seconds>);
static_assert(std::is_same_v<decltype(Seconds{} * Hertz{}), double>);
static_assert(std::is_same_v<decltype(Volt{} * Farad{} * Volt{}), Joule>);

}  // namespace
}  // namespace mobitherm
