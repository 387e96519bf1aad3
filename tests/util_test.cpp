// Unit tests for the util module: units, RNG, sliding window, statistics,
// CSV writer, JSON number formatting, descriptor owner.
#include <gtest/gtest.h>

#include <fcntl.h>

#include <bit>
#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/error.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/sliding_window.h"
#include "util/stats.h"
#include "util/unique_fd.h"
#include "util/units.h"

namespace mobitherm::util {
namespace {

// --- units ----------------------------------------------------------------

TEST(Units, CelsiusKelvinRoundTrip) {
  EXPECT_DOUBLE_EQ(celsius_to_kelvin(0.0), 273.15);
  EXPECT_DOUBLE_EQ(celsius_to_kelvin(100.0), 373.15);
  EXPECT_DOUBLE_EQ(kelvin_to_celsius(celsius_to_kelvin(42.5)), 42.5);
}

TEST(Units, FrequencyConversions) {
  EXPECT_DOUBLE_EQ(mhz_to_hz(600.0), 6.0e8);
  EXPECT_DOUBLE_EQ(hz_to_mhz(mhz_to_hz(1958.4)), 1958.4);
}

TEST(Units, TimeAndPower) {
  EXPECT_DOUBLE_EQ(ms_to_s(100.0), 0.1);
  EXPECT_DOUBLE_EQ(s_to_ms(ms_to_s(250.0)), 250.0);
  EXPECT_DOUBLE_EQ(mw_to_w(1500.0), 1.5);
}

TEST(Units, LeakageThetaMatchesPhysics) {
  // theta = Vth / (eta * k); Vth=0.2 V, eta=1.25 -> ~1856 K.
  const double theta = leakage_theta(0.2, 1.25).value();
  EXPECT_NEAR(theta, 0.2 / (1.25 * 8.617333262e-5), 1e-9);
  EXPECT_GT(theta, 1800.0);
  EXPECT_LT(theta, 1900.0);
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xorshift64Star a(123);
  Xorshift64Star b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Xorshift64Star a(1);
  Xorshift64Star b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.next() == b.next() ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsRemapped) {
  Xorshift64Star z(0);
  EXPECT_NE(z.next(), 0u);
}

TEST(Rng, UniformInUnitInterval) {
  Xorshift64Star r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xorshift64Star r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.5, 3.5);
    EXPECT_GE(u, 2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Xorshift64Star r(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += r.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsAreSane) {
  Xorshift64Star r(13);
  const int n = 100000;
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sumsq += x * x;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, NormalWithParams) {
  Xorshift64Star r(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += r.normal(10.0, 2.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BelowStaysBelow) {
  Xorshift64Star r(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, DeriveSeedIsStableAndStreamsDiffer) {
  EXPECT_EQ(derive_seed(42, 1), derive_seed(42, 1));
  std::set<std::uint64_t> seen;
  for (std::uint64_t s = 0; s < 100; ++s) {
    seen.insert(derive_seed(42, s));
  }
  EXPECT_EQ(seen.size(), 100u);
}

// --- sliding window ----------------------------------------------------------

TEST(SlidingWindow, RejectsNonPositiveWindow) {
  EXPECT_THROW(SlidingWindow(0.0), ConfigError);
  EXPECT_THROW(SlidingWindow(-1.0), ConfigError);
}

TEST(SlidingWindow, MeanOfUniformSamples) {
  SlidingWindow w(1.0);
  for (int i = 0; i < 10; ++i) {
    w.push(0.1, 5.0);
  }
  EXPECT_NEAR(w.mean(), 5.0, 1e-12);
  EXPECT_TRUE(w.warm());
}

TEST(SlidingWindow, FallbackBeforeAnySample) {
  SlidingWindow w(1.0);
  EXPECT_DOUBLE_EQ(w.mean(7.5), 7.5);
  EXPECT_FALSE(w.warm());
}

TEST(SlidingWindow, OldSamplesEvicted) {
  SlidingWindow w(1.0);
  // 1 s of value 0, then 1 s of value 10: the window must only see the 10s.
  for (int i = 0; i < 10; ++i) {
    w.push(0.1, 0.0);
  }
  for (int i = 0; i < 10; ++i) {
    w.push(0.1, 10.0);
  }
  EXPECT_NEAR(w.mean(), 10.0, 1e-9);
  EXPECT_NEAR(w.covered(), 1.0, 1e-9);
}

TEST(SlidingWindow, PartialEvictionIsExact) {
  SlidingWindow w(1.0);
  w.push(0.8, 0.0);
  w.push(0.6, 10.0);
  // Window holds 0.4 s of 0 and 0.6 s of 10 -> mean 6.0.
  EXPECT_NEAR(w.mean(), 6.0, 1e-9);
}

TEST(SlidingWindow, DurationWeighting) {
  SlidingWindow w(10.0);
  w.push(9.0, 1.0);
  w.push(1.0, 11.0);
  EXPECT_NEAR(w.mean(), 2.0, 1e-12);
}

TEST(SlidingWindow, IgnoresNonPositiveDt) {
  SlidingWindow w(1.0);
  w.push(0.0, 100.0);
  w.push(-1.0, 100.0);
  EXPECT_DOUBLE_EQ(w.mean(3.0), 3.0);
}

TEST(SlidingWindow, ClearEmptiesState) {
  SlidingWindow w(1.0);
  w.push(0.5, 4.0);
  w.clear();
  EXPECT_DOUBLE_EQ(w.mean(-1.0), -1.0);
  EXPECT_DOUBLE_EQ(w.covered(), 0.0);
}

// The erase-based window that SlidingWindow's ring replaced, kept as the
// bitwise reference: the ring must evict with the same arithmetic, in the
// same order, including the partial shrink of the head sample.
class ErasingWindow {
 public:
  explicit ErasingWindow(double window_s) : window_s_(window_s) {}

  void push(double dt, double value) {
    if (dt <= 0.0) {
      return;
    }
    samples_.push_back({dt, value});
    total_time_ += dt;
    weighted_sum_ += dt * value;
    std::size_t drop = 0;
    double excess = total_time_ - window_s_;
    while (drop < samples_.size() && excess >= samples_[drop].dt) {
      excess -= samples_[drop].dt;
      total_time_ -= samples_[drop].dt;
      weighted_sum_ -= samples_[drop].dt * samples_[drop].value;
      ++drop;
    }
    if (drop > 0) {
      samples_.erase(samples_.begin(),
                     samples_.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    if (excess > 0.0 && !samples_.empty()) {
      samples_.front().dt -= excess;
      total_time_ -= excess;
      weighted_sum_ -= excess * samples_.front().value;
    }
  }

  double mean() const {
    return total_time_ > 0.0 ? weighted_sum_ / total_time_ : 0.0;
  }
  double covered() const { return total_time_; }

 private:
  struct Sample {
    double dt;
    double value;
  };
  double window_s_;
  std::vector<Sample> samples_;
  double total_time_ = 0.0;
  double weighted_sum_ = 0.0;
};

// Pushes `pushes` samples, dt from `next_dt` and values uniform in
// [-5, 5), into a SlidingWindow and the reference, and asserts that mean()
// and covered() are bitwise equal after every push.
template <typename NextDt>
void expect_matches_erasing_window(double window_s, int pushes,
                                   NextDt next_dt) {
  SlidingWindow ring(window_s);
  ErasingWindow reference(window_s);
  Xorshift64Star values(99);
  for (int i = 0; i < pushes; ++i) {
    const double dt = next_dt();
    const double value = values.uniform(-5.0, 5.0);
    ring.push(dt, value);
    reference.push(dt, value);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ring.mean()),
              std::bit_cast<std::uint64_t>(reference.mean()))
        << "window " << window_s << " s, push " << i << ", dt " << dt;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ring.covered()),
              std::bit_cast<std::uint64_t>(reference.covered()))
        << "window " << window_s << " s, push " << i << ", dt " << dt;
  }
}

TEST(SlidingWindow, MatchesErasingWindowAtTheEngineTick) {
  // 1 ms ticks into a 1 s window: rounding leaves the head a sliver most
  // ticks, so the partial shrink runs on nearly every push.
  expect_matches_erasing_window(1.0, 100000, [] { return 1e-3; });
}

TEST(SlidingWindow, MatchesErasingWindowAtRandomDt) {
  for (const double window_s : {0.05, 1.0, 10.0}) {
    Xorshift64Star rng(7);
    expect_matches_erasing_window(window_s, 100000, [&rng] {
      return 0.3 * (1.0 - rng.uniform());  // (0, 0.3]
    });
  }
}

TEST(SlidingWindow, MatchesErasingWindowOnLongAndNonPositiveDt) {
  // The first push is longer than the window, so the ring starts at its
  // smallest size and must double as short samples arrive.
  Xorshift64Star rng(11);
  bool first = true;
  expect_matches_erasing_window(1.0, 100000, [&] {
    if (first) {
      first = false;
      return 2.5;
    }
    switch (rng.below(8)) {
      case 0:
        return 2.5;  // longer than the window
      case 1:
        return 0.0;  // ignored
      case 2:
        return -0.5;  // ignored
      default:
        return 0.01 * (1.0 - rng.uniform());
    }
  });
}

// --- stats -------------------------------------------------------------------

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
}

TEST(Stats, MedianThrowsOnEmpty) {
  EXPECT_THROW(median({}), ConfigError);
}

TEST(Stats, PercentileEndpointsAndMidpoint) {
  std::vector<double> v = {10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 20.0);
}

TEST(Stats, PercentileValidatesInput) {
  EXPECT_THROW(percentile({}, 50.0), ConfigError);
  EXPECT_THROW(percentile({1.0}, -1.0), ConfigError);
  EXPECT_THROW(percentile({1.0}, 101.0), ConfigError);
}

TEST(Stats, MeanAndStddev) {
  std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(stddev(v), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

// --- csv ---------------------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "mobitherm_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row(std::vector<double>{1.5, 2.5});
    csv.row(std::vector<std::string>{"x", "y,z"});
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "x,\"y,z\"");
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  const std::string path = ::testing::TempDir() + "mobitherm_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<double>{1.0}), ConfigError);
  std::remove(path.c_str());
}

TEST(Csv, RejectsEmptyHeaderAndBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), ConfigError);
}

TEST(Csv, EscapesQuotes) {
  const std::string path = ::testing::TempDir() + "mobitherm_csv_test3.csv";
  {
    CsvWriter csv(path, {"a"});
    csv.row(std::vector<std::string>{"say \"hi\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"say \"\"hi\"\"\"");
  std::remove(path.c_str());
}

// --- json::format_number -----------------------------------------------------

// The formatter json::format_number replaced: snprintf's %lld and %.*g,
// with strtod as the round-trip check. Its bytes are the oracle.
std::string printf_format_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  if (value == std::floor(value) && std::fabs(value) <= 9007199254740992.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    return buf;
  }
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) {
      break;
    }
  }
  return buf;
}

TEST(JsonFormatNumber, MatchesThePrintfOracle) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double k2p53 = 9007199254740992.0;
  std::vector<double> values = {
      0.0, -0.0, 0.1, -0.1, 1.0 / 3.0, 2.5, 1e-300, 123456.789,
      k2p53 - 1.0, k2p53, -k2p53, std::nextafter(k2p53, kInf),
      -std::nextafter(k2p53, kInf), DBL_MAX, -DBL_MAX,
      std::nextafter(DBL_MAX, 0.0), -std::nextafter(DBL_MAX, 0.0), DBL_MIN,
      -DBL_MIN, std::numeric_limits<double>::denorm_min(), kInf, -kInf,
      std::numeric_limits<double>::quiet_NaN()};
  for (int e = -20; e <= 20; ++e) {
    // strtod rounds "1eN" correctly, which std::pow need not.
    const double p = std::strtod(("1e" + std::to_string(e)).c_str(), nullptr);
    values.insert(values.end(), {p, std::nextafter(p, 0.0),
                                 std::nextafter(p, kInf)});
  }
  std::mt19937_64 bits(20261019);
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::bit_cast<double>(bits()));
  }
  for (int i = 0; i < 20000; ++i) {
    // Sign and mantissa only: a subnormal (or zero).
    values.push_back(
        std::bit_cast<double>(bits() & 0x800FFFFFFFFFFFFFULL));
  }
  std::size_t mismatches = 0;
  std::string first;
  for (const double v : values) {
    const std::string got = json::format_number(v);
    const std::string want = printf_format_number(v);
    if (got != want && mismatches++ == 0) {
      first = std::to_string(std::bit_cast<std::uint64_t>(v)) + ": " + got +
              " != " + want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << ", first " << first;
}

// --- unique_fd ---------------------------------------------------------------

UniqueFd open_null() {
  return UniqueFd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
}

// True once `fd` names no open descriptor.
bool closed(int fd) {
  errno = 0;
  return ::fcntl(fd, F_GETFD) == -1 && errno == EBADF;
}

TEST(UniqueFd, DefaultConstructedIsInvalid) {
  const UniqueFd fd;
  EXPECT_FALSE(fd);
  EXPECT_LT(fd.get(), 0);
}

TEST(UniqueFd, DestructorCloses) {
  int raw = -1;
  {
    const UniqueFd fd = open_null();
    ASSERT_TRUE(fd);
    raw = fd.get();
    EXPECT_FALSE(closed(raw));
  }
  EXPECT_TRUE(closed(raw));
}

TEST(UniqueFd, MoveLeavesTheSourceInvalidAndClosesNothing) {
  UniqueFd source = open_null();
  ASSERT_TRUE(source);
  const int raw = source.get();
  UniqueFd constructed(std::move(source));
  EXPECT_FALSE(source);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(constructed.get(), raw);
  UniqueFd assigned;
  assigned = std::move(constructed);
  EXPECT_FALSE(constructed);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.get(), raw);
  EXPECT_FALSE(closed(raw));
}

TEST(UniqueFd, MoveAssignmentClosesTheReplacedFd) {
  UniqueFd target = open_null();
  UniqueFd source = open_null();
  ASSERT_TRUE(target);
  ASSERT_TRUE(source);
  const int replaced = target.get();
  const int moved = source.get();
  target = std::move(source);
  EXPECT_EQ(target.get(), moved);
  EXPECT_TRUE(closed(replaced));
  EXPECT_FALSE(closed(moved));
}

}  // namespace
}  // namespace mobitherm::util
