// Unit tests for the platform module: OPP tables, SoC state, board presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "platform/opp.h"
#include "platform/presets.h"
#include "platform/soc.h"
#include "util/error.h"
#include "util/units.h"

namespace mobitherm::platform {
namespace {

using util::ConfigError;

OppTable three_point_table() {
  return OppTable::from_mhz_mv({{300.0, 900.0}, {600.0, 1000.0},
                                {900.0, 1100.0}});
}

// --- OppTable ----------------------------------------------------------------

TEST(OppTable, SortsByFrequency) {
  const OppTable t = OppTable::from_mhz_mv(
      {{900.0, 1100.0}, {300.0, 900.0}, {600.0, 1000.0}});
  EXPECT_DOUBLE_EQ(t.at(0).freq_hz.value(), util::mhz_to_hz(300.0));
  EXPECT_DOUBLE_EQ(t.at(2).freq_hz.value(), util::mhz_to_hz(900.0));
  EXPECT_DOUBLE_EQ(t.lowest().voltage_v.value(), 0.9);
  EXPECT_DOUBLE_EQ(t.highest().voltage_v.value(), 1.1);
}

TEST(OppTable, RejectsBadEntries) {
  EXPECT_THROW(OppTable(std::vector<OperatingPoint>{}), ConfigError);
  EXPECT_THROW(OppTable({OperatingPoint{util::hertz(0.0), util::volts(1.0)}}), ConfigError);
  EXPECT_THROW(OppTable({OperatingPoint{util::hertz(1e6), util::volts(0.0)}}), ConfigError);
  EXPECT_THROW(OppTable({OperatingPoint{util::hertz(1e6), util::volts(1.0)}, OperatingPoint{util::hertz(1e6), util::volts(1.1)}}),
               ConfigError);
}

TEST(OppTable, CeilIndex) {
  const OppTable t = three_point_table();
  EXPECT_EQ(t.ceil_index(util::hertz(0.0)), 0u);
  EXPECT_EQ(t.ceil_index(util::megahertz(301.0)), 1u);
  EXPECT_EQ(t.ceil_index(util::megahertz(600.0)), 1u);
  EXPECT_EQ(t.ceil_index(util::megahertz(601.0)), 2u);
  EXPECT_EQ(t.ceil_index(util::megahertz(5000.0)), 2u);
}

TEST(OppTable, OutOfRangeAt) {
  const OppTable t = three_point_table();
  EXPECT_THROW(t.at(3), ConfigError);
}

// --- Soc ------------------------------------------------------------------------

TEST(Soc, RejectsEmptyOppTable) {
  SocSpec spec;
  spec.name = "bad";
  ClusterSpec c;
  c.name = "c0";
  c.num_cores = 1;
  spec.clusters = {c};
  EXPECT_THROW(Soc soc(spec), ConfigError);
}

TEST(Soc, StartsAtLowestOppAllCoresOnline) {
  const Soc soc(snapdragon810());
  for (std::size_t c = 0; c < soc.num_clusters(); ++c) {
    EXPECT_EQ(soc.state(c).opp_index, 0u);
    EXPECT_EQ(soc.state(c).online_cores, soc.cluster(c).num_cores);
  }
}

TEST(Soc, SetOppAndFrequency) {
  Soc soc(snapdragon810());
  const std::size_t gpu = soc.spec().gpu();
  soc.set_opp(gpu, 2);
  EXPECT_DOUBLE_EQ(soc.frequency_hz(gpu).value(), util::mhz_to_hz(390.0));
  EXPECT_THROW(soc.set_opp(gpu, 99), ConfigError);
}

TEST(Soc, CapacityScalesWithCoresAndIpc) {
  Soc soc(exynos5422());
  const std::size_t big = soc.spec().big();
  soc.set_opp(big, soc.cluster(big).opps.max_index());
  const auto capacity = [&soc, big] {
    return soc.per_core_rate(big) * soc.state(big).online_cores;
  };
  // A15: ipc 2.0, 2.0 GHz, 4 cores -> 16e9 units/s.
  EXPECT_NEAR(capacity(), 16.0e9, 1e6);
  soc.set_online_cores(big, 2);
  EXPECT_NEAR(capacity(), 8.0e9, 1e6);
  EXPECT_THROW(soc.set_online_cores(big, 5), ConfigError);
  EXPECT_THROW(soc.set_online_cores(big, -1), ConfigError);
}

TEST(Soc, PerTickReadsRejectAnOutOfRangeCluster) {
  const Soc soc(snapdragon810());
  const std::size_t n = soc.num_clusters();
  // Each read throws ConfigError with the same message.
  const auto message = [](auto read) -> std::string {
    try {
      read();
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "no ConfigError";
  };
  const std::string expected = "Soc: cluster index out of range";
  EXPECT_EQ(message([&] { soc.cluster(n); }), expected);
  EXPECT_EQ(message([&] { soc.state(n); }), expected);
  EXPECT_EQ(message([&] { soc.frequency_hz(n); }), expected);
  EXPECT_EQ(message([&] { soc.voltage_v(n); }), expected);
  EXPECT_EQ(message([&] { soc.per_core_rate(n); }), expected);
  // The last valid cluster reads fine.
  EXPECT_EQ(message([&] { soc.per_core_rate(n - 1); }), "no ConfigError");
}

TEST(Soc, KindLookupHelpers) {
  const SocSpec spec = snapdragon810();
  EXPECT_EQ(spec.clusters[spec.little()].kind, ResourceKind::kCpuLittle);
  EXPECT_EQ(spec.clusters[spec.big()].kind, ResourceKind::kCpuBig);
  EXPECT_EQ(spec.clusters[spec.gpu()].kind, ResourceKind::kGpu);
  EXPECT_TRUE(spec.has_kind(ResourceKind::kMemory));
}

// --- presets -----------------------------------------------------------------------

TEST(Presets, Snapdragon810GpuLadderMatchesPaper) {
  // The paper reports residency over exactly these six Adreno 430 levels.
  const SocSpec spec = snapdragon810();
  const OppTable& gpu = spec.clusters[spec.gpu()].opps;
  ASSERT_EQ(gpu.size(), 6u);
  const double expected[] = {180.0, 305.0, 390.0, 450.0, 510.0, 600.0};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(gpu.at(i).freq_hz.value(), util::mhz_to_hz(expected[i]));
  }
}

TEST(Presets, Snapdragon810BigLadderContains384And960) {
  // Sec. III-B discusses the 384 MHz and 960 MHz big-core points.
  const SocSpec spec = snapdragon810();
  const OppTable& big = spec.clusters[spec.big()].opps;
  const auto has_mhz = [&big](double mhz) {
    return std::any_of(big.begin(), big.end(),
                       [mhz](const OperatingPoint& p) {
                         return std::abs(p.freq_hz.value() -
                                         util::mhz_to_hz(mhz)) < 1.0;
                       });
  };
  EXPECT_TRUE(has_mhz(384.0));
  EXPECT_TRUE(has_mhz(960.0));
  EXPECT_DOUBLE_EQ(big.highest().freq_hz.value(), util::mhz_to_hz(1958.4));
}

TEST(Presets, Exynos5422Shape) {
  const SocSpec spec = exynos5422();
  EXPECT_EQ(spec.clusters[spec.big()].num_cores, 4);    // 4x A15
  EXPECT_EQ(spec.clusters[spec.little()].num_cores, 4); // 4x A7
  EXPECT_DOUBLE_EQ(spec.clusters[spec.big()].opps.highest().freq_hz.value(),
                   util::mhz_to_hz(2000.0));
  EXPECT_DOUBLE_EQ(spec.clusters[spec.little()].opps.highest().freq_hz.value(),
                   util::mhz_to_hz(1400.0));
  EXPECT_DOUBLE_EQ(spec.clusters[spec.gpu()].opps.highest().freq_hz.value(),
                   util::mhz_to_hz(600.0));
}

TEST(Presets, VoltagesMonotoneInFrequency) {
  for (const SocSpec& spec : {snapdragon810(), exynos5422()}) {
    for (const ClusterSpec& c : spec.clusters) {
      for (std::size_t i = 1; i < c.opps.size(); ++i) {
        EXPECT_GE(c.opps.at(i).voltage_v.value(),
                  c.opps.at(i - 1).voltage_v.value())
            << spec.name << "/" << c.name << " opp " << i;
      }
    }
  }
}

TEST(Presets, LeakageSharesSumToOne) {
  for (const SocSpec& spec : {snapdragon810(), exynos5422()}) {
    double total = 0.0;
    for (const ClusterSpec& c : spec.clusters) {
      total += c.leakage_share;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << spec.name;
  }
}

TEST(Presets, ThermalNodesWithinConvention) {
  for (const SocSpec& spec : {snapdragon810(), exynos5422()}) {
    for (const ClusterSpec& c : spec.clusters) {
      EXPECT_LT(c.thermal_node, kNumThermalNodes) << c.name;
      EXPECT_NE(c.thermal_node, kNodeBoard) << c.name;
    }
  }
}

TEST(Presets, BigFasterThanLittlePerCore) {
  for (const SocSpec& spec : {snapdragon810(), exynos5422()}) {
    Soc soc(spec);
    const std::size_t big = spec.big();
    const std::size_t little = spec.little();
    soc.set_opp(big, spec.clusters[big].opps.max_index());
    soc.set_opp(little, spec.clusters[little].opps.max_index());
    EXPECT_GT(soc.per_core_rate(big), 1.5 * soc.per_core_rate(little))
        << spec.name;
  }
}

TEST(Presets, ResourceKindNames) {
  EXPECT_STREQ(to_string(ResourceKind::kCpuBig), "cpu-big");
  EXPECT_STREQ(to_string(ResourceKind::kGpu), "gpu");
}

}  // namespace
}  // namespace mobitherm::platform
