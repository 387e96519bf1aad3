// Tests for platform config I/O, multi-seed statistics, and logging.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "platform/config_io.h"
#include "platform/presets.h"
#include "sim/montecarlo.h"
#include "thermal/presets.h"
#include "util/error.h"
#include "util/log.h"

namespace mobitherm {
namespace {

using util::ConfigError;

// --- platform config I/O --------------------------------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(ConfigIo, RoundTripsPresets) {
  const std::string path = temp_path("platform_roundtrip.txt");
  platform::PlatformDescription original;
  original.soc = platform::exynos5422();
  original.network = thermal::odroidxu3_network();
  platform::save_platform(path, original);
  const platform::PlatformDescription loaded =
      platform::load_platform(path);

  EXPECT_EQ(loaded.soc.name, original.soc.name);
  ASSERT_EQ(loaded.soc.clusters.size(), original.soc.clusters.size());
  for (std::size_t c = 0; c < loaded.soc.clusters.size(); ++c) {
    const platform::ClusterSpec& a = loaded.soc.clusters[c];
    const platform::ClusterSpec& b = original.soc.clusters[c];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.num_cores, b.num_cores);
    EXPECT_NEAR(a.ceff_f.value(), b.ceff_f.value(), 1e-9 * b.ceff_f.value());
    EXPECT_NEAR(a.leakage_share, b.leakage_share, 1e-9);
    ASSERT_EQ(a.opps.size(), b.opps.size());
    for (std::size_t i = 0; i < a.opps.size(); ++i) {
      EXPECT_NEAR(a.opps.at(i).freq_hz.value(), b.opps.at(i).freq_hz.value(),
                  1.0);
      EXPECT_NEAR(a.opps.at(i).voltage_v.value(),
                  b.opps.at(i).voltage_v.value(), 1e-9);
    }
  }
  ASSERT_EQ(loaded.network.nodes.size(), original.network.nodes.size());
  EXPECT_NEAR(loaded.network.t_ambient_k.value(),
              original.network.t_ambient_k.value(), 1e-9);
  ASSERT_EQ(loaded.network.links.size(), original.network.links.size());
  EXPECT_NEAR(loaded.network.links[0].conductance_w_per_k.value(),
              original.network.links[0].conductance_w_per_k.value(), 1e-9);
  std::remove(path.c_str());
}

TEST(ConfigIo, ParsesHandWrittenFileWithComments) {
  const std::string path = temp_path("platform_hand.txt");
  {
    std::ofstream out(path);
    out << "# tiny platform\n"
        << "soc tiny\n"
        << "cluster cpu cpu-big 2 2.0 4e-10 0.1 1.0 1.2 0  # inline\n"
        << "opp 500 900\n"
        << "opp 1000 1100\n"
        << "\n"
        << "thermal ambient_c 25\n"
        << "node chip 0.5 0.01\n"
        << "node board 5.0 0.1\n"
        << "link 0 1 0.5\n";
  }
  const platform::PlatformDescription d = platform::load_platform(path);
  EXPECT_EQ(d.soc.name, "tiny");
  ASSERT_EQ(d.soc.clusters.size(), 1u);
  EXPECT_EQ(d.soc.clusters[0].kind, platform::ResourceKind::kCpuBig);
  EXPECT_EQ(d.soc.clusters[0].opps.size(), 2u);
  EXPECT_NEAR(d.network.t_ambient_k.value(), 298.15, 1e-9);
  EXPECT_EQ(d.network.nodes.size(), 2u);
  std::remove(path.c_str());
}

TEST(ConfigIo, RejectsMalformedInput) {
  const auto write_and_expect_throw = [](const char* name,
                                         const std::string& content) {
    const std::string path = temp_path(name);
    {
      std::ofstream out(path);
      out << content;
    }
    EXPECT_THROW(platform::load_platform(path), ConfigError) << content;
    std::remove(path.c_str());
  };
  write_and_expect_throw("bad1.txt", "bogus keyword\n");
  write_and_expect_throw("bad2.txt", "opp 500 900\n");  // opp before cluster
  write_and_expect_throw(
      "bad3.txt",
      "soc x\ncluster c cpu-big 2 2.0 4e-10 0.1 1.0 1.2 0\n"
      "thermal ambient_c 25\nnode n 1 0.1\n");  // cluster without opps
  write_and_expect_throw(
      "bad4.txt",
      "soc x\ncluster c warp-core 2 2.0 4e-10 0.1 1.0 1.2 0\nopp 1 1\n"
      "node n 1 0.1\n");  // unknown kind
  write_and_expect_throw(
      "bad5.txt",
      "soc x\ncluster c cpu-big 2 2.0 4e-10 0.1 1.0 1.2 7\nopp 500 900\n"
      "thermal ambient_c 25\nnode n 1 0.1\n");  // bad thermal node
  EXPECT_THROW(platform::load_platform("/nonexistent/p.txt"), ConfigError);
}

TEST(ConfigIo, ParseResourceKind) {
  EXPECT_EQ(platform::parse_resource_kind("gpu"),
            platform::ResourceKind::kGpu);
  EXPECT_EQ(platform::parse_resource_kind("memory"),
            platform::ResourceKind::kMemory);
  EXPECT_THROW(platform::parse_resource_kind("npu"), ConfigError);
}

// --- montecarlo -------------------------------------------------------------------

TEST(MonteCarlo, SummarizeKnownSample) {
  const sim::SeedStats s = sim::summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0,
                                           7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_EQ(s.n, 8);
  EXPECT_THROW(sim::summarize({}), ConfigError);
}

TEST(MonteCarlo, SingleSampleHasZeroStddev) {
  const sim::SeedStats s = sim::summarize({3.0});
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(MonteCarlo, AcrossSeedsPassesDistinctSeeds) {
  std::vector<std::uint64_t> seen;
  const sim::SeedStats s = sim::across_seeds(
      [&](std::uint64_t seed) {
        seen.push_back(seed);
        return static_cast<double>(seed);
      },
      4, 100);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{100, 101, 102, 103}));
  EXPECT_DOUBLE_EQ(s.mean, 101.5);
  EXPECT_THROW(sim::across_seeds([](std::uint64_t) { return 0.0; }, 0),
               ConfigError);
}

// --- log ---------------------------------------------------------------------------

TEST(Log, ThresholdGatesMessages) {
  const util::LogLevel before = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  // Macro below the threshold must not evaluate its stream expression.
  int evaluations = 0;
  auto count = [&]() {
    ++evaluations;
    return "x";
  };
  MOBITHERM_DEBUG(count());
  EXPECT_EQ(evaluations, 0);
  util::set_log_level(util::LogLevel::kDebug);
  MOBITHERM_DEBUG(count());
  EXPECT_EQ(evaluations, 1);
  util::set_log_level(before);
}

}  // namespace
}  // namespace mobitherm
