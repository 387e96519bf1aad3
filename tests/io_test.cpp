// Tests for platform config I/O, multi-seed statistics, and logging.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "platform/config_io.h"
#include "sim/montecarlo.h"
#include "util/error.h"
#include "util/log.h"

namespace mobitherm {
namespace {

using util::ConfigError;

// --- platform config I/O --------------------------------------------------------

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(ConfigIo, ParsesHandWrittenFileWithComments) {
  const std::string path = temp_path("platform_hand.txt");
  {
    std::ofstream out(path);
    out << "# two clusters, two nodes\n"
        << "soc duo\n"
        << "cluster small cpu-little 4 1.0 1.5e-10 0.05 0.25 1.0 0\n"
        << "opp 500 900\n"
        << "opp 1000 1100\n"
        << "cluster large cpu-big 2 2.5 4e-10 0.12 0.75 1.2 1  # inline\n"
        << "opp 300 800\n"
        << "opp 600 950\n"
        << "opp 900 1150\n"
        << "\n"
        << "thermal ambient_c 30\n"
        << "node chip 0.5 0.01\n"
        << "node board 5.0 0.1\n"
        << "link 0 1 0.7\n";
  }
  const platform::PlatformDescription d = platform::load_platform(path);
  EXPECT_EQ(d.soc.name, "duo");
  ASSERT_EQ(d.soc.clusters.size(), 2u);

  const platform::ClusterSpec& small = d.soc.clusters[0];
  EXPECT_EQ(small.name, "small");
  EXPECT_EQ(small.kind, platform::ResourceKind::kCpuLittle);
  EXPECT_EQ(small.num_cores, 4);
  EXPECT_DOUBLE_EQ(small.ipc, 1.0);
  EXPECT_DOUBLE_EQ(small.ceff_f.value(), 1.5e-10);
  EXPECT_DOUBLE_EQ(small.idle_power_w.value(), 0.05);
  EXPECT_DOUBLE_EQ(small.leakage_share, 0.25);
  EXPECT_DOUBLE_EQ(small.nominal_voltage_v.value(), 1.0);
  EXPECT_EQ(small.thermal_node, 0u);
  // OPPs attach to their own cluster: the first ladder has two points.
  ASSERT_EQ(small.opps.size(), 2u);
  EXPECT_DOUBLE_EQ(small.opps.at(0).freq_hz.value(), 5e8);
  EXPECT_NEAR(small.opps.at(0).voltage_v.value(), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(small.opps.at(1).freq_hz.value(), 1e9);
  EXPECT_NEAR(small.opps.at(1).voltage_v.value(), 1.1, 1e-12);

  const platform::ClusterSpec& large = d.soc.clusters[1];
  EXPECT_EQ(large.name, "large");
  EXPECT_EQ(large.kind, platform::ResourceKind::kCpuBig);
  EXPECT_EQ(large.num_cores, 2);
  EXPECT_DOUBLE_EQ(large.ipc, 2.5);
  EXPECT_DOUBLE_EQ(large.ceff_f.value(), 4e-10);
  EXPECT_DOUBLE_EQ(large.idle_power_w.value(), 0.12);
  EXPECT_DOUBLE_EQ(large.leakage_share, 0.75);
  EXPECT_DOUBLE_EQ(large.nominal_voltage_v.value(), 1.2);
  EXPECT_EQ(large.thermal_node, 1u);
  ASSERT_EQ(large.opps.size(), 3u);
  EXPECT_DOUBLE_EQ(large.opps.at(0).freq_hz.value(), 3e8);
  EXPECT_NEAR(large.opps.at(0).voltage_v.value(), 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(large.opps.at(1).freq_hz.value(), 6e8);
  EXPECT_NEAR(large.opps.at(1).voltage_v.value(), 0.95, 1e-12);
  EXPECT_DOUBLE_EQ(large.opps.at(2).freq_hz.value(), 9e8);
  EXPECT_NEAR(large.opps.at(2).voltage_v.value(), 1.15, 1e-12);

  EXPECT_NEAR(d.network.t_ambient_k.value(), 303.15, 1e-9);
  ASSERT_EQ(d.network.nodes.size(), 2u);
  EXPECT_EQ(d.network.nodes[0].name, "chip");
  EXPECT_DOUBLE_EQ(d.network.nodes[0].capacitance_j_per_k.value(), 0.5);
  EXPECT_DOUBLE_EQ(d.network.nodes[0].g_ambient_w_per_k.value(), 0.01);
  EXPECT_EQ(d.network.nodes[1].name, "board");
  EXPECT_DOUBLE_EQ(d.network.nodes[1].capacitance_j_per_k.value(), 5.0);
  EXPECT_DOUBLE_EQ(d.network.nodes[1].g_ambient_w_per_k.value(), 0.1);
  ASSERT_EQ(d.network.links.size(), 1u);
  EXPECT_EQ(d.network.links[0].a, 0u);
  EXPECT_EQ(d.network.links[0].b, 1u);
  EXPECT_DOUBLE_EQ(d.network.links[0].conductance_w_per_k.value(), 0.7);
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
