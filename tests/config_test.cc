#include <gtest/gtest.h>

#include <bit>

#include "simarch/config.h"

namespace cachesched {
namespace {

TEST(Config, Table2DefaultsMatchPaper) {
  // Table 2: cores / L2 MB / assoc / hit cycles.
  const struct { int cores; uint64_t mb; int ways; int hit; } rows[] = {
      {1, 10, 20, 15}, {2, 8, 16, 13},  {4, 4, 16, 11},
      {8, 8, 16, 13},  {16, 20, 20, 19}, {32, 40, 20, 23},
  };
  for (const auto& r : rows) {
    const CmpConfig c = default_config(r.cores);
    EXPECT_EQ(c.cores, r.cores);
    EXPECT_EQ(c.l2_bytes, r.mb * 1024 * 1024) << r.cores;
    EXPECT_EQ(c.l2_ways, r.ways) << r.cores;
    EXPECT_EQ(c.l2_hit_cycles, r.hit) << r.cores;
    // Table 1 commons.
    EXPECT_EQ(c.l1_bytes, 64u * 1024);
    EXPECT_EQ(c.l1_ways, 4);
    EXPECT_EQ(c.line_bytes, 128);
    EXPECT_EQ(c.mem_latency_cycles, 300);
    EXPECT_EQ(c.mem_service_cycles, 30);
  }
}

TEST(Config, Table3Has14PointsWithPaperValues) {
  const auto configs = single_tech_45nm_configs();
  ASSERT_EQ(configs.size(), 14u);
  EXPECT_EQ(configs.front().cores, 1);
  EXPECT_EQ(configs.front().l2_bytes, 48u * 1024 * 1024);
  EXPECT_EQ(configs.front().l2_hit_cycles, 25);
  EXPECT_EQ(configs.back().cores, 26);
  EXPECT_EQ(configs.back().l2_bytes, 1u * 1024 * 1024);
  EXPECT_EQ(configs.back().l2_ways, 16);
  EXPECT_EQ(configs.back().l2_hit_cycles, 7);
  const CmpConfig c18 = tech_config("45nm", 18);
  EXPECT_EQ(c18.l2_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(c18.l2_ways, 16);
  EXPECT_EQ(c18.l2_hit_cycles, 17);
}

TEST(Config, AllPaperConfigsHavePowerOfTwoSets) {
  auto check = [](const CmpConfig& c) {
    EXPECT_GT(c.l2_sets(), 0);
    EXPECT_TRUE(std::has_single_bit(static_cast<unsigned>(c.l2_sets())))
        << c.name;
    EXPECT_TRUE(std::has_single_bit(static_cast<unsigned>(c.l1_sets())))
        << c.name;
  };
  for (const auto& c : default_configs()) check(c);
  for (const auto& c : single_tech_45nm_configs()) check(c);
}

TEST(Config, UnknownCoreCountThrows) {
  EXPECT_THROW(default_config(3), std::invalid_argument);
  EXPECT_THROW(tech_config("45nm", 5), std::invalid_argument);
  EXPECT_THROW(tech_config("default", 3), std::invalid_argument);
}

TEST(Config, TechNamesOneOfTheTables) {
  EXPECT_EQ(tech_config("default", 8).name, default_config(8).name);
  EXPECT_EQ(tech_configs("45nm").size(), 14u);
  EXPECT_THROW(tech_config("45mn", 8), std::invalid_argument);
  EXPECT_THROW(tech_configs("46nm"), std::invalid_argument);
}

TEST(Config, ScalingPreservesGeometryInvariants) {
  for (double f : {0.5, 0.25, 0.125}) {
    for (const auto& base : default_configs()) {
      const CmpConfig c = base.scaled(f);
      EXPECT_TRUE(std::has_single_bit(static_cast<unsigned>(c.l2_sets())));
      EXPECT_TRUE(std::has_single_bit(static_cast<unsigned>(c.l1_sets())));
      EXPECT_EQ(c.l2_ways, base.l2_ways);
      EXPECT_GE(c.l1_bytes, 8u * 1024);
      EXPECT_GE(c.l2_bytes, 64u * 1024);
      EXPECT_LE(c.l2_bytes, base.l2_bytes);
      // Within 2x of the requested factor (power-of-two rounding).
      EXPECT_LE(c.l2_bytes, base.l2_bytes * f * 2 + 1);
    }
  }
}

TEST(Config, ScaleOneIsIdentity) {
  const CmpConfig base = default_config(8);
  const CmpConfig c = base.scaled(1.0);
  EXPECT_EQ(c.l2_bytes, base.l2_bytes);
  EXPECT_EQ(c.l1_bytes, base.l1_bytes);
}

TEST(Config, InvalidScaleThrows) {
  EXPECT_THROW(default_config(8).scaled(0.0), std::invalid_argument);
  EXPECT_THROW(default_config(8).scaled(2.0), std::invalid_argument);
}

TEST(Config, DescribeMentionsKeyParameters) {
  const std::string d = default_config(16).describe();
  EXPECT_NE(d.find("16 cores"), std::string::npos);
  EXPECT_NE(d.find("20480KB"), std::string::npos);
}

TEST(ConfigOverrides, ApplySetsOnlyEngagedFields) {
  const CmpConfig base = default_config(8);
  ConfigOverrides o;
  o.l2_hit_cycles = 21;
  o.mem_latency_cycles = 450;
  CmpConfig cfg = base;
  o.apply(cfg);
  EXPECT_EQ(cfg.l2_hit_cycles, 21);
  EXPECT_EQ(cfg.mem_latency_cycles, 450);
  EXPECT_EQ(cfg.l2_banks, base.l2_banks);
  EXPECT_EQ(cfg.task_dispatch_cycles, base.task_dispatch_cycles);
}

}  // namespace
}  // namespace cachesched
