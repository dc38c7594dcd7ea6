// Workload resolution: seed apps and generated families resolve through
// one make_workload factory, unknown names fail listing the alternatives
// and the nearest name, and CLI workload lists with embedded
// generator-spec commas split correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/genspec.h"
#include "harness/apps.h"
#include "harness/workload_registry.h"

namespace cachesched {
namespace {

constexpr double kScale = 0.0078125;

TEST(WorkloadRegistry, ResolvesEverySeedApp) {
  const CmpConfig cfg = default_config(4).scaled(kScale);
  AppOptions opt;
  opt.scale = kScale;
  for (const std::string& name : known_apps()) {
    EXPECT_NO_THROW(check_workload(name)) << name;
    const Workload via_registry = make_workload(name, cfg, opt);
    const Workload direct = make_app(name, cfg, opt);
    EXPECT_EQ(via_registry.name, direct.name);
    EXPECT_EQ(via_registry.params, direct.params);
    EXPECT_EQ(via_registry.dag.num_tasks(), direct.dag.num_tasks());
    EXPECT_EQ(via_registry.dag.total_refs(), direct.dag.total_refs());
    EXPECT_EQ(via_registry.dag.total_work(), direct.dag.total_work());
  }
}

TEST(WorkloadRegistry, ResolvesEveryGeneratedFamily) {
  const CmpConfig cfg = default_config(4).scaled(kScale);
  AppOptions opt;
  for (const std::string& fam : GenSpec::family_names()) {
    EXPECT_NO_THROW(check_workload(fam)) << fam;
    const Workload w = make_workload(fam, cfg, opt);  // family defaults
    EXPECT_EQ(w.name, fam);
    EXPECT_GT(w.dag.num_tasks(), 0u);
    EXPECT_EQ(w.dag.validate(), "");
  }
  // Parameterized spec strings resolve through the same entry point.
  const Workload w =
      make_workload("dnc:depth=3,fanout=2,ws=4K,share=0.2,seed=7", cfg, opt);
  EXPECT_EQ(w.dag.num_tasks(),
            GenSpec::parse("dnc:depth=3,fanout=2").num_tasks());
}

TEST(WorkloadRegistry, KnownWorkloadsCoversSeedAndGenerated) {
  const std::vector<std::string> names = known_workloads();
  for (const std::string& name : known_apps()) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end()) << name;
  }
  for (const std::string& fam : GenSpec::family_names()) {
    EXPECT_NE(std::find(names.begin(), names.end(), fam), names.end()) << fam;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.size(),
            known_apps().size() + GenSpec::family_names().size());
}

TEST(WorkloadRegistry, UnknownWorkloadListsKnownNames) {
  const CmpConfig cfg = default_config(2).scaled(kScale);
  try {
    make_workload("no-such-workload", cfg, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown workload"), std::string::npos);
    EXPECT_NE(msg.find("mergesort"), std::string::npos);
    EXPECT_NE(msg.find("dnc"), std::string::npos);
  }
}

TEST(WorkloadRegistry, UnknownWorkloadSuggestsNearestName) {
  const CmpConfig cfg = default_config(2).scaled(kScale);
  try {
    make_workload("mergsort", cfg, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean mergesort?"),
              std::string::npos)
        << e.what();
  }
}

// One grammar: nothing after ':' is rejected for seed apps and generated
// families, as for schedulers (registry_test).
TEST(WorkloadRegistry, EmptyParameterSectionRejected) {
  EXPECT_THROW(check_workload("dnc:"), std::invalid_argument);
  EXPECT_THROW(check_workload("mergesort:"), std::invalid_argument);
}

TEST(WorkloadRegistry, SeedAppsTakeNoSpecParams) {
  const CmpConfig cfg = default_config(2).scaled(kScale);
  AppOptions opt;
  opt.scale = kScale;
  EXPECT_THROW(make_workload("mergesort:ws=4K", cfg, opt),
               std::invalid_argument);
  EXPECT_THROW(check_workload("mergesort:ws=4K"), std::invalid_argument);
}

TEST(WorkloadRegistry, BadGeneratorParamsPropagate) {
  const CmpConfig cfg = default_config(2).scaled(kScale);
  EXPECT_THROW(make_workload("dnc:depth=0", cfg, {}), std::invalid_argument);
  EXPECT_THROW(make_workload("dnc:bogus=1", cfg, {}), std::invalid_argument);
  EXPECT_THROW(check_workload("dnc:depth=0"), std::invalid_argument);
  EXPECT_THROW(check_workload("dnc:bogus=1"), std::invalid_argument);
}

TEST(SplitWorkloadList, PlainNamesSplitOnCommas) {
  EXPECT_EQ(split_workload_list("mergesort,lu,heat"),
            (std::vector<std::string>{"mergesort", "lu", "heat"}));
  EXPECT_EQ(split_workload_list("mergesort"),
            (std::vector<std::string>{"mergesort"}));
  EXPECT_EQ(split_workload_list(""), (std::vector<std::string>{}));
}

TEST(SplitWorkloadList, GeneratorSpecsKeepTheirParams) {
  EXPECT_EQ(
      split_workload_list("mergesort,dnc:depth=6,fanout=2,ws=16K,heat"),
      (std::vector<std::string>{"mergesort", "dnc:depth=6,fanout=2,ws=16K",
                                "heat"}));
  EXPECT_EQ(split_workload_list("dnc:depth=4,fanout=2,stencil:tiles=4,steps=2"),
            (std::vector<std::string>{"dnc:depth=4,fanout=2",
                                      "stencil:tiles=4,steps=2"}));
  EXPECT_EQ(split_workload_list("dnc,forkjoin"),
            (std::vector<std::string>{"dnc", "forkjoin"}));
}

}  // namespace
}  // namespace cachesched
