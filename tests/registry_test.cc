#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "harness/workload_registry.h"
#include "sched/registry.h"

namespace cachesched {
namespace {

TEST(Registry, BuiltinSchedulersAreListed) {
  const auto names = known_schedulers();
  for (const char* expected : {"aff", "cfb", "fifo", "pdf", "prio", "ws"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin scheduler: " << expected;
  }
}

TEST(Registry, NamesAreSorted) {
  const auto names = known_schedulers();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Registry, MakeByNameReturnsMatchingScheduler) {
  EXPECT_STREQ(make_scheduler("pdf")->name(), "pdf");
  EXPECT_STREQ(make_scheduler("ws")->name(), "ws");
  EXPECT_STREQ(make_scheduler("fifo")->name(), "fifo");
}

TEST(Registry, MakeBySpecReportsCanonicalSpecAsName) {
  EXPECT_STREQ(make_scheduler("ws:steal=half")->name(), "ws:steal=half");
  EXPECT_STREQ(make_scheduler("prio:key=work,order=max")->name(),
               "prio:key=work,order=max");
}

TEST(Registry, MakeReturnsFreshInstances) {
  auto a = make_scheduler("pdf");
  auto b = make_scheduler("pdf");
  EXPECT_NE(a.get(), b.get());
}

TEST(Registry, UnknownNameThrowsListingKnownNames) {
  try {
    make_scheduler("round-robin");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scheduler: round-robin"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("pdf"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ws"), std::string::npos) << msg;
  }
}

TEST(Registry, UnknownNameSuggestsNearestRegisteredName) {
  try {
    make_scheduler("pdr");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("did you mean pdf?"), std::string::npos) << msg;
  }
}

TEST(Registry, UnknownParameterKeyThrows) {
  EXPECT_THROW(make_scheduler("ws:steel=half"), std::invalid_argument);
  EXPECT_THROW(make_scheduler("pdf:anything=1"), std::invalid_argument);
}

TEST(Registry, KeysDocumentAcceptedParameters) {
  const auto ws = scheduler_keys("ws");
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_STREQ(ws[0].key, "victims");
  EXPECT_STREQ(ws[0].def, "seq");
  EXPECT_STREQ(ws[1].key, "steal");
  EXPECT_STREQ(ws[2].key, "seed");
  EXPECT_TRUE(scheduler_keys("pdf").empty());
  EXPECT_THROW(scheduler_keys("nope"), std::invalid_argument);
}

TEST(Registry, EmptyNameOrParameterSectionRejected) {
  EXPECT_THROW(make_scheduler(""), std::invalid_argument);
  EXPECT_THROW(make_scheduler(":steal=half"), std::invalid_argument);
  EXPECT_THROW(make_scheduler("ws:"), std::invalid_argument);
  EXPECT_THROW(make_scheduler("pdf:"), std::invalid_argument);
}

// A spec that sets a key to the default its row documents is the bare
// family: on a small DAG it gives the bare name's SimResult, apart from
// the scheduler field (the spec itself). One row per key `list` prints.
TEST(Registry, DocumentedDefaultsMatchTheBareFamily) {
  const CmpConfig cfg = default_config(4).scaled(0.0078125);
  const Workload w =
      make_workload("dnc:depth=4,fanout=2,ws=4K,share=0.2", cfg, {});
  size_t rows = 0;
  for (const std::string& name : known_schedulers()) {
    const SimResult bare = simulate_app(w, cfg, name);
    EXPECT_EQ(bare.scheduler, name);
    for (const SpecKey& k : scheduler_keys(name)) {
      const std::string spec = name + ":" + k.key + "=" + k.def;
      SimResult r = simulate_app(w, cfg, spec);
      EXPECT_EQ(r.scheduler, spec);
      r.scheduler = bare.scheduler;
      EXPECT_EQ(r, bare) << spec;
      ++rows;
    }
  }
  EXPECT_EQ(rows, 7u);  // aff 1, cfb 1, prio 2, ws 3
}

}  // namespace
}  // namespace cachesched
