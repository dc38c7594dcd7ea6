// Parameterized scheduler properties over (workload × core count):
// invariants that must hold for *every* greedy scheduler on *every*
// benchmark — the safety net under all the figure-level results.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "harness/apps.h"
#include "sched/registry.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

/// Every registered scheduler family by its bare name — enumerated from
/// the registry, not hand-listed, so a newly registered policy is under
/// the invariants automatically — plus one parameterized variant per
/// zoo knob, exercising the non-default code paths.
std::vector<std::string> all_sched_specs() {
  std::vector<std::string> specs = known_schedulers();
  for (const char* v :
       {"ws:victims=rand,seed=3", "ws:steal=half", "aff:steal=half",
        "prio:key=depth,order=max", "prio:key=ws", "cfb:budget=0.25"}) {
    specs.push_back(v);
  }
  return specs;
}

using Param = std::tuple<std::string /*app*/, int /*cores*/>;

/// One (app, cores) point: its workload, built once, and one simulation
/// per scheduler spec plus the sequential baseline, shared by every
/// property below.
struct Point {
  Workload w;
  CmpConfig cfg;
  std::map<std::string, SimResult> runs;  // by scheduler spec
  SimResult seq;
};

class SchedulerProperties : public ::testing::TestWithParam<Param> {
 protected:
  static constexpr double kScale = 0.015625;  // 1/64: fast sweep

  const Point& point() const {
    static std::map<Param, Point> memo;
    const auto [it, fresh] = memo.try_emplace(GetParam());
    Point& p = it->second;
    if (fresh) {
      const auto& [app, cores] = GetParam();
      p.cfg = default_config(cores).scaled(kScale);
      AppOptions opt;
      opt.scale = kScale;
      p.w = make_app(app, p.cfg, opt);
      for (const std::string& sched : all_sched_specs()) {
        p.runs.emplace(sched, simulate_app(p.w, p.cfg, sched));
      }
      p.seq = simulate_sequential(p.w, p.cfg);
    }
    return p;
  }
  const Workload& workload() const { return point().w; }
  const CmpConfig& config() const { return point().cfg; }
  const SimResult& result(const std::string& sched) const {
    return point().runs.at(sched);
  }
};

TEST_P(SchedulerProperties, AllSchedulersExecuteEveryTaskOnce) {
  const Workload& w = workload();
  for (const std::string& sched : all_sched_specs()) {
    const SimResult& r = result(sched);
    EXPECT_EQ(r.tasks_executed, w.dag.num_tasks()) << sched;
  }
}

TEST_P(SchedulerProperties, InstructionAndRefCountsSchedulerInvariant) {
  // Scheduling changes *timing* and *hit rates*, never the work done.
  const Workload& w = workload();
  const SimResult& pdf = result("pdf");
  EXPECT_EQ(pdf.instructions, w.dag.total_work());
  EXPECT_EQ(pdf.total_refs(), w.dag.total_refs());
  for (const std::string& sched : all_sched_specs()) {
    const SimResult& r = result(sched);
    EXPECT_EQ(pdf.instructions, r.instructions) << sched;
    EXPECT_EQ(pdf.total_refs(), r.total_refs()) << sched;
  }
}

TEST_P(SchedulerProperties, RunsAreDeterministic) {
  const Workload& w = workload();
  for (const std::string& sched : all_sched_specs()) {
    const SimResult& a = result(sched);
    const SimResult b = simulate_app(w, config(), sched);
    EXPECT_EQ(a.cycles, b.cycles) << sched;
    EXPECT_EQ(a.l2_misses, b.l2_misses) << sched;
    EXPECT_EQ(a.steals, b.steals) << sched;
  }
}

TEST_P(SchedulerProperties, ParallelTimeBoundedByWorkAndSpan) {
  // Greedy bound sanity: span <= T_P and T_P <= T_1 (with dispatch and
  // memory contention slack on both sides).
  const Workload& w = workload();
  const SimResult& seq = point().seq;
  const SimResult& par = result("pdf");
  EXPECT_LE(par.cycles, seq.cycles + seq.cycles / 20);
  EXPECT_GE(static_cast<double>(par.cycles),
            0.9 * static_cast<double>(w.dag.weighted_depth()));
}

TEST_P(SchedulerProperties, MissesBoundedByRefsAndColdFloor) {
  const Workload& w = workload();
  for (const std::string& sched : all_sched_specs()) {
    const SimResult& r = result(sched);
    EXPECT_LE(r.l2_misses, r.total_refs()) << sched;
    // At least the distinct footprint must miss once.
    EXPECT_GE(r.l2_misses, w.footprint_bytes / config().line_bytes / 2)
        << sched;
  }
}

TEST_P(SchedulerProperties, CoreUtilizationSane) {
  const SimResult& r = result("pdf");
  EXPECT_GT(r.core_utilization(), 0.0);
  EXPECT_LE(r.core_utilization(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerProperties,
    ::testing::Combine(::testing::Values("mergesort", "hashjoin", "lu",
                                         "quicksort", "heat"),
                       ::testing::Values(2, 8, 32)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "c";
    });

}  // namespace
}  // namespace cachesched
