#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dag.h"
#include "harness/workload_registry.h"
#include "runahead_dags.h"
#include "sched/central_fifo_scheduler.h"
#include "sched/priority_scheduler.h"
#include "sched/registry.h"
#include "sched/ws_scheduler.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

using namespace runahead_dags;

// `reruns`, if given, receives the fresh simulator's exact_reruns().
SimResult run(const TaskDag& dag, const CmpConfig& cfg, Scheduler& s,
              uint64_t* reruns = nullptr) {
  CmpSimulator sim(cfg);
  SimResult r = sim.run(dag, s);
  if (reruns != nullptr) *reruns = sim.exact_reruns();
  return r;
}

// Whole-result equality, per-core and per-task vectors included.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_TRUE(a == b) << "cycles " << a.cycles << " vs " << b.cycles
                      << ", l2_misses " << a.l2_misses << " vs "
                      << b.l2_misses;
}

TEST(Engine, PureComputeTiming) {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1000)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.cycles, 1000u);
  EXPECT_EQ(r.instructions, 1000u);
  EXPECT_EQ(r.l2_misses, 0u);
  EXPECT_EQ(r.tasks_executed, 1u);
}

TEST(Engine, ColdMissCosts) {
  // One reference, cold: (instr_per_ref - 1) + mem latency.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 1, 128, false, 5)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(r.cycles, 4u + 300u);
  EXPECT_EQ(r.instructions, 5u);
}

TEST(Engine, L1HitCosts) {
  // Second access to the same line hits in L1: instr_per_ref cycles.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 1, 128, false, 5),
                  RefBlock::stride_ref(0, 1, 128, false, 5)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(r.l1_hits, 1u);
  EXPECT_EQ(r.cycles, (4u + 300u) + 5u);
}

TEST(Engine, L2HitAfterL1Eviction) {
  // Touch 9 distinct lines mapping over an 8-line L1 then re-touch the
  // first: it must hit in L2, not memory.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 9, 128, false, 1),
                  RefBlock::stride_ref(0, 1, 128, false, 1)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.l2_misses, 9u);
  EXPECT_EQ(r.l2_hits, 1u);
}

TEST(Engine, TaskDispatchOverheadCharged) {
  CmpConfig cfg = tiny_config(1);
  cfg.task_dispatch_cycles = 100;
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(10)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, cfg, s);
  EXPECT_EQ(r.cycles, 110u);
}

TEST(Engine, IndependentTasksRunInParallel) {
  DagBuilder b;
  for (int i = 0; i < 4; ++i) b.add_task({}, {RefBlock::compute(1000)});
  auto dag = b.finish();
  PriorityScheduler s;
  EXPECT_EQ(run(dag, tiny_config(1), s).cycles, 4000u);
  PriorityScheduler s4;
  EXPECT_EQ(run(dag, tiny_config(4), s4).cycles, 1000u);
}

TEST(Engine, DependenceChainSerializes) {
  DagBuilder b;
  TaskId prev = b.add_task({}, {RefBlock::compute(100)});
  for (int i = 1; i < 5; ++i) {
    prev = b.add_task({prev}, {RefBlock::compute(100)});
  }
  auto dag = b.finish();
  PriorityScheduler s;
  EXPECT_EQ(run(dag, tiny_config(4), s).cycles, 500u);
}

TEST(Engine, ZeroWorkSyncNodes) {
  DagBuilder b;
  const TaskId f = b.add_task({}, {});
  const TaskId a = b.add_task({f}, {RefBlock::compute(10)});
  const TaskId c = b.add_task({f}, {RefBlock::compute(10)});
  b.add_task({a, c}, {});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(2), s);
  EXPECT_EQ(r.tasks_executed, 4u);
  EXPECT_EQ(r.cycles, 10u);
}

TEST(Engine, MemoryChannelSaturationSlowsParallelMisses) {
  // 4 cores streaming disjoint lines: misses serialize at the service
  // rate, so 4-core time exceeds 1/4 of the 1-core time.
  DagBuilder b;
  for (int i = 0; i < 4; ++i) {
    b.add_task({}, {RefBlock::stride_ref(1u << 20 | (uint64_t)i << 16, 64,
                                         128, false, 1)});
  }
  auto dag = b.finish();
  PriorityScheduler s1;
  const SimResult r1 = run(dag, tiny_config(1), s1);
  PriorityScheduler s4;
  const SimResult r4 = run(dag, tiny_config(4), s4);
  EXPECT_GT(r4.cycles * 4, r1.cycles);
  EXPECT_GT(r4.mem_queue_cycles, 0u);
}

TEST(Engine, SharedLinesHitInL2AcrossCores) {
  // Task 0 streams 32 lines; tasks 1 and 2 (parallel, other cores) re-read
  // them: under a shared L2 most of those are L2 hits, not misses.
  DagBuilder b;
  const TaskId t0 =
      b.add_task({}, {RefBlock::stride_ref(0, 32, 128, false, 1)});
  b.add_task({t0}, {RefBlock::stride_ref(0, 32, 128, false, 1)});
  b.add_task({t0}, {RefBlock::stride_ref(0, 32, 128, false, 1)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(2), s);
  EXPECT_EQ(r.l2_misses, 32u);
  EXPECT_GE(r.l2_hits, 48u);  // both readers, minus what stayed in L1
}

TEST(Engine, WriteInvalidatesOtherL1Copies) {
  // Core A reads a line (cached in its L1); core B then writes it; A's
  // next read must miss L1 (go to L2), seen as invalidations > 0.
  DagBuilder b;
  const TaskId a =
      b.add_task({}, {RefBlock::stride_ref(0, 8, 128, false, 200)});
  b.add_task({}, {RefBlock::compute(100),
                  RefBlock::stride_ref(0, 8, 128, true, 1)});
  b.add_task({a}, {RefBlock::stride_ref(0, 8, 128, false, 1)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(2), s);
  EXPECT_GT(r.invalidations, 0u);
}

// Random reads and writes over 512 shared lines break causality under
// run-ahead; the re-run gives exact interleaving's result (run-ahead
// alone: 23 L1 hits, 824 L2 hits).
TEST(Engine, DeterministicAcrossRuns) {
  const TaskDag dag = random_sharing();
  WsScheduler s1, s2;
  uint64_t reruns = 0;
  const SimResult r = run(dag, tiny_config(4), s1, &reruns);
  expect_identical(r, run(dag, tiny_config(4), s2));
  EXPECT_EQ(reruns, 1u);
  EXPECT_EQ(r.cycles, 17429u);
  EXPECT_EQ(r.l1_hits, 21u);
  EXPECT_EQ(r.l2_hits, 826u);
  EXPECT_EQ(r.l2_misses, 153u);
  EXPECT_EQ(r.invalidations, 405u);
  EXPECT_EQ(r.writebacks, 93u);
}

// Core 0 writes line 0 at cycle 500 while core 1 re-reads it, an L1 hit
// every 8 cycles from cycle 307. Run-ahead takes all of core 1's hits
// before the write; the write's invalidation finds a later stamp, and the
// run repeats exactly: 25 hits before the write, an L2 hit at 507, 23
// hits after (run-ahead alone would report 699 cycles, 49 L1 hits and 1
// L2 hit).
TEST(Engine, HitPastAnInvalidatingWriteRerunsExactly) {
  const TaskDag dag = hit_past_a_write();
  PriorityScheduler s;
  uint64_t reruns = 0;
  const SimResult r = run(dag, tiny_config(2), s, &reruns);
  EXPECT_EQ(reruns, 1u);
  EXPECT_EQ(r.cycles, 708u);
  EXPECT_EQ(r.l1_hits, 48u);
  EXPECT_EQ(r.l2_hits, 2u);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(r.invalidations, 1u);
}

// Core 1's last read of line 0 is an L1 hit at cycle 500, the cycle in
// which core 0 writes the line. Exact order takes the write first (lower
// core id), so the read goes to the L2; run-ahead takes the hit first,
// and its same-cycle stamp must be flagged (run-ahead alone reports 1,501
// cycles, 201 L1 hits and 1 L2 hit).
TEST(Engine, SameCycleHitAfterAWriteRerunsExactly) {
  const TaskDag dag = same_cycle_hit();
  PriorityScheduler s;
  uint64_t reruns = 0;
  const SimResult r = run(dag, tiny_config(2), s, &reruns);
  EXPECT_EQ(reruns, 1u);
  EXPECT_EQ(r.cycles, 1510u);
  EXPECT_EQ(r.l1_hits, 200u);
  EXPECT_EQ(r.l2_hits, 2u);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(r.invalidations, 1u);
}

// With zero dispatch cost, a task dispatched at cycle t runs after the
// ops other cores already took at t, lower core ids included. Core 1 hits
// line 0 at cycle 1000, then core 2 completes at 1000 and its second
// child, on idle core 0, writes line 0 at 1000. In exact order that write
// follows the hit, so the exact pass must not flag it. Run-ahead's result
// was already exact here; its same-cycle stamp costs a spare re-run.
TEST(Engine, ZeroDispatchForkAfterSameCycleHitIsExact) {
  const TaskDag dag = zero_dispatch_fork();
  PriorityScheduler s;
  uint64_t reruns = 0;
  SimResult r;
  ASSERT_NO_THROW(r = run(dag, tiny_config(3), s, &reruns));
  EXPECT_EQ(reruns, 1u);
  EXPECT_EQ(r.cycles, 2308u);
  EXPECT_EQ(r.l1_hits, 1998u);
  EXPECT_EQ(r.l2_hits, 3u);
  EXPECT_EQ(r.l2_misses, 1u);
  EXPECT_EQ(r.invalidations, 2u);
}

// Seeded variants of the DAG above on 3 to 8 cores (same_cycle_forks).
// Every run finishes and repeats identically, and some take the exact
// pass.
TEST(Engine, ExactPassFinishesOnSameCycleForks) {
  uint64_t reruns = 0;
  for (int cores : {3, 5, 8}) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      const TaskDag dag = same_cycle_forks(cores, seed);
      for (auto make :
           {+[]() -> Scheduler* { return new PriorityScheduler; },
            +[]() -> Scheduler* { return new WsScheduler; },
            +[]() -> Scheduler* { return new CentralFifoScheduler; }}) {
        std::unique_ptr<Scheduler> s1(make()), s2(make());
        uint64_t n = 0;
        SimResult r;
        ASSERT_NO_THROW(r = run(dag, tiny_config(cores), *s1, &n))
            << s1->name() << ", " << cores << " cores, seed " << seed;
        expect_identical(r, run(dag, tiny_config(cores), *s2));
        reruns += n;
      }
    }
  }
  EXPECT_GT(reruns, 0u);
}

TEST(Engine, DisjointWritesNeedNoRerun) {
  DagBuilder b;
  const TaskId root = b.add_task({}, {RefBlock::compute(1)});
  for (int i = 0; i < 8; ++i) {
    b.add_task({root}, {RefBlock::stride_ref(uint64_t(i) << 14, 32, 128,
                                             true, 2)});
  }
  auto dag = b.finish();
  PriorityScheduler s;
  uint64_t reruns = 1;
  const SimResult r = run(dag, tiny_config(4), s, &reruns);
  EXPECT_EQ(reruns, 0u);
  EXPECT_EQ(r.l2_misses, 256u);
}

TEST(Engine, GreedyNoIdleCoreWhileWorkPending) {
  // 8 equal independent tasks on 4 cores must take exactly 2 rounds.
  DagBuilder b;
  for (int i = 0; i < 8; ++i) b.add_task({}, {RefBlock::compute(500)});
  auto dag = b.finish();
  for (auto make : {+[]() -> Scheduler* { return new PriorityScheduler; },
                    +[]() -> Scheduler* { return new WsScheduler; },
                    +[]() -> Scheduler* { return new CentralFifoScheduler; }}) {
    std::unique_ptr<Scheduler> s(make());
    const SimResult r = run(dag, tiny_config(4), *s);
    EXPECT_EQ(r.cycles, 1000u) << s->name();
  }
}

TEST(Engine, CoreUtilizationAndBusyAccounting) {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1000)});
  b.add_task({}, {RefBlock::compute(500)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(2), s);
  EXPECT_EQ(r.cycles, 1000u);
  ASSERT_EQ(r.core_busy_cycles.size(), 2u);
  EXPECT_EQ(r.core_busy_cycles[0] + r.core_busy_cycles[1], 1500u);
  EXPECT_NEAR(r.core_utilization(), 0.75, 1e-9);
}

TEST(Engine, WritebackTrafficCounted) {
  // Write 128 distinct lines (L2 = 64 lines): dirty evictions must produce
  // writebacks.
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 128, 128, true, 1)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_GT(r.writebacks, 0u);
  EXPECT_EQ(r.l2_misses, 128u);
}

TEST(Engine, StatsDerivedMetrics) {
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 10, 128, false, 100)});
  auto dag = b.finish();
  PriorityScheduler s;
  const SimResult r = run(dag, tiny_config(1), s);
  EXPECT_EQ(r.total_refs(), 10u);
  EXPECT_NEAR(r.l2_misses_per_kilo_instr(), 10.0, 1e-9);
  EXPECT_GT(r.mem_bandwidth_utilization(), 0.0);
  EXPECT_LT(r.mem_bandwidth_utilization(), 1.0);
}

// Hands out a fixed list of tasks in order, ready or not.
class ScriptedScheduler : public Scheduler {
 public:
  explicit ScriptedScheduler(std::vector<TaskId> script)
      : script_(std::move(script)) {}
  void reset(const TaskDag&, const SchedContext&) override { next_ = 0; }
  void enqueue_ready(int, std::span<const TaskId>) override {}
  TaskId acquire(int) override {
    return next_ < script_.size() ? script_[next_++] : kNoTask;
  }
  bool empty() const override { return next_ >= script_.size(); }
  const char* name() const override { return "scripted"; }

 private:
  std::vector<TaskId> script_;
  size_t next_ = 0;
};

// The logic_error message of running `dag` on 2 cores under `script`.
std::string contract_error(const TaskDag& dag, std::vector<TaskId> script) {
  ScriptedScheduler s(std::move(script));
  try {
    run(dag, tiny_config(2), s);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(Engine, SchedulerContractIsAlwaysChecked) {
  DagBuilder b;
  const TaskId a = b.add_task({}, {RefBlock::compute(10)});
  b.add_task({a}, {RefBlock::compute(10)});
  const TaskDag dag = b.finish();
  EXPECT_EQ(contract_error(dag, {0, 0}),
            "scheduler scripted handed task 0 to core 1, which was already "
            "dispatched");
  EXPECT_EQ(contract_error(dag, {0, 1}),
            "scheduler scripted handed task 1 to core 1, which still has 1 "
            "incomplete parent");
  EXPECT_EQ(contract_error(dag, {7}),
            "scheduler scripted handed task 7 to core 0, which is out of "
            "range (2 tasks)");
  EXPECT_EQ(contract_error(dag, {0, kNoTask, 1}), "no error");
}

/// A scheduler defined outside src/sched: it forwards every call to a
/// built-in one and reports its own name.
class ForwardingScheduler final : public Scheduler {
 public:
  explicit ForwardingScheduler(const std::string& spec)
      : inner_(make_scheduler(spec)) {}
  void reset(const TaskDag& dag, const SchedContext& ctx) override {
    inner_->reset(dag, ctx);
  }
  void enqueue_ready(int core, std::span<const TaskId> ready) override {
    inner_->enqueue_ready(core, ready);
  }
  TaskId acquire(int core) override { return inner_->acquire(core); }
  void on_complete(int core, TaskId t) override {
    inner_->on_complete(core, t);
  }
  bool empty() const override { return inner_->empty(); }
  const char* name() const override { return "forwarding"; }
  uint64_t steal_count() const override { return inner_->steal_count(); }

 private:
  std::unique_ptr<Scheduler> inner_;
};

TEST(Engine, OutsideSchedulerRunsLikeTheBuiltInItForwardsTo) {
  // golden_sim_test's mergesort fixture: 4 cores at scale 1/32.
  const CmpConfig cfg = default_config(4).scaled(0.03125);
  AppOptions opt;
  opt.scale = 0.03125;
  const Workload w = make_workload("mergesort", cfg, opt);
  for (const char* spec : {"pdf", "ws", "aff:steal=half", "fifo"}) {
    SCOPED_TRACE(spec);
    const auto built_in = make_scheduler(spec);
    const SimResult want = run(w.dag, cfg, *built_in);
    ForwardingScheduler outside(spec);
    SimResult got = run(w.dag, cfg, outside);
    EXPECT_EQ(got.scheduler, "forwarding");
    got.scheduler = want.scheduler;
    expect_identical(got, want);
  }
}

TEST(Engine, RejectsTooManyCores) {
  CmpConfig c = tiny_config(1);
  c.cores = 64;
  EXPECT_THROW(CmpSimulator{c}, std::invalid_argument);
}

}  // namespace
}  // namespace cachesched
