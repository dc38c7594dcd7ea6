// Unit behavior of the scheduler-zoo policy families (ws parameterized,
// aff, prio, cfb), driven directly through the Scheduler protocol —
// engine-level determinism and end-to-end results are covered by
// scheduler_properties_test and the golden sim fixtures.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dag.h"
#include "sched/feedback_scheduler.h"
#include "sched/priority_scheduler.h"
#include "sched/registry.h"
#include "sched/ws_scheduler.h"

namespace cachesched {
namespace {

TaskDag chain(int n) {
  DagBuilder b;
  for (int i = 0; i < n; ++i) {
    if (i == 0) {
      b.add_task({}, {RefBlock::compute(1)});
    } else {
      b.add_task({static_cast<TaskId>(i - 1)}, {RefBlock::compute(1)});
    }
  }
  return b.finish();
}

SchedContext ctx(int cores, int l2_banks = 0) {
  SchedContext c(cores);
  c.l2_banks = l2_banks;
  return c;
}

// ------------------------------------------------------------------- ws

TEST(WsZoo, StealHalfTakesBottomHalfInOneEvent) {
  auto s = make_scheduler("ws:steal=half");
  auto* ws = dynamic_cast<WsScheduler*>(s.get());
  ASSERT_NE(ws, nullptr);
  const auto dag = chain(1);
  s->reset(dag, ctx(2));
  const TaskId ready[] = {1, 2, 3, 4, 5};  // spawn order; 5 is the bottom
  s->enqueue_ready(0, ready);
  // One steal event moves ceil(5/2)=3 tasks: the bottom task is returned,
  // the next two move to the thief's deque keeping their orientation.
  EXPECT_EQ(s->acquire(1), 5u);
  EXPECT_EQ(s->steal_count(), 1u);
  EXPECT_EQ(ws->deque_size(1), 2u);
  EXPECT_EQ(ws->deque_size(0), 2u);
  // Thief's own pops (top first), no further steal events.
  EXPECT_EQ(s->acquire(1), 3u);
  EXPECT_EQ(s->acquire(1), 4u);
  EXPECT_EQ(s->steal_count(), 1u);
  // Victim keeps its top half.
  EXPECT_EQ(s->acquire(0), 1u);
  EXPECT_EQ(s->acquire(0), 2u);
  EXPECT_TRUE(s->empty());
}

TEST(WsZoo, RandVictimsIsDeterministicAcrossRuns) {
  const auto dag = chain(1);
  auto run_once = [&](const std::string& spec) {
    auto s = make_scheduler(spec);
    s->reset(dag, ctx(4));
    for (int c = 0; c < 3; ++c) {
      const TaskId ready[] = {static_cast<TaskId>(10 * c),
                              static_cast<TaskId>(10 * c + 1)};
      s->enqueue_ready(c, ready);
    }
    std::vector<TaskId> order;
    for (TaskId t; (t = s->acquire(3)) != kNoTask;) order.push_back(t);
    EXPECT_EQ(order.size(), 6u);
    return order;
  };
  const auto a = run_once("ws:victims=rand,seed=42");
  const auto b = run_once("ws:victims=rand,seed=42");
  EXPECT_EQ(a, b);  // same seed, same steal sequence — bitwise
}

TEST(WsZoo, RandVictimsFallsBackToScanWhenProbesMiss) {
  // One non-empty deque among 8: random probing must still find it (the
  // engine treats acquire() failure as "no work anywhere").
  const auto dag = chain(1);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto s = make_scheduler("ws:victims=rand,seed=" + std::to_string(seed));
    s->reset(dag, ctx(8));
    const TaskId ready[] = {77};
    s->enqueue_ready(5, ready);
    EXPECT_EQ(s->acquire(2), 77u) << "seed " << seed;
    EXPECT_TRUE(s->empty());
  }
}

// ------------------------------------------------------------------ aff

TEST(AffZoo, PrefersVictimSharingL2Bank) {
  // 4 cores on 2 banks: {0,1} on bank 0, {2,3} on bank 1. Work on cores
  // 0 and 2: a thief at core 3 must raid its bank-mate (core 2) even
  // though the plain ws ring scan (3 -> 0 -> 1 -> 2) would hit core 0
  // first.
  const auto dag = chain(1);
  auto aff = make_scheduler("aff");
  aff->reset(dag, ctx(4, /*l2_banks=*/2));
  auto ws = make_scheduler("ws");
  ws->reset(dag, ctx(4, /*l2_banks=*/2));
  const TaskId on0[] = {10};
  const TaskId on2[] = {20};
  for (Scheduler* s : {aff.get(), ws.get()}) {
    s->enqueue_ready(0, on0);
    s->enqueue_ready(2, on2);
  }
  EXPECT_EQ(aff->acquire(3), 20u);  // bank-mate first
  EXPECT_EQ(ws->acquire(3), 10u);   // ring order
}

TEST(AffZoo, MonolithicL2DegeneratesToRingDistance) {
  // l2_banks=0: the cores themselves form the ring. For core 0 of 4 the
  // victim order is 1, 3 (distance 1 both, ring-scan tie-break), then 2.
  const auto dag = chain(1);
  auto s = make_scheduler("aff");
  s->reset(dag, ctx(4, /*l2_banks=*/0));
  const TaskId on2[] = {20};
  const TaskId on3[] = {30};
  s->enqueue_ready(2, on2);
  s->enqueue_ready(3, on3);
  EXPECT_EQ(s->acquire(0), 30u);  // ring-adjacent 3 beats opposite 2
  EXPECT_EQ(s->acquire(0), 20u);
}

TEST(AffZoo, StealHalfParamApplies) {
  const auto dag = chain(1);
  auto s = make_scheduler("aff:steal=half");
  auto* ws = dynamic_cast<WsScheduler*>(s.get());
  ASSERT_NE(ws, nullptr);
  s->reset(dag, ctx(2));
  const TaskId ready[] = {1, 2, 3, 4};
  s->enqueue_ready(0, ready);
  EXPECT_EQ(s->acquire(1), 4u);  // bottom; ceil(4/2)=2 moved in total
  EXPECT_EQ(ws->deque_size(1), 1u);
  EXPECT_EQ(ws->deque_size(0), 2u);
}

// ----------------------------------------------------------------- prio

TEST(PrioZoo, KeyIdMinIsSequentialOrder) {
  const auto dag = chain(10);
  auto s = make_scheduler("prio");  // key=id, order=min == PDF
  s->reset(dag, ctx(4));
  const TaskId ready[] = {7, 3, 9, 1};
  s->enqueue_ready(0, ready);
  EXPECT_EQ(s->acquire(2), 1u);
  EXPECT_EQ(s->acquire(0), 3u);
  EXPECT_EQ(s->acquire(1), 7u);
  EXPECT_EQ(s->acquire(1), 9u);
  EXPECT_EQ(s->acquire(1), kNoTask);
}

TEST(PrioZoo, KeyDepthMaxHandsOutDeepestFirst) {
  // 0 -> {1, 2}, 1 -> 3: depths 0, 1, 1, 2.
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1)});
  b.add_task({0}, {RefBlock::compute(1)});
  b.add_task({0}, {RefBlock::compute(1)});
  b.add_task({1}, {RefBlock::compute(1)});
  const auto dag = b.finish();
  auto s = make_scheduler("prio:key=depth,order=max");
  s->reset(dag, ctx(2));
  const TaskId ready[] = {0, 1, 2, 3};
  s->enqueue_ready(0, ready);
  EXPECT_EQ(s->acquire(0), 3u);  // depth 2
  EXPECT_EQ(s->acquire(0), 1u);  // depth 1, id tie-break toward smaller
  EXPECT_EQ(s->acquire(0), 2u);
  EXPECT_EQ(s->acquire(0), 0u);
}

TEST(PrioZoo, KeyWorkMaxIsLargestTaskFirst) {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(5)});
  b.add_task({0}, {RefBlock::compute(50)});
  b.add_task({0}, {RefBlock::compute(500)});
  b.add_task({0}, {RefBlock::compute(50)});
  const auto dag = b.finish();
  auto s = make_scheduler("prio:key=work,order=max");
  s->reset(dag, ctx(2));
  const TaskId ready[] = {0, 1, 2, 3};
  s->enqueue_ready(0, ready);
  EXPECT_EQ(s->acquire(0), 2u);  // work 500
  EXPECT_EQ(s->acquire(0), 1u);  // work 50, id tie-break
  EXPECT_EQ(s->acquire(0), 3u);
  EXPECT_EQ(s->acquire(0), 0u);
}

TEST(PrioZoo, KeyWsUsesGroupParam) {
  DagBuilder b;
  b.begin_group("t", 1, /*param=*/4096);
  b.add_task({}, {RefBlock::compute(1)});
  b.end_group();
  b.begin_group("t", 2, /*param=*/64);
  b.add_task({0}, {RefBlock::compute(1)});
  b.end_group();
  b.begin_group("t", 3, /*param=*/1024);
  b.add_task({0}, {RefBlock::compute(1)});
  b.end_group();
  const auto dag = b.finish();
  auto s = make_scheduler("prio:key=ws");  // order=min
  s->reset(dag, ctx(2));
  const TaskId ready[] = {0, 1, 2};
  s->enqueue_ready(0, ready);
  EXPECT_EQ(s->acquire(0), 1u);  // param 64
  EXPECT_EQ(s->acquire(0), 2u);  // param 1024
  EXPECT_EQ(s->acquire(0), 0u);  // param 4096
}

// ------------------------------------------------------------------ cfb

/// Root plus three leaves, each leaf touching `lines` distinct 128-byte
/// lines in its own region.
TaskDag footprint_dag(uint32_t lines) {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1)});
  for (uint64_t i = 0; i < 3; ++i) {
    b.add_task({0}, {RefBlock::stride_ref(/*base=*/1 << 20 | (i << 16),
                                          /*count=*/lines,
                                          /*stride_bytes=*/128,
                                          /*is_write=*/false,
                                          /*instr_per_ref=*/1)});
  }
  return b.finish();
}

TEST(CfbZoo, ThrottlesAdmissionAtTheBudget) {
  const auto dag = footprint_dag(/*lines=*/4);  // 512 B per leaf
  auto s = make_scheduler("cfb");
  auto* cfb = dynamic_cast<FeedbackScheduler*>(s.get());
  ASSERT_NE(cfb, nullptr);
  SchedContext c(4);
  c.l2_bytes = 1024;  // budget=1.0 -> two 512 B leaves fit, a third not
  c.line_bytes = 128;
  s->reset(dag, c);
  EXPECT_EQ(cfb->budget_bytes(), 1024u);
  EXPECT_EQ(cfb->task_ws_bytes(1), 512u);  // footprint: 4 lines x 128 B
  const TaskId ready[] = {1, 2, 3};
  s->enqueue_ready(0, ready);
  EXPECT_EQ(s->acquire(0), 1u);  // PDF order
  EXPECT_EQ(s->acquire(1), 2u);
  EXPECT_EQ(cfb->live_bytes(), 1024u);
  EXPECT_EQ(s->acquire(2), kNoTask);  // throttled, not out of work
  EXPECT_FALSE(s->empty());
  s->on_complete(0, 1);
  EXPECT_EQ(cfb->live_bytes(), 512u);
  EXPECT_EQ(s->acquire(2), 3u);  // retirement re-opens the budget
  EXPECT_TRUE(s->empty());
}

TEST(CfbZoo, AdmitsOversizedTaskWhenNothingRuns) {
  // A single task larger than the whole budget must still be handed out
  // when no task is running — the deadlock-freedom rule.
  const auto dag = footprint_dag(/*lines=*/64);  // 8 KB per leaf
  auto s = make_scheduler("cfb:budget=0.25");
  SchedContext c(4);
  c.l2_bytes = 1024;  // budget 256 B << every leaf
  c.line_bytes = 128;
  s->reset(dag, c);
  const TaskId ready[] = {1, 2};
  s->enqueue_ready(0, ready);
  EXPECT_EQ(s->acquire(0), 1u);        // forced admission
  EXPECT_EQ(s->acquire(1), kNoTask);   // but only one at a time
  s->on_complete(0, 1);
  EXPECT_EQ(s->acquire(1), 2u);
}

TEST(CfbZoo, DefaultInstanceReportsFamilyName) {
  EXPECT_STREQ(make_scheduler("cfb")->name(), "cfb");
  EXPECT_STREQ(make_scheduler("cfb:budget=0.5")->name(), "cfb:budget=0.5");
}

}  // namespace
}  // namespace cachesched
