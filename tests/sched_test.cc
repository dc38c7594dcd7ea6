#include <gtest/gtest.h>

#include "core/dag.h"
#include "sched/central_fifo_scheduler.h"
#include "sched/priority_scheduler.h"
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

TEST(Pdf, AlwaysReturnsEarliestSequentialTask) {
  PriorityScheduler s;
  auto dag = chain(1);
  s.reset(dag, 4);
  const TaskId ready[] = {7, 3, 9, 1};
  s.enqueue_ready(0, ready);
  EXPECT_EQ(s.acquire(2), 1u);
  EXPECT_EQ(s.acquire(0), 3u);
  const TaskId more[] = {2};
  s.enqueue_ready(1, more);
  EXPECT_EQ(s.acquire(3), 2u);
  EXPECT_EQ(s.acquire(3), 7u);
  EXPECT_EQ(s.acquire(3), 9u);
  EXPECT_EQ(s.acquire(3), kNoTask);
  EXPECT_TRUE(s.empty());
}

TEST(Pdf, ResetClears) {
  PriorityScheduler s;
  auto dag = chain(1);
  s.reset(dag, 1);
  const TaskId ready[] = {5};
  s.enqueue_ready(0, ready);
  s.reset(dag, 1);
  EXPECT_EQ(s.acquire(0), kNoTask);
}

TEST(Ws, LocalLifoOrder) {
  WsScheduler s;
  auto dag = chain(1);
  s.reset(dag, 2);
  const TaskId ready[] = {10, 11, 12};  // spawn order
  s.enqueue_ready(0, ready);
  // Own pops come from the top: first spawned child first (Cilk
  // child-first: reverse-pushed so 10 is on top).
  EXPECT_EQ(s.acquire(0), 10u);
  EXPECT_EQ(s.acquire(0), 11u);
  EXPECT_EQ(s.acquire(0), 12u);
  EXPECT_EQ(s.steal_count(), 0u);
}

TEST(Ws, StealsFromBottom) {
  WsScheduler s;
  auto dag = chain(1);
  s.reset(dag, 3);
  const TaskId ready[] = {10, 11, 12};
  s.enqueue_ready(0, ready);
  // Core 1 steals the *bottom* (oldest = last spawned after reverse push).
  EXPECT_EQ(s.acquire(1), 12u);
  EXPECT_EQ(s.acquire(2), 11u);
  EXPECT_EQ(s.steal_count(), 2u);
  EXPECT_EQ(s.acquire(0), 10u);
  EXPECT_EQ(s.steal_count(), 2u);  // own pop is not a steal
}

TEST(Ws, StealScanOrderStartsAtNextCore) {
  WsScheduler s;
  auto dag = chain(1);
  s.reset(dag, 4);
  const TaskId on2[] = {20};
  const TaskId on3[] = {30};
  s.enqueue_ready(2, on2);
  s.enqueue_ready(3, on3);
  // Core 1 scans 2, 3, 0: finds core 2's task first.
  EXPECT_EQ(s.acquire(1), 20u);
  // Core 0 scans 1, 2, 3: finds core 3's task.
  EXPECT_EQ(s.acquire(0), 30u);
}

TEST(Ws, EmptyReflectsAllDeques) {
  WsScheduler s;
  auto dag = chain(1);
  s.reset(dag, 2);
  EXPECT_TRUE(s.empty());
  const TaskId ready[] = {1};
  s.enqueue_ready(1, ready);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.acquire(0), 1u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.acquire(0), kNoTask);
}

TEST(Ws, DequeSizeDiagnostic) {
  WsScheduler s;
  auto dag = chain(1);
  s.reset(dag, 2);
  const TaskId ready[] = {1, 2, 3};
  s.enqueue_ready(1, ready);
  EXPECT_EQ(s.deque_size(1), 3u);
  EXPECT_EQ(s.deque_size(0), 0u);
}

TEST(Fifo, FirstComeFirstServed) {
  CentralFifoScheduler s;
  auto dag = chain(1);
  s.reset(dag, 2);
  const TaskId a[] = {5, 2};
  const TaskId b[] = {9};
  s.enqueue_ready(0, a);
  s.enqueue_ready(1, b);
  EXPECT_EQ(s.acquire(0), 5u);
  EXPECT_EQ(s.acquire(1), 2u);
  EXPECT_EQ(s.acquire(0), 9u);
  EXPECT_EQ(s.acquire(0), kNoTask);
}

TEST(AllSchedulers, NamesAreStable) {
  EXPECT_STREQ(PriorityScheduler().name(), "pdf");
  EXPECT_STREQ(WsScheduler().name(), "ws");
  EXPECT_STREQ(CentralFifoScheduler().name(), "fifo");
}

}  // namespace
}  // namespace cachesched
