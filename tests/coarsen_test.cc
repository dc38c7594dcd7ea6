#include <gtest/gtest.h>

#include <memory>

#include "coarsen/coarsen.h"
#include "profile/ws_profiler.h"
#include "sched/priority_scheduler.h"
#include "simarch/engine.h"
#include "workloads/mergesort.h"

namespace cachesched {
namespace {

Workload small_sort(uint64_t task_ws = 2 * 1024) {
  MergesortParams p;
  p.num_elems = 1 << 13;
  p.l2_bytes = 32 * 1024;
  p.task_ws_bytes = task_ws;
  return build_mergesort(p);
}

WorkingSetProfiler profile(const TaskDag& dag, uint64_t size) {
  WorkingSetProfiler prof({size}, 128);
  prof.run(dag);
  return prof;
}

TEST(Coarsen, BudgetFormula) {
  CoarsenParams p;
  p.cache_bytes = 1 << 20;
  p.num_cores = 8;
  EXPECT_EQ(p.budget_bytes(), (1u << 20) / 16);
}

TEST(Coarsen, StoppingGroupsAreMaximalAndWithinBudget) {
  const Workload w = small_sort();
  auto prof = profile(w.dag, 1 << 20);
  CoarsenParams cp;
  cp.cache_bytes = 32 * 1024;
  cp.num_cores = 4;
  const CoarsenResult r = select_task_granularity(w.dag, prof, cp);
  ASSERT_FALSE(r.stopping_groups.empty());
  for (GroupId g : r.stopping_groups) {
    // Within budget...
    EXPECT_LE(prof.working_set_bytes(w.dag, g), r.budget_bytes);
    // ...and maximal: the parent (if any) exceeds it.
    const GroupId parent = w.dag.group(g).parent;
    if (parent != kNoGroup) {
      EXPECT_GT(prof.working_set_bytes(w.dag, parent), r.budget_bytes);
    }
  }
}

TEST(Coarsen, StoppingGroupsAreDisjointAndOrdered) {
  const Workload w = small_sort();
  auto prof = profile(w.dag, 1 << 20);
  CoarsenParams cp;
  cp.cache_bytes = 32 * 1024;
  cp.num_cores = 4;
  const CoarsenResult r = select_task_granularity(w.dag, prof, cp);
  TaskId prev_end = 0;
  bool first = true;
  for (GroupId g : r.stopping_groups) {
    const TaskGroup& grp = w.dag.group(g);
    if (!first) EXPECT_GT(grp.first_task, prev_end);
    prev_end = grp.last_task;
    first = false;
  }
}

TEST(Coarsen, SmallerBudgetMeansFinerStops) {
  const Workload w = small_sort();
  auto prof = profile(w.dag, 1 << 20);
  CoarsenParams big;
  big.cache_bytes = 64 * 1024;
  big.num_cores = 2;
  CoarsenParams small;
  small.cache_bytes = 64 * 1024;
  small.num_cores = 16;
  const auto rb = select_task_granularity(w.dag, prof, big);
  const auto rs = select_task_granularity(w.dag, prof, small);
  EXPECT_LE(rb.stopping_groups.size(), rs.stopping_groups.size());
}

TEST(Coarsen, ThresholdTableSemantics) {
  const Workload w = small_sort();
  auto prof = profile(w.dag, 1 << 20);
  CoarsenParams cp;
  cp.cache_bytes = 32 * 1024;
  cp.num_cores = 4;
  const CoarsenResult r = select_task_granularity(w.dag, prof, cp);
  const int64_t thr = r.table.threshold(cp.cache_bytes, cp.num_cores,
                                        "workloads/mergesort.cc", 1);
  ASSERT_GT(thr, 0);
  // Figure 7(a) semantics: parallelize above the threshold.
  EXPECT_TRUE(r.table.parallelize(cp.cache_bytes, cp.num_cores,
                                  "workloads/mergesort.cc", 1, thr + 1));
  EXPECT_FALSE(r.table.parallelize(cp.cache_bytes, cp.num_cores,
                                   "workloads/mergesort.cc", 1, thr));
  // Unknown call sites default to parallel (finest grain).
  EXPECT_TRUE(r.table.parallelize(cp.cache_bytes, cp.num_cores, "other.cc",
                                  99, 1));
  EXPECT_EQ(r.table.threshold(cp.cache_bytes, cp.num_cores, "other.cc", 99),
            -1);
}

TEST(Coarsen, CoarsenedDagPreservesWorkRefsAndValidity) {
  const Workload w = small_sort();
  auto prof = profile(w.dag, 1 << 20);
  CoarsenParams cp;
  cp.cache_bytes = 32 * 1024;
  cp.num_cores = 4;
  const CoarsenResult r = select_task_granularity(w.dag, prof, cp);
  const TaskDag c = coarsen_dag(w.dag, r.stopping_groups);
  EXPECT_EQ(c.validate(), "");
  EXPECT_LT(c.num_tasks(), w.dag.num_tasks());
  EXPECT_EQ(c.total_work(), w.dag.total_work());
  EXPECT_EQ(c.total_refs(), w.dag.total_refs());
}

TEST(Coarsen, CoarsenedDagPreservesSequentialTraceOrder) {
  // Expanding the coarsened DAG's tasks in id order must give exactly the
  // original sequential reference stream.
  const Workload w = small_sort(4 * 1024);
  auto prof = profile(w.dag, 1 << 20);
  CoarsenParams cp;
  cp.cache_bytes = 16 * 1024;
  cp.num_cores = 2;
  const CoarsenResult r = select_task_granularity(w.dag, prof, cp);
  const TaskDag c = coarsen_dag(w.dag, r.stopping_groups);
  auto stream = [](const TaskDag& dag) {
    std::vector<std::pair<uint64_t, bool>> refs;
    for (TaskId t = 0; t < dag.num_tasks(); ++t) {
      TraceCursor cur = dag.cursor(t);
      for (TraceOp op = cur.next(); op.kind != TraceOp::kDone;
           op = cur.next()) {
        if (op.kind == TraceOp::kMem) refs.emplace_back(op.addr, op.is_write);
      }
    }
    return refs;
  };
  EXPECT_EQ(stream(w.dag), stream(c));
}

// The coarsened DAG replays its source's trace arena in place (each task
// one contiguous run of it, no copy) and keeps it alive on its own.
TEST(Coarsen, CoarsenedDagSharesAndOutlivesTheSourceArena) {
  auto w = std::make_unique<Workload>(small_sort());
  auto prof = profile(w->dag, 1 << 20);
  CoarsenParams cp;
  cp.cache_bytes = 32 * 1024;
  cp.num_cores = 4;
  const CoarsenResult r = select_task_granularity(w->dag, prof, cp);
  const TaskDag c = coarsen_dag(w->dag, r.stopping_groups);
  ASSERT_LT(c.num_tasks(), w->dag.num_tasks());
  const PackedRef* arena = w->dag.blocks(0).data();
  const TaskId last = static_cast<TaskId>(w->dag.num_tasks() - 1);
  const PackedRef* arena_end =
      w->dag.blocks(last).data() + w->dag.blocks(last).size();
  const PackedRef* next = arena;
  for (TaskId t = 0; t < c.num_tasks(); ++t) {
    EXPECT_EQ(c.blocks(t).data(), next) << t;
    next += c.blocks(t).size();
  }
  EXPECT_EQ(next, arena_end);
  EXPECT_EQ(c.interleave_data(), w->dag.interleave_data());

  const CmpConfig cfg = default_config(4).scaled(0.03125);
  const auto simulate = [&cfg](const TaskDag& dag) {
    PriorityScheduler s;
    CmpSimulator sim(cfg);
    return sim.run(dag, s);
  };
  const SimResult before = simulate(c);
  w.reset();
  EXPECT_EQ(c.validate(), "");
  EXPECT_EQ(simulate(c), before);
}

TEST(Coarsen, WholeProgramBudgetCollapsesToOneTask) {
  const Workload w = small_sort();
  auto prof = profile(w.dag, 1 << 20);
  CoarsenParams cp;
  cp.cache_bytes = 1ull << 30;  // budget dwarfs the whole working set
  cp.num_cores = 1;
  cp.slack = 1.0;
  const CoarsenResult r = select_task_granularity(w.dag, prof, cp);
  ASSERT_EQ(r.stopping_groups.size(), 1u);
  EXPECT_EQ(r.stopping_groups[0], w.dag.root_group());
  const TaskDag c = coarsen_dag(w.dag, r.stopping_groups);
  EXPECT_EQ(c.num_tasks(), 1u);
}

TEST(Coarsen, OverlappingGroupsRejected) {
  const Workload w = small_sort();
  const GroupId root = w.dag.root_group();
  ASSERT_FALSE(w.dag.group_children(root).empty());
  const GroupId child = w.dag.group_children(root)[0];
  EXPECT_THROW(coarsen_dag(w.dag, {root, child}), std::invalid_argument);
}

TEST(Coarsen, ProfilerOfAnotherDagRejected) {
  // A profile of a smaller DAG has no entries for the larger DAG's later
  // tasks; selecting with it must fail before any query reads past them.
  const Workload small = small_sort(8 * 1024);
  const Workload fine = small_sort();
  ASSERT_LT(small.dag.num_tasks(), fine.dag.num_tasks());
  const auto prof = profile(small.dag, 1 << 20);
  CoarsenParams cp;
  cp.cache_bytes = 32 * 1024;
  cp.num_cores = 4;
  EXPECT_THROW(select_task_granularity(fine.dag, prof, cp),
               std::invalid_argument);
}

}  // namespace
}  // namespace cachesched
