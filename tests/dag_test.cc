#include <gtest/gtest.h>

#include <cstdint>

#include "core/dag.h"
#include "harness/apps.h"
#include "harness/workload_registry.h"

namespace cachesched {
namespace {

RefBlock work(uint64_t instr) { return RefBlock::compute(instr); }

TEST(DagBuilder, LinearChain) {
  DagBuilder b;
  const TaskId t0 = b.add_task({}, {work(10)});
  const TaskId t1 = b.add_task({t0}, {work(20)});
  const TaskId t2 = b.add_task({t1}, {work(30)});
  auto dag = b.finish();
  EXPECT_EQ(dag.validate(), "");
  EXPECT_EQ(dag.num_tasks(), 3u);
  EXPECT_EQ(dag.roots(), std::vector<TaskId>{t0});
  EXPECT_EQ(dag.total_work(), 60u);
  EXPECT_EQ(dag.weighted_depth(), 60u);
  EXPECT_EQ(dag.node_depth(), 3u);
  ASSERT_EQ(dag.children(t0).size(), 1u);
  EXPECT_EQ(dag.children(t0)[0], t1);
  EXPECT_EQ(dag.children(t2).size(), 0u);
  EXPECT_EQ(dag.task(t1).num_parents, 1u);
}

TEST(DagBuilder, ForkJoinDepth) {
  DagBuilder b;
  const TaskId fork = b.add_task({}, {work(1)});
  const TaskId a = b.add_task({fork}, {work(100)});
  const TaskId c = b.add_task({fork}, {work(5)});
  const TaskId join = b.add_task({a, c}, {work(1)});
  auto dag = b.finish();
  EXPECT_EQ(dag.validate(), "");
  EXPECT_EQ(dag.weighted_depth(), 1u + 100u + 1u);
  EXPECT_EQ(dag.node_depth(), 3u);
  EXPECT_EQ(dag.task(join).num_parents, 2u);
  // Children listed in spawn order.
  ASSERT_EQ(dag.children(fork).size(), 2u);
  EXPECT_EQ(dag.children(fork)[0], a);
  EXPECT_EQ(dag.children(fork)[1], c);
}

TEST(DagBuilder, MultipleRoots) {
  DagBuilder b;
  const TaskId r0 = b.add_task({}, {work(1)});
  const TaskId r1 = b.add_task({}, {work(1)});
  b.add_task({r0, r1}, {work(1)});
  auto dag = b.finish();
  EXPECT_EQ(dag.validate(), "");
  EXPECT_EQ(dag.roots(), (std::vector<TaskId>{r0, r1}));
}

TEST(DagBuilder, RejectsBackwardEdge) {
  DagBuilder b;
  b.add_task({}, {work(1)});
  EXPECT_THROW(b.add_task({5}, {work(1)}), std::invalid_argument);
}

TEST(DagBuilder, RejectsSelfEdge) {
  DagBuilder b;
  b.add_task({}, {work(1)});
  // Task 1 depending on itself (id 1 == next id).
  EXPECT_THROW(b.add_task({1}, {work(1)}), std::invalid_argument);
}

TEST(DagBuilder, FinishTwiceThrows) {
  DagBuilder b;
  b.add_task({}, {work(1)});
  b.finish();
  EXPECT_THROW(b.finish(), std::logic_error);
}

TEST(DagBuilder, Groups) {
  DagBuilder b;
  const GroupId outer = b.begin_group("f.cc", 10, 100);
  b.add_task({}, {work(1)});
  const GroupId inner = b.begin_group("f.cc", 20, 50);
  b.add_task({}, {work(1)});
  b.add_task({}, {work(1)});
  b.end_group();
  b.add_task({}, {work(1)});
  b.end_group();
  auto dag = b.finish();
  EXPECT_EQ(dag.validate(), "");
  ASSERT_EQ(dag.num_groups(), 2u);
  const TaskGroup& og = dag.group(outer);
  const TaskGroup& ig = dag.group(inner);
  EXPECT_EQ(og.first_task, 0u);
  EXPECT_EQ(og.last_task, 3u);
  EXPECT_EQ(ig.first_task, 1u);
  EXPECT_EQ(ig.last_task, 2u);
  EXPECT_EQ(ig.parent, outer);
  ASSERT_EQ(dag.group_children(outer).size(), 1u);
  EXPECT_EQ(dag.group_children(outer)[0], inner);
  EXPECT_TRUE(dag.group_children(inner).empty());
  EXPECT_EQ(og.param, 100);
  EXPECT_EQ(ig.line, 20);
  EXPECT_EQ(dag.task(0).group, outer);
  EXPECT_EQ(dag.task(1).group, inner);
  EXPECT_EQ(dag.task(3).group, outer);
}

TEST(DagBuilder, EmptyGroupThrows) {
  DagBuilder b;
  b.begin_group("f.cc", 1, 1);
  EXPECT_THROW(b.end_group(), std::logic_error);
}

TEST(DagBuilder, UnclosedGroupThrows) {
  DagBuilder b;
  b.begin_group("f.cc", 1, 1);
  b.add_task({}, {work(1)});
  EXPECT_THROW(b.finish(), std::logic_error);
}

TEST(DagBuilder, EndWithoutBeginThrows) {
  DagBuilder b;
  EXPECT_THROW(b.end_group(), std::logic_error);
}

TEST(DagBuilder, TaskIdsAreSequentialOrder) {
  DagBuilder b;
  for (int i = 0; i < 10; ++i) {
    if (i == 0) {
      b.add_task({}, {work(1)});
    } else {
      b.add_task({static_cast<TaskId>(i - 1)}, {work(1)});
    }
  }
  auto dag = b.finish();
  for (TaskId t = 0; t < 10; ++t) {
    for (TaskId c : dag.children(t)) EXPECT_GT(c, t);
  }
}

TEST(DagBuilder, RefAccounting) {
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 5, 128, false, 2), work(10)});
  auto dag = b.finish();
  EXPECT_EQ(dag.total_refs(), 5u);
  EXPECT_EQ(dag.total_work(), 20u);
  EXPECT_EQ(dag.task(0).work, 20u);
  EXPECT_EQ(dag.blocks(0).size(), 2u);
}

TEST(DagBuilder, CursorMatchesBlocks) {
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0x100, 3, 128, true, 1)});
  auto dag = b.finish();
  TraceCursor c = dag.cursor(0);
  int n = 0;
  for (TraceOp op = c.next(); op.kind != TraceOp::kDone; op = c.next()) {
    EXPECT_EQ(op.addr, 0x100u + 128u * n);
    ++n;
  }
  EXPECT_EQ(n, 3);
}

// memory_stats() backs `cachesched_cli memory` and perfbench's
// harness.dag_mb: every component covers at least its records, total()
// adds them up, and two builds of one workload report the same bytes.
TEST(DagMemory, StatsCoverTheRecordsAndRepeat) {
  static_assert(sizeof(PackedRef) == 32);
  const auto expect_covered = [](const TaskDag& dag) {
    uint64_t blocks = 0;
    uint64_t edges = dag.roots().size();
    for (TaskId t = 0; t < dag.num_tasks(); ++t) {
      blocks += dag.blocks(t).size();
      edges += dag.children(t).size();
    }
    uint64_t group_bytes = dag.num_groups() * sizeof(TaskGroup);
    for (GroupId g = 0; g < dag.num_groups(); ++g) {
      group_bytes += dag.group_children(g).size() * sizeof(GroupId);
    }
    const TaskDag::MemoryStats m = dag.memory_stats();
    EXPECT_GE(m.trace_arena_bytes, blocks * sizeof(PackedRef));
    EXPECT_GE(m.task_bytes, dag.num_tasks() * sizeof(Task));
    EXPECT_GE(m.edge_bytes, edges * sizeof(TaskId));
    EXPECT_GE(m.group_bytes, group_bytes);
    EXPECT_EQ(m.total(), m.trace_arena_bytes + m.task_bytes + m.edge_bytes +
                             m.group_bytes);
  };
  // Exactly 1024 groups, so the group vector has no spare capacity that
  // could hide a missing per-group children term.
  DagBuilder b;
  b.begin_group("root", 1, 0);
  for (int i = 0; i < 1023; ++i) {
    b.begin_group("leaf", 2, i);
    b.add_task({}, {work(1)});
    b.end_group();
  }
  b.end_group();
  expect_covered(b.finish());

  const CmpConfig cfg = default_config(8).scaled(0.03125);
  AppOptions opt;
  opt.scale = 0.03125;
  for (const char* app : {"mergesort", "hashjoin"}) {
    SCOPED_TRACE(app);
    const Workload w = make_workload(app, cfg, opt);
    expect_covered(w.dag);
    const TaskDag::MemoryStats m = w.dag.memory_stats();
    const TaskDag::MemoryStats again =
        make_workload(app, cfg, opt).dag.memory_stats();
    EXPECT_EQ(again.trace_arena_bytes, m.trace_arena_bytes);
    EXPECT_EQ(again.task_bytes, m.task_bytes);
    EXPECT_EQ(again.edge_bytes, m.edge_bytes);
    EXPECT_EQ(again.group_bytes, m.group_bytes);
  }
}

}  // namespace
}  // namespace cachesched
