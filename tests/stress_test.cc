// Stress and adversarial-shape tests: degenerate DAGs and cache geometries
// that the figure-level experiments never produce but the library must
// survive — wide fan-out, deep chains, single-line caches, zero-work
// programs, diamond dependence lattices.
#include <gtest/gtest.h>

#include "sched/central_fifo_scheduler.h"
#include "sched/priority_scheduler.h"
#include "sched/ws_scheduler.h"
#include "simarch/engine.h"
#include "util/rng.h"

namespace cachesched {
namespace {

CmpConfig minimal_config(int cores) {
  CmpConfig c;
  c.name = "minimal";
  c.cores = cores;
  c.l1_bytes = 128;  // one line
  c.l1_ways = 1;
  c.l2_bytes = 256;  // two lines
  c.l2_ways = 2;
  c.l2_hit_cycles = 5;
  c.task_dispatch_cycles = 0;
  return c;
}

template <typename Sched>
SimResult run(const TaskDag& dag, const CmpConfig& cfg) {
  Sched s;
  CmpSimulator sim(cfg);
  return sim.run(dag, s);
}

TEST(Stress, WideFanOutThousandsOfChildren) {
  DagBuilder b;
  const TaskId root = b.add_task({}, {RefBlock::compute(1)});
  for (int i = 0; i < 5000; ++i) {
    const TaskId deps[] = {root};
    const RefBlock blocks[] = {RefBlock::compute(10)};
    b.add_task(std::span<const TaskId>(deps, 1),
               std::span<const RefBlock>(blocks, 1));
  }
  const TaskDag dag = b.finish();
  for (int cores : {1, 7, 32}) {
    const SimResult r = run<WsScheduler>(dag, minimal_config(cores));
    EXPECT_EQ(r.tasks_executed, 5001u) << cores;
    // Perfectly divisible work: greedy bound within one task of ideal.
    EXPECT_LE(r.cycles, 1 + 10u * (5000 / cores + 1)) << cores;
  }
}

TEST(Stress, DeepChainTenThousand) {
  DagBuilder b;
  TaskId prev = b.add_task({}, {RefBlock::compute(1)});
  for (int i = 1; i < 10000; ++i) {
    const TaskId deps[] = {prev};
    const RefBlock blocks[] = {RefBlock::compute(1)};
    prev = b.add_task(std::span<const TaskId>(deps, 1),
                      std::span<const RefBlock>(blocks, 1));
  }
  const TaskDag dag = b.finish();
  EXPECT_EQ(dag.node_depth(), 10000u);
  const SimResult r = run<PriorityScheduler>(dag, minimal_config(16));
  EXPECT_EQ(r.cycles, 10000u);  // no parallelism to exploit
}

TEST(Stress, DiamondLattice) {
  // w x h lattice: task (i,j) depends on (i-1,j) and (i,j-1).
  constexpr int kW = 40, kH = 40;
  DagBuilder b;
  std::vector<TaskId> ids(kW * kH);
  for (int i = 0; i < kH; ++i) {
    for (int j = 0; j < kW; ++j) {
      std::vector<TaskId> deps;
      if (i > 0) deps.push_back(ids[(i - 1) * kW + j]);
      if (j > 0) deps.push_back(ids[i * kW + j - 1]);
      const RefBlock blocks[] = {RefBlock::compute(7)};
      ids[i * kW + j] =
          b.add_task(std::span<const TaskId>(deps.data(), deps.size()),
                     std::span<const RefBlock>(blocks, 1));
    }
  }
  const TaskDag dag = b.finish();
  EXPECT_EQ(dag.validate(), "");
  EXPECT_EQ(dag.node_depth(), kW + kH - 1u);
  for (int cores : {1, 8}) {
    for (auto make :
         {+[]() -> Scheduler* { return new PriorityScheduler; },
          +[]() -> Scheduler* { return new WsScheduler; },
          +[]() -> Scheduler* { return new CentralFifoScheduler; }}) {
      std::unique_ptr<Scheduler> s(make());
      CmpSimulator sim(minimal_config(cores));
      const SimResult r = sim.run(dag, *s);
      EXPECT_EQ(r.tasks_executed, uint64_t{kW} * kH) << s->name();
      // Span bound: at least the diagonal.
      EXPECT_GE(r.cycles, 7u * (kW + kH - 1));
    }
  }
}

TEST(Stress, SingleLineCachesStillCorrect) {
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, 100, 128, true, 1),
                  RefBlock::stride_ref(0, 100, 128, false, 1)});
  const TaskDag dag = b.finish();
  const SimResult r = run<PriorityScheduler>(dag, minimal_config(1));
  // 200 refs total; with a 2-line L2 the second pass misses again.
  EXPECT_EQ(r.total_refs(), 200u);
  EXPECT_GE(r.l2_misses, 198u);
  EXPECT_GT(r.writebacks, 0u);  // dirty lines displaced off-chip
}

TEST(Stress, AllZeroWorkTasks) {
  DagBuilder b;
  const TaskId root = b.add_task({}, {});
  for (int i = 0; i < 100; ++i) {
    const TaskId deps[] = {root};
    b.add_task(std::span<const TaskId>(deps, 1), std::span<const RefBlock>{});
  }
  const TaskDag dag = b.finish();
  const SimResult r = run<WsScheduler>(dag, minimal_config(4));
  EXPECT_EQ(r.tasks_executed, 101u);
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.instructions, 0u);
}

TEST(Stress, RandomDagsAllSchedulersAgreeOnWork) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    Xoshiro256 rng(seed);
    DagBuilder b;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
      std::vector<TaskId> deps;
      const int ndeps = i == 0 ? 0 : 1 + static_cast<int>(rng.next_below(3));
      for (int k = 0; k < ndeps && i > 0; ++k) {
        deps.push_back(static_cast<TaskId>(rng.next_below(i)));
      }
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      std::vector<RefBlock> blocks;
      blocks.push_back(RefBlock::random_ref(0, 64 * 1024,
                                            1 + rng.next_below(64),
                                            rng.next(), rng.next_below(2), 2));
      b.add_task(std::span<const TaskId>(deps.data(), deps.size()),
                 std::span<const RefBlock>(blocks.data(), blocks.size()));
    }
    const TaskDag dag = b.finish();
    ASSERT_EQ(dag.validate(), "");
    const CmpConfig cfg = minimal_config(8);
    const SimResult pdf = run<PriorityScheduler>(dag, cfg);
    const SimResult ws = run<WsScheduler>(dag, cfg);
    const SimResult fifo = run<CentralFifoScheduler>(dag, cfg);
    EXPECT_EQ(pdf.instructions, ws.instructions);
    EXPECT_EQ(ws.instructions, fifo.instructions);
    EXPECT_EQ(pdf.total_refs(), ws.total_refs());
    EXPECT_EQ(pdf.tasks_executed, 500u);
  }
}

TEST(Stress, ThirtyTwoCoreSaturatedChannel) {
  // 32 cores all streaming: channel must serialize ~everything and the
  // simulation must neither deadlock nor miscount.
  DagBuilder b;
  for (int i = 0; i < 32; ++i) {
    b.add_task({}, {RefBlock::stride_ref(uint64_t(i) << 24, 256, 128, false,
                                         1)});
  }
  const TaskDag dag = b.finish();
  CmpConfig cfg = minimal_config(32);
  const SimResult r = run<PriorityScheduler>(dag, cfg);
  EXPECT_EQ(r.l2_misses, 32u * 256u);
  // 8192 misses at 30-cycle service: the channel is the floor.
  EXPECT_GE(r.cycles, 8192u * 30u);
  EXPECT_GT(r.mem_bandwidth_utilization(), 0.95);
}

}  // namespace
}  // namespace cachesched
