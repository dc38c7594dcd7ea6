// DAGs on which the engine's run-ahead breaks causality, or looks as if
// it did, so that the run repeats exactly. engine_test pins their
// results; oracle_test holds them to the oracle.
#pragma once

#include <cstdint>
#include <random>

#include "core/dag.h"
#include "simarch/config.h"

namespace cachesched::runahead_dags {

/// 8-line L1s, a 64-line L2 and zero dispatch cost.
inline CmpConfig tiny_config(int cores) {
  CmpConfig c;
  c.name = "tiny";
  c.cores = cores;
  c.l1_bytes = 1024;  // 8 lines
  c.l1_ways = 2;
  c.l2_bytes = 8192;  // 64 lines
  c.l2_ways = 4;
  c.l2_hit_cycles = 10;
  c.line_bytes = 128;
  c.mem_latency_cycles = 300;
  c.mem_service_cycles = 30;
  c.task_dispatch_cycles = 0;
  return c;
}

/// Random reads and writes over 512 shared lines by 20 forked tasks.
inline TaskDag random_sharing() {
  DagBuilder b;
  const TaskId root = b.add_task({}, {RefBlock::compute(10)});
  for (int i = 0; i < 20; ++i) {
    b.add_task({root}, {RefBlock::random_ref(0, 1 << 16, 50, i, i % 2, 3)});
  }
  return b.finish();
}

/// Core 0 writes line 0 at cycle 500 while core 1 re-reads it, an L1 hit
/// every 8 cycles from cycle 307.
inline TaskDag hit_past_a_write() {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(500),
                  RefBlock::stride_ref(0, 1, 128, true, 1)});
  b.add_task({}, {RefBlock::stride_ref(0, 50, 0, false, 8)});
  return b.finish();
}

/// Core 1's last read of line 0 is an L1 hit at cycle 500, the cycle in
/// which core 0 writes the line.
inline TaskDag same_cycle_hit() {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(500),
                  RefBlock::stride_ref(0, 1, 128, true, 1)});
  b.add_task({}, {RefBlock::stride_ref(0, 202, 0, false, 1),
                  RefBlock::compute(1000)});
  return b.finish();
}

/// On 3 cores: core 1 hits line 0 at cycle 1000, then core 2 completes
/// at 1000 and its second child, on idle core 0, writes line 0 at 1000.
inline TaskDag zero_dispatch_fork() {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1)});
  b.add_task({}, {RefBlock::stride_ref(0, 2000, 0, false, 1)});
  const TaskId a = b.add_task({}, {RefBlock::compute(1000)});
  for (int i = 0; i < 2; ++i) {
    b.add_task({a}, {RefBlock::stride_ref(0, 1, 128, true, 1)});
  }
  return b.finish();
}

/// Seeded variants of zero_dispatch_fork on `cores` cores: core 0 idles
/// early, the middle cores read one of two lines every cycle, and the
/// last core forks one child per core, each first writing one of the
/// lines.
inline TaskDag same_cycle_forks(int cores, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto line = [&rng] { return (rng() % 2) * 128; };
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1 + rng() % 50)});
  for (int i = 1; i < cores - 1; ++i) {
    const auto refs = static_cast<uint32_t>(300 + rng() % 2000);
    b.add_task({}, {RefBlock::stride_ref(line(), refs, 0, false, 1)});
  }
  const TaskId f = b.add_task({}, {RefBlock::compute(300 + rng() % 1500)});
  for (int i = 0; i < cores; ++i) {
    const auto refs = static_cast<uint32_t>(1 + rng() % 8);
    b.add_task({f}, {RefBlock::stride_ref(line(), refs, 0, true, 1),
                     RefBlock::compute(1 + rng() % 50)});
  }
  return b.finish();
}

}  // namespace cachesched::runahead_dags
