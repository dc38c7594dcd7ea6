// Quickstart: build a computation DAG by hand, run it on a simulated CMP
// under both schedulers, and read the results.
//
//   $ ./quickstart
//
// The DAG below is a caricature of constructive cache sharing: a producer
// writes a buffer, then eight consumers re-read it while eight unrelated
// scanners stream private data. PDF runs the sequentially-earliest tasks —
// all eight consumers in parallel, sharing the hot buffer in the L2 — and
// only then the scanners. WS gives one core the consumer chain and spreads
// the other cores over the bandwidth-hungry scanners, serializing the
// shared-buffer work.
#include <cstdio>

#include "core/dag.h"
#include "sched/priority_scheduler.h"
#include "sched/ws_scheduler.h"
#include "simarch/config.h"
#include "simarch/engine.h"
#include "util/cli.h"

using namespace cachesched;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  if (const int rc = args.check_unused()) return rc;
  DagBuilder builder;

  // one producer writes a 4 MB buffer...
  constexpr uint64_t kBufLines = 32768;  // 4 MB of 128 B lines
  const TaskId producer = builder.add_task(
      {}, {RefBlock::stride_ref(0, kBufLines, 128, /*write=*/true, 8)});

  // ...eight consumers each re-read all of it (overlapping working sets),
  // and eight scanners stream disjoint 4 MB regions (disjoint working
  // sets). Sequential order: consumers first — PDF will track that.
  for (int i = 0; i < 8; ++i) {
    const TaskId deps[] = {producer};
    const RefBlock blocks[] = {
        RefBlock::stride_ref(0, kBufLines, 128, false, 8)};
    builder.add_task(std::span<const TaskId>(deps, 1),
                     std::span<const RefBlock>(blocks, 1));
  }
  for (int i = 0; i < 8; ++i) {
    const uint64_t base = (2 + i) * kBufLines * 128;
    const TaskId deps[] = {producer};
    const RefBlock blocks[] = {
        RefBlock::stride_ref(base, kBufLines, 128, false, 8)};
    builder.add_task(std::span<const TaskId>(deps, 1),
                     std::span<const RefBlock>(blocks, 1));
  }
  const TaskDag dag = builder.finish();

  // An 8-core CMP from the paper's Table 2 (65nm, 8 MB shared L2).
  const CmpConfig cfg = default_config(8);
  std::printf("config: %s\n", cfg.describe().c_str());
  std::printf("dag:    %zu tasks, %llu instructions, %llu references\n\n",
              dag.num_tasks(),
              static_cast<unsigned long long>(dag.total_work()),
              static_cast<unsigned long long>(dag.total_refs()));

  for (int use_ws = 0; use_ws < 2; ++use_ws) {
    PriorityScheduler pdf;  // its default order is PDF
    WsScheduler ws;
    Scheduler& sched = use_ws ? static_cast<Scheduler&>(ws) : pdf;
    CmpSimulator sim(cfg);
    const SimResult r = sim.run(dag, sched);
    std::printf("%-4s cycles=%-12llu L2 misses=%-8llu misses/1K instr=%.3f "
                "bw=%.1f%% steals=%llu\n",
                r.scheduler.c_str(),
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(r.l2_misses),
                r.l2_misses_per_kilo_instr(),
                100.0 * r.mem_bandwidth_utilization(),
                static_cast<unsigned long long>(r.steals));
  }
  std::printf(
      "\nPDF runs all consumers in parallel over the hot shared buffer, then "
      "the\nscanners; WS serializes the consumers on the spawning core while "
      "the\nthieves run scanners — same cold misses, worse completion "
      "time.\n");
  return 0;
}
