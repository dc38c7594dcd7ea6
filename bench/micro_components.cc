// Component microbenchmarks (google-benchmark): throughput of the
// simulator's and profiler's hot paths. These guard the practicality
// claims — trace-driven simulation and one-pass profiling must sustain
// millions of references per second for the experiment suite to be
// runnable.
#include <benchmark/benchmark.h>

#include "core/dag.h"
#include "core/trace.h"
#include "profile/lru_stack.h"
#include "sched/pdf_scheduler.h"
#include "sched/ws_scheduler.h"
#include "simarch/cache.h"
#include "simarch/engine.h"
#include "util/rng.h"
#include "workloads/mergesort.h"

namespace cachesched {
namespace {

void BM_CacheAccess(benchmark::State& state) {
  SetAssocCache cache(4096, static_cast<int>(state.range(0)));
  Xoshiro256 rng(1);
  uint64_t hits = 0;
  for (auto _ : state) {
    const uint64_t line = rng.next_below(1 << 18);
    if (SetAssocCache::Line* e = cache.probe(line)) {
      cache.touch(e);
      ++hits;
    } else {
      cache.install(line, false, nullptr);
    }
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(4)->Arg(16)->Arg(28);

void BM_LruStackAccess(benchmark::State& state) {
  LruStackModel stack;
  Xoshiro256 rng(2);
  uint64_t sum = 0;
  for (auto _ : state) {
    const StackRef r = stack.access(rng.next_below(1 << 16), 0);
    sum += r.distance != StackRef::kColdDistance;
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStackAccess);

void BM_TraceCursorStride(benchmark::State& state) {
  std::vector<InterleaveSide> side;
  const PackedRef b =
      pack_ref(RefBlock::stride_ref(0, 1u << 20, 128, false, 4), &side);
  uint64_t sum = 0;
  for (auto _ : state) {
    TraceCursor c(&b, 1, side.data());
    for (TraceOp op = c.next(); op.kind != TraceOp::kDone; op = c.next()) {
      sum += op.addr;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * (1u << 20));
}
BENCHMARK(BM_TraceCursorStride);

void BM_TraceCursorInterleave(benchmark::State& state) {
  StreamRef s[3] = {{0, 1u << 16, false},
                    {1u << 30, 1u << 16, false},
                    {2u << 30, 1u << 17, true}};
  std::vector<InterleaveSide> side;
  const PackedRef b = pack_ref(RefBlock::interleave(s, 3, 128, 4), &side);
  uint64_t sum = 0;
  for (auto _ : state) {
    TraceCursor c(&b, 1, side.data());
    for (TraceOp op = c.next(); op.kind != TraceOp::kDone; op = c.next()) {
      sum += op.addr;
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * (1u << 18));
}
BENCHMARK(BM_TraceCursorInterleave);

void BM_SimulateMergesort(benchmark::State& state) {
  MergesortParams p;
  p.num_elems = 1 << 16;
  p.l2_bytes = 256 * 1024;
  p.task_ws_bytes = 16 * 1024;
  const Workload w = build_mergesort(p);
  CmpConfig cfg;
  cfg.cores = static_cast<int>(state.range(0));
  cfg.l1_bytes = 8 * 1024;
  cfg.l2_bytes = 256 * 1024;
  cfg.l2_ways = 16;
  cfg.name = "bm";
  for (auto _ : state) {
    CmpSimulator sim(cfg);
    const bool ws = state.range(1) != 0;
    std::unique_ptr<Scheduler> s;
    if (ws) {
      s = std::make_unique<WsScheduler>();
    } else {
      s = std::make_unique<PdfScheduler>();
    }
    const SimResult r = sim.run(w.dag, *s);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(state.iterations() * w.dag.total_refs());
}
BENCHMARK(BM_SimulateMergesort)
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cachesched

BENCHMARK_MAIN();
