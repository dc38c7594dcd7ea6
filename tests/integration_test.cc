// End-to-end integration tests: miniature versions of the paper's
// experiments asserting the qualitative relationships the full artifacts
// reproduce. Small scales keep these fast; `cachesched_cli paper` runs the
// full-size sweeps.
#include <gtest/gtest.h>

#include "coarsen/coarsen.h"
#include "harness/apps.h"
#include "profile/ws_profiler.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

constexpr double kScale = 0.03125;  // 1/32 of paper sizes

struct Pair {
  SimResult pdf, ws;
};

Pair run_pair(const std::string& app, int cores, double scale = kScale) {
  const CmpConfig cfg = default_config(cores).scaled(scale);
  AppOptions opt;
  opt.scale = scale;
  const Workload w = make_app(app, cfg, opt);
  return {simulate_app(w, cfg, "pdf"), simulate_app(w, cfg, "ws")};
}

TEST(Integration, Fig2MergesortPdfBeatsWsAt16Cores) {
  const Pair r = run_pair("mergesort", 16);
  EXPECT_LT(r.pdf.l2_misses, r.ws.l2_misses);
  EXPECT_LT(r.pdf.cycles, r.ws.cycles);
  // Relative speedup in a plausible band (paper: 1.03-1.19 at 2-32 cores;
  // scaled runs land near or somewhat above the top).
  const double rel = static_cast<double>(r.ws.cycles) /
                     static_cast<double>(r.pdf.cycles);
  EXPECT_GT(rel, 1.0);
  EXPECT_LT(rel, 3.0);
}

TEST(Integration, Fig2HashJoinPdfReducesMisses) {
  const Pair r = run_pair("hashjoin", 16);
  const double red = 1.0 - static_cast<double>(r.pdf.l2_misses) /
                               static_cast<double>(r.ws.l2_misses);
  EXPECT_GT(red, 0.05);  // paper: 13.2-38.5%
  EXPECT_LT(r.pdf.cycles, r.ws.cycles);
}

TEST(Integration, Fig2LuSchedulersTie) {
  const Pair r = run_pair("lu", 8);
  // Paper: "absolute speedups are practically the same" — within 15%.
  const double rel = static_cast<double>(r.ws.cycles) /
                     static_cast<double>(r.pdf.cycles);
  EXPECT_GT(rel, 0.85);
  EXPECT_LT(rel, 1.25);
}

TEST(Integration, SmallWorkingSetClassTies) {
  for (const char* app : {"matmul", "heat"}) {
    const Pair r = run_pair(app, 8);
    const double rel = static_cast<double>(r.ws.cycles) /
                       static_cast<double>(r.pdf.cycles);
    EXPECT_GT(rel, 0.8) << app;
    EXPECT_LT(rel, 1.3) << app;
  }
}

TEST(Integration, HashJoinBandwidthBoundAtManyCores) {
  const Pair r16 = run_pair("hashjoin", 16);
  // Paper §5.1: 89.5-97.3% utilization at 16-32 cores.
  EXPECT_GT(r16.ws.mem_bandwidth_utilization(), 0.8);
  EXPECT_GT(r16.pdf.mem_bandwidth_utilization(), 0.8);
}

TEST(Integration, MergesortNotBandwidthBoundUnder16Cores) {
  const Pair r = run_pair("mergesort", 8);
  EXPECT_LT(r.pdf.mem_bandwidth_utilization(), 0.75);
}

TEST(Integration, Fig6FinerTasksImprovePdfNotWs) {
  const int cores = 16;
  const CmpConfig cfg = default_config(cores).scaled(kScale);
  auto run_ws_size = [&](uint64_t ws_bytes, const char* sched) {
    AppOptions opt;
    opt.scale = kScale;
    opt.mergesort_task_ws = ws_bytes;
    const Workload w = make_app("mergesort", cfg, opt);
    return simulate_app(w, cfg, sched);
  };
  const uint64_t coarse = 256 * 1024, fine = 8 * 1024;
  const double pdf_gain =
      run_ws_size(coarse, "pdf").l2_misses_per_kilo_instr() /
      run_ws_size(fine, "pdf").l2_misses_per_kilo_instr();
  const double ws_gain =
      run_ws_size(coarse, "ws").l2_misses_per_kilo_instr() /
      run_ws_size(fine, "ws").l2_misses_per_kilo_instr();
  EXPECT_GT(pdf_gain, 1.3);        // PDF improves markedly with finer tasks
  EXPECT_LT(ws_gain, pdf_gain);    // WS is comparatively flat
}

TEST(Integration, Fig4PdfOnSlowL2BeatsWsOnFastL2) {
  const int cores = 16;
  CmpConfig slow = default_config(cores).scaled(kScale);
  slow.l2_hit_cycles = 19;
  CmpConfig fast = slow;
  fast.l2_hit_cycles = 7;
  AppOptions opt;
  opt.scale = kScale;
  const Workload w = make_app("hashjoin", slow, opt);
  const uint64_t pdf_slow = simulate_app(w, slow, "pdf").cycles;
  const uint64_t ws_fast = simulate_app(w, fast, "ws").cycles;
  EXPECT_LT(pdf_slow, ws_fast);
}

TEST(Integration, Fig5PdfAdvantagePersistsAcrossLatency) {
  const int cores = 16;
  for (int lat : {100, 700}) {
    CmpConfig cfg = default_config(cores).scaled(kScale);
    cfg.mem_latency_cycles = lat;
    AppOptions opt;
    opt.scale = kScale;
    const Workload w = make_app("hashjoin", cfg, opt);
    EXPECT_LT(simulate_app(w, cfg, "pdf").cycles,
              simulate_app(w, cfg, "ws").cycles)
        << "latency " << lat;
  }
}

TEST(Integration, CoarseGrainedOriginalsAreSlower) {
  // §5.4: the fine-grained rewrites are up to 2.85x faster than the
  // coarse originals (here: hash join with one task per sub-partition).
  const int cores = 16;
  const CmpConfig cfg = default_config(cores).scaled(kScale);
  AppOptions fine;
  fine.scale = kScale;
  AppOptions coarse = fine;
  coarse.fine_grained = false;
  const Workload wf = make_app("hashjoin", cfg, fine);
  const Workload wc = make_app("hashjoin", cfg, coarse);
  const uint64_t tf = simulate_app(wf, cfg, "pdf").cycles;
  const uint64_t tc = simulate_app(wc, cfg, "pdf").cycles;
  EXPECT_GT(static_cast<double>(tc) / static_cast<double>(tf), 1.2);
}

TEST(Integration, Fig8AutomaticSelectionNearBest) {
  const int cores = 16;
  const CmpConfig cfg = default_config(cores).scaled(kScale);
  AppOptions fine;
  fine.scale = kScale;
  fine.mergesort_task_ws = 2048;
  const Workload w_fine = make_app("mergesort", cfg, fine);
  WorkingSetProfiler prof({cfg.l2_bytes}, cfg.line_bytes);
  prof.run(w_fine.dag);
  CoarsenParams cp;
  cp.cache_bytes = cfg.l2_bytes;
  cp.num_cores = cfg.cores;
  const CoarsenResult sel = select_task_granularity(w_fine.dag, prof, cp);
  const int64_t thr = sel.table.threshold(cfg.l2_bytes, cfg.cores,
                                          "workloads/mergesort.cc", 1);
  ASSERT_GT(thr, 0);
  AppOptions actual;
  actual.scale = kScale;
  actual.mergesort_task_ws = static_cast<uint64_t>(thr) * 2 * 4;
  const Workload w_act = make_app("mergesort", cfg, actual);
  const uint64_t t_act = simulate_app(w_act, cfg, "pdf").cycles;
  // Manual selection of §5.
  AppOptions manual;
  manual.scale = kScale;
  const Workload w_man = make_app("mergesort", cfg, manual);
  const uint64_t t_man = simulate_app(w_man, cfg, "pdf").cycles;
  // Paper: within 5% of best; allow 15% slack at 1/32 scale.
  EXPECT_LT(static_cast<double>(t_act),
            1.15 * static_cast<double>(t_man));
}

TEST(Integration, SequentialBaselineSchedulerIndependent) {
  // On one core, PDF (earliest sequential task) and WS (depth-first own
  // deque) both reduce to the sequential 1DF execution. FIFO does not —
  // a central queue on one core runs breadth-first — which is exactly why
  // the harness uses PDF for the sequential baseline.
  const CmpConfig cfg = default_config(8).scaled(kScale);
  AppOptions opt;
  opt.scale = kScale;
  const Workload w = make_app("mergesort", cfg, opt);
  CmpConfig one = cfg;
  one.cores = 1;
  const uint64_t a = simulate_app(w, one, "pdf").cycles;
  const uint64_t b = simulate_app(w, one, "ws").cycles;
  const uint64_t c = simulate_app(w, one, "fifo").cycles;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // breadth-first order loses sequential locality
}

TEST(Integration, SpeedupsAreMonotonicallyReasonable) {
  // Mergesort speedup grows with cores (paper Figure 2(e)).
  double prev = 0;
  for (int cores : {2, 8, 32}) {
    const CmpConfig cfg = default_config(cores).scaled(kScale);
    AppOptions opt;
    opt.scale = kScale;
    const Workload w = make_app("mergesort", cfg, opt);
    const SimResult seq = simulate_sequential(w, cfg);
    const double sp = simulate_app(w, cfg, "pdf").speedup_over(seq);
    EXPECT_GT(sp, prev);
    EXPECT_LT(sp, cores + 0.5);
    prev = sp;
  }
}

}  // namespace
}  // namespace cachesched
