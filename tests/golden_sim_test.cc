// Golden-output regression test for the simulator hot path.
//
// The fixtures below are the exact SimResult counters produced by the
// pre-optimization engine (commit 8d1d719: event-queue main loop,
// timestamp-LRU caches, per-op TraceCursor expansion) for a small
// app x scheduler x configuration matrix. The optimized engine must
// reproduce every counter byte-for-byte: the restructuring (run buffers,
// per-core event scan, fingerprint-probed caches, batched trace expansion)
// is required to change *nothing* about the simulated machine.
//
// If a change legitimately alters simulation semantics (not performance),
// regenerate the table by printing the same fields from a build at the
// old semantics and update this file in the same commit — never adjust a
// single row to make a failure go away.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/workload_registry.h"
#include "sched/registry.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

struct GoldenCase {
  const char* app;  // anything make_workload resolves (seed app, gen spec)
  const char* sched;
  int cores;
  double scale;
  int l2_banks;
  uint64_t task_ws;  // AppOptions::mergesort_task_ws (0 = auto)

  uint64_t cycles;
  uint64_t instructions;
  uint64_t tasks_executed;
  uint64_t l1_hits;
  uint64_t l2_hits;
  uint64_t l2_misses;
  uint64_t writebacks;
  uint64_t invalidations;
  uint64_t mem_stall_cycles;
  uint64_t mem_queue_cycles;
  uint64_t mem_busy_cycles;
  uint64_t steals;
  uint64_t busy_sum;       // sum of core_busy_cycles
  uint64_t task_miss_sum;  // sum of task_l2_misses
  uint64_t task_ref_sum;   // sum of task_refs
};

// Recorded from the pre-optimization engine; see file comment.
const GoldenCase kGolden[] = {
    {"mergesort", "pdf", 4, 0.03125, 0, 0,
     170274211, 436457232, 26365, 114676, 566672, 723066, 343555, 678,
     217785825, 866025, 31998630, 0, 661823211, 723066, 1404414},
    {"mergesort", "ws", 4, 0.03125, 0, 0,
     171113221, 436457232, 26365, 115453, 515165, 773796, 337151, 0,
     233269987, 1131187, 33328410, 508, 676741573, 773796, 1404414},
    {"mergesort", "fifo", 4, 0.03125, 0, 0,
     178832214, 436457232, 26365, 111511, 411765, 881138, 360401, 0,
     265189809, 848409, 37246170, 0, 707520053, 881138, 1404414},
    {"hashjoin", "pdf", 8, 0.03125, 0, 0,
     52497899, 128150158, 587, 68357, 309886, 904122, 443625, 0,
     285681505, 14444905, 40432410, 0, 416704873, 904122, 1282365},
    {"hashjoin", "ws", 8, 0.03125, 0, 0,
     56816697, 128150158, 587, 69470, 205070, 1007825, 442454, 0,
     321416577, 19069077, 43508370, 205, 451078450, 1007825, 1282365},
    {"lu", "pdf", 2, 0.03125, 0, 0,
     57349551, 89405440, 1976, 16640, 196864, 72704, 40192, 0,
     21816346, 5146, 3386880, 0, 113709050, 72704, 286208},
    {"lu", "ws", 2, 0.03125, 0, 0,
     60694367, 89405440, 1976, 16640, 174398, 95170, 28800, 0,
     28568235, 17235, 3719100, 31, 120168881, 95170, 286208},
    {"quicksort", "pdf", 4, 0.03125, 0, 0,
     49403191, 55760064, 191, 257612, 1096, 256496, 255345, 0,
     77470284, 521484, 15355230, 0, 133003912, 256496, 515204},
    {"matmul", "ws", 4, 0.03125, 0, 0,
     11605356, 33533344, 658, 0, 57344, 40960, 15872, 0,
     12288360, 360, 1704960, 3, 46419984, 40960, 98304},
    {"heat", "pdf", 4, 0.03125, 0, 0,
     49538239, 48254976, 176, 0, 1760, 500896, 247318, 0,
     150320380, 51580, 22446420, 0, 198109660, 500896, 502656},
    {"cholesky", "ws", 4, 0.03125, 0, 0,
     19226176, 48634880, 1111, 16640, 68295, 70713, 25425, 128,
     21357713, 143813, 2884140, 93, 70715930, 70713, 155648},
    // Distributed (banked) L2.
    {"mergesort", "pdf", 8, 0.03125, 8, 0,
     83887860, 433016592, 16125, 71359, 546699, 642996, 329914, 622,
     194871075, 1972275, 29187300, 0, 633230319, 642996, 1261054},
    // Recorded at exact interleaving (no run-ahead); run-ahead agrees.
    {"hashjoin", "ws", 4, 0.03125, 0, 0,
     106447460, 128227694, 684, 104050, 212690, 966966, 435290, 0,
     294546875, 4457075, 42067680, 134, 424002903, 966966, 1283706},
    // More cores than the app's parallelism at this size.
    {"mergesort", "ws", 16, 0.015625, 0, 0,
     26598868, 207480720, 6573, 39320, 78741, 468241, 242534, 1064,
     173826315, 33354015, 21323250, 2145, 382913432, 468241, 586302},
    // 2-stream interleave-heavy generated workload (dnc combine passes
    // are read_write interleaves): pins the two-stream interleave
    // schedule. Recorded from the engine at commit f101ea9.
    {"dnc:depth=7,fanout=3,ws=8K,share=0.2,seed=11", "pdf", 4, 0.03125, 0, 0,
     142962435, 21135104, 4373, 1036346, 459724, 1128330, 979259, 0,
     341639459, 3140459, 63227670, 0, 366680773, 1128330, 2624400},
    {"dnc:depth=7,fanout=3,ws=8K,share=0.2,seed=11", "ws", 4, 0.03125, 0, 0,
     136398967, 21135104, 4373, 1036326, 492756, 1095318, 979229, 0,
     330244924, 1649524, 62236410, 15, 355649570, 1095318, 2624400},
    // 3-stream interleave-heavy: a small task working set forces many
    // parallel merge chunks with uneven x/y/z line counts, pinning the
    // three-stream schedule and its fallback. Recorded at commit f101ea9.
    {"mergesort", "pdf", 4, 0.03125, 0, 4096,
     167469911, 438890256, 40701, 421292, 392286, 679924, 341792, 21216,
     204869927, 892727, 30651480, 0, 651073219, 679924, 1493502},
    {"mergesort", "ws", 8, 0.03125, 0, 4096,
     85158868, 434417424, 26365, 403456, 168694, 734984, 347663, 0,
     223721108, 3225908, 32479410, 1380, 662064376, 734984, 1307134},
    // Scheduler zoo (PR 8): one spec-parameterized config per new policy
    // family, recorded from the serial engine at the commit introducing
    // them. These pin the parameterized stealing paths (randomized
    // victims + steal-half), the banked-L2 affinity victim order, the
    // priority keys and the cfb admission throttle.
    {"mergesort", "ws:victims=rand,steal=half,seed=7", 4, 0.03125, 0, 0,
     171125023, 436457232, 26365, 115453, 515171, 773790, 337151, 0,
     233260733, 1123733, 33328230, 25, 676732385, 773790, 1404414},
    {"mergesort", "aff:steal=half", 8, 0.03125, 8, 0,
     85434762, 433016592, 16125, 74181, 457691, 729182, 340324, 0,
     221652097, 2897497, 32085180, 187, 659213844, 729182, 1261054},
    {"hashjoin", "prio:key=work,order=max", 8, 0.03125, 0, 0,
     54860495, 128150158, 587, 68417, 244103, 969845, 443714, 0,
     305409942, 14456442, 42406770, 0, 435578191, 969845, 1282365},
    {"mergesort", "cfb:budget=0.5", 8, 0.03125, 0, 0,
     109422135, 433016592, 16125, 71270, 601613, 588171, 320241, 576,
     177894127, 1442827, 27252360, 0, 619154404, 588171, 1261054},
};

class GoldenSim : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenSim, MatchesPreOptimizationEngine) {
  const GoldenCase& g = GetParam();
  CmpConfig cfg = default_config(g.cores).scaled(g.scale);
  cfg.l2_banks = g.l2_banks;
  AppOptions opt;
  opt.scale = g.scale;
  opt.mergesort_task_ws = g.task_ws;
  const Workload w = make_workload(g.app, cfg, opt);
  CmpSimulator sim(cfg);
  sim.set_collect_task_stats(true);
  const auto sched = make_scheduler(g.sched);
  const SimResult r = sim.run(w.dag, *sched);
  // No fixture's run-ahead breaks causality, so none pays for a re-run.
  EXPECT_EQ(sim.exact_reruns(), 0u);

  EXPECT_EQ(r.cycles, g.cycles);
  EXPECT_EQ(r.instructions, g.instructions);
  EXPECT_EQ(r.tasks_executed, g.tasks_executed);
  EXPECT_EQ(r.l1_hits, g.l1_hits);
  EXPECT_EQ(r.l2_hits, g.l2_hits);
  EXPECT_EQ(r.l2_misses, g.l2_misses);
  EXPECT_EQ(r.writebacks, g.writebacks);
  EXPECT_EQ(r.invalidations, g.invalidations);
  EXPECT_EQ(r.mem_stall_cycles, g.mem_stall_cycles);
  EXPECT_EQ(r.mem_queue_cycles, g.mem_queue_cycles);
  EXPECT_EQ(r.mem_busy_cycles, g.mem_busy_cycles);
  EXPECT_EQ(r.steals, g.steals);

  uint64_t busy = 0;
  for (uint64_t b : r.core_busy_cycles) busy += b;
  EXPECT_EQ(busy, g.busy_sum);
  uint64_t task_misses = 0, task_refs = 0;
  for (uint32_t v : r.task_l2_misses) task_misses += v;
  for (uint32_t v : r.task_refs) task_refs += v;
  EXPECT_EQ(task_misses, g.task_miss_sum);
  EXPECT_EQ(task_refs, g.task_ref_sum);
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  const GoldenCase& g = info.param;
  // Gen and scheduler specs contain characters gtest rejects; keep the
  // family name and mark the parameterized form.
  auto sanitize = [](std::string s, const char* suffix) {
    if (const size_t colon = s.find(':'); colon != std::string::npos) {
      s = s.substr(0, colon) + suffix;
    }
    return s;
  };
  const std::string app = sanitize(g.app, "_gen");
  const std::string sched = sanitize(g.sched, "_spec");
  std::string n =
      app + "_" + sched + "_" + std::to_string(g.cores) + "c";
  if (g.l2_banks > 0) n += "_banked";
  if (g.scale != 0.03125) n += "_small";
  if (g.task_ws != 0) n += "_tws";
  return n;
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenSim, ::testing::ValuesIn(kGolden),
                         case_name);

// The engine's exact re-run hands the caller's scheduler back to
// reset(): a scheduler object that has run a DAG must simulate it again
// exactly as a fresh object does.
TEST(SchedulerReset, ReusedSchedulerMatchesFreshOne) {
  constexpr double kScale = 0.03125;
  const CmpConfig cfg = default_config(8).scaled(kScale);
  AppOptions opt;
  opt.scale = kScale;
  std::vector<std::string> specs = known_schedulers();
  specs.insert(specs.end(), {"ws:victims=rand,steal=half,seed=7",
                             "aff:steal=half", "prio:key=work,order=max",
                             "cfb:budget=0.5"});
  for (const char* app :
       {"mergesort", "dnc:depth=6,fanout=3,ws=8K,share=0.2,seed=3"}) {
    const Workload w = make_workload(app, cfg, opt);
    for (const std::string& spec : specs) {
      CmpSimulator sim(cfg);
      const auto s = make_scheduler(spec);
      const SimResult fresh = sim.run(w.dag, *s);
      const SimResult again = sim.run(w.dag, *s);
      EXPECT_TRUE(again == fresh)
          << app << " under " << spec << ": cycles " << again.cycles
          << " vs " << fresh.cycles;
    }
  }
}

}  // namespace
}  // namespace cachesched
