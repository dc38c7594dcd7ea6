// Tests for the distributed (banked) L2 timing model used by the Figure 4
// "monolithic vs distributed" comparison.
#include <gtest/gtest.h>

#include "core/dag.h"
#include "sched/priority_scheduler.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

CmpConfig banked_config(int cores, int banks) {
  CmpConfig c;
  c.name = "banked";
  c.cores = cores;
  c.l1_bytes = 256;  // 2 lines: force L2 traffic
  c.l1_ways = 2;
  c.l2_bytes = 64 * 1024;
  c.l2_ways = 4;
  c.l2_hit_cycles = 19;
  c.l2_banks = banks;
  c.l2_local_hit_cycles = 7;
  c.bank_hop_cycles = 1;
  c.task_dispatch_cycles = 0;
  c.line_bytes = 128;
  return c;
}

uint64_t run_cycles(const TaskDag& dag, const CmpConfig& cfg) {
  PriorityScheduler s;
  CmpSimulator sim(cfg);
  return sim.run(dag, s).cycles;
}

TaskDag two_pass_scan(uint64_t lines) {
  DagBuilder b;
  b.add_task({}, {RefBlock::stride_ref(0, static_cast<uint32_t>(lines), 128,
                                       false, 1),
                  RefBlock::stride_ref(0, static_cast<uint32_t>(lines), 128,
                                       false, 1)});
  return b.finish();
}

TEST(BankedL2, LocalBankHitCheaperThanMonolithic) {
  // One core, one bank: every L2 hit costs the 7-cycle local latency
  // instead of the 19-cycle monolithic one.
  const TaskDag dag = two_pass_scan(64);
  const uint64_t mono = run_cycles(dag, banked_config(1, 0));
  const uint64_t banked = run_cycles(dag, banked_config(1, 1));
  EXPECT_LT(banked, mono);
  // 64 second-pass hits (L1 holds 2 lines), 12 cycles cheaper each.
  EXPECT_EQ(mono - banked, 64u * 12u);
}

TEST(BankedL2, RemoteBanksCostHops) {
  // With many banks and one core at slot 0, average ring distance grows,
  // so the same trace takes longer than with one bank.
  const TaskDag dag = two_pass_scan(64);
  const uint64_t one_bank = run_cycles(dag, banked_config(1, 1));
  const uint64_t many_banks = run_cycles(dag, banked_config(1, 16));
  EXPECT_GT(many_banks, one_bank);
  // Ring distance is at most banks/2: bounded by 8 hops per hit.
  EXPECT_LE(many_banks, one_bank + 64u * 8u);
}

TEST(BankedL2, HitMissCountsUnaffectedByBanking) {
  // Banking is a timing model only; replacement and counts are identical.
  const TaskDag dag = two_pass_scan(128);
  PriorityScheduler s1, s2;
  CmpSimulator mono(banked_config(1, 0));
  CmpSimulator banked(banked_config(1, 8));
  const SimResult a = mono.run(dag, s1);
  const SimResult b = banked.run(dag, s2);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
}

TEST(BankedL2, InterleavingSpreadsAccessesAcrossBanks) {
  // Average hop count for a strided scan over many lines ~ banks/4; total
  // time should sit strictly between local-only and worst-case.
  const TaskDag dag = two_pass_scan(256);
  const uint64_t banked = run_cycles(dag, banked_config(1, 8));
  const uint64_t local_only = run_cycles(dag, banked_config(1, 1));
  EXPECT_GT(banked, local_only + 256u);           // some hops paid
  EXPECT_LT(banked, local_only + 256u * 4u);      // below max ring distance
}

}  // namespace
}  // namespace cachesched
