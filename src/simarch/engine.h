// Event-driven CMP simulator (paper §4.1): P in-order scalar cores with
// private L1s over a shared L2 and a bandwidth-limited memory channel,
// executing a computation DAG under a pluggable greedy scheduler.
//
// The L2 is *non-inclusive*: an L2 eviction leaves L1 copies in place and
// only writes dirty data off-chip. (Strict inclusion is not viable across
// the paper's design space — its own 26-core/1 MB-L2 point has 1.6 MB of
// aggregate L1.) Write coherence is tracked with per-line L1-presence
// masks, under two stated policies:
//  (a) only a write that misses the L1 invalidates: it invalidates the
//      other tracked L1 copies; an L1 write hit only sets the dirty bit;
//  (b) holders are tracked only while the line is L2-resident: a line
//      re-installed in the L2 names its installer alone, and older L1
//      copies drop out of tracking.
// For the studied workloads, whose concurrent writes target disjoint
// regions, this model is exact up to line-boundary sharing. The naive
// oracle in tests/oracle.h declares the same policies and
// tests/oracle_test.cc holds every SimResult field to it.
//
// Timing model (per Table 1):
//  * compute: 1 instruction / cycle;
//  * memory reference: instr_per_ref cycles when it hits in the L1 (the
//    reference itself is one of those instructions, 1-cycle hit);
//    (instr_per_ref - 1) + l2_hit_cycles on an L2 hit;
//    (instr_per_ref - 1) + memory stall (latency + channel queueing) on an
//    L2 miss;
//  * task dispatch costs task_dispatch_cycles on the acquiring core.
//
// Causality: every shared-L2 access, task completion and dispatch is
// processed in exact global order: the pending event with the smallest
// (time, core) key goes next. A task dispatched at cycle t with zero
// dispatch cost therefore starts after the ops other cores already took
// at t, lower core ids included. Between shared events a running core
// runs ahead of the other cores' pending events through compute and
// private-L1 hits, which touch no shared state. That is exact unless
// another core's write, earlier in global order, invalidates a line the
// core has already hit. So every L1 hit stamps its L1 slot with its
// (time, core) key, and an invalidation that finds a later stamp abandons
// the run, which then repeats with no run-ahead (exact_reruns() counts
// these). A same-cycle stamp can also come from a hit that exact order
// takes first (a zero-cost dispatch as above); that costs a spare re-run,
// never a wrong result. Results equal exact interleaving by construction.
//
// Scheduler contract: a scheduler may hand out only a ready task, once.
// run() throws std::logic_error naming the scheduler, the task and the
// core if acquire() returns a task that is out of range, already
// dispatched or still waiting for a parent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dag.h"
#include "core/scheduler.h"
#include "simarch/cache.h"
#include "simarch/config.h"
#include "simarch/memchannel.h"

namespace cachesched {

struct SimResult {
  std::string scheduler;
  std::string config;
  int cores = 0;

  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t tasks_executed = 0;

  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l2_misses = 0;
  uint64_t writebacks = 0;        // dirty L2 evictions sent off-chip
  uint64_t invalidations = 0;     // cross-L1 write invalidations
  uint64_t mem_stall_cycles = 0;  // core cycles stalled on off-chip misses
  uint64_t mem_queue_cycles = 0;  // portion of stalls due to channel queueing
  uint64_t mem_busy_cycles = 0;   // channel occupancy (demand + writeback)
  uint64_t steals = 0;            // WS only

  std::vector<uint64_t> core_busy_cycles;
  /// Per-task L2 misses / references; filled only when the simulator's
  /// collect_task_stats flag is set (Figure 1 style analyses).
  std::vector<uint32_t> task_l2_misses;
  std::vector<uint32_t> task_refs;

  uint64_t total_refs() const { return l1_hits + l2_hits + l2_misses; }

  /// Figure 2(b,d,f) metric.
  double l2_misses_per_kilo_instr() const {
    return instructions ? 1000.0 * static_cast<double>(l2_misses) /
                              static_cast<double>(instructions)
                        : 0.0;
  }

  /// Fraction of cycles the memory channel was occupied (§5.1 utilization).
  double mem_bandwidth_utilization() const {
    return cycles ? static_cast<double>(mem_busy_cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }

  /// Mean core utilization.
  double core_utilization() const;

  /// Figure 2(a,c,e) metric: sequential cycles / parallel cycles.
  double speedup_over(const SimResult& sequential) const {
    return cycles ? static_cast<double>(sequential.cycles) /
                        static_cast<double>(cycles)
                  : 0.0;
  }

  /// Field-by-field equality, per-core and per-task vectors included.
  bool operator==(const SimResult&) const = default;
};

class CmpSimulator {
 public:
  explicit CmpSimulator(const CmpConfig& config);

  /// Executes `dag` to completion under `sched` and returns the statistics.
  /// Deterministic: identical inputs give identical results. `sched` is
  /// reset at the start, and again if the run repeats (file comment).
  SimResult run(const TaskDag& dag, Scheduler& sched);

  /// Record per-task miss/reference counts in the result.
  void set_collect_task_stats(bool v) { collect_task_stats_ = v; }

  /// run() calls on this simulator whose run-ahead broke causality and
  /// that repeated with no run-ahead (see file comment).
  uint64_t exact_reruns() const { return exact_reruns_; }

  const CmpConfig& config() const { return cfg_; }

 private:
  CmpConfig cfg_;
  uint64_t exact_reruns_ = 0;
  bool collect_task_stats_ = false;
};

}  // namespace cachesched
