// Isolated replays that split a simulation's host time by layer. They
// call only public library APIs: TraceCursor (core), SetAssocCache and
// MemChannel (simarch) and the Scheduler interface (sched). Each replay
// times one layer alone; the driver weights the per-access costs by the
// simulation's own access counts and reports what is left of the
// simulator's ns/ref as the interaction term.
#pragma once

#include <cstdint>
#include <string>

#include "core/dag.h"
#include "simarch/config.h"
#include "tracer.h"

namespace perfbench {

/// The 1DF-order prefix of a DAG's line references that the cache and
/// channel replays cover; expansion itself always covers every reference.
inline constexpr uint64_t kReplayMaxRefs = 4'000'000;

struct MemoryReplay {
  uint64_t expand_refs = 0;
  double expand_s = 0;
  uint64_t l1_accesses = 0;
  double l1_s = 0;
  uint64_t l2_accesses = 0;
  double l2_s = 0;
  uint64_t mem_requests = 0;
  double mem_s = 0;
  uint64_t sink = 0;  // consumes results so no pass is optimized away
};

/// Expands every task of `dag` in sequential order through TraceCursor,
/// then replays the first kReplayMaxRefs line references through one
/// private L1 (probe, fill on miss), the L1-miss stream through a shared
/// L2 (access_or_install plus presence bookkeeping) and the L2-miss stream
/// through the memory channel, all at `cfg`'s geometry and timing. Adds
/// to `*acc`; records one span per pass.
void replay_memory(const cachesched::TaskDag& dag,
                   const cachesched::CmpConfig& cfg, Tracer& tr,
                   MemoryReplay* acc);

struct DispatchReplay {
  double reset_s = 0;
  double dispatch_s = 0;
  uint64_t tasks = 0;
  uint64_t deferred = 0;  // acquire() == kNoTask while work was queued
};

/// Dispatch-only replay of scheduler `spec` over `dag` on `cfg.cores`
/// cores: reset, then the engine's enqueue_ready / acquire / on_complete
/// protocol with tasks completing in dispatch order and no simulated
/// memory. Adds to `*acc`; throws std::runtime_error if the scheduler
/// stalls with tasks left.
void replay_dispatch(const cachesched::TaskDag& dag,
                     const cachesched::CmpConfig& cfg, const std::string& spec,
                     Tracer& tr, DispatchReplay* acc);

}  // namespace perfbench
