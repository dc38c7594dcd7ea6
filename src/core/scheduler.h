// Scheduler interface shared by the CMP simulator (src/simarch) and the
// scheduler implementations (src/sched). Both schedulers in the paper are
// *greedy*: a ready task may remain unscheduled only while all cores are
// busy. The simulator enforces greediness by offering work to every idle
// core whenever tasks become ready. Schedulers beyond the paper's pair
// (the src/sched zoo) may deliberately relax greediness — the
// cache-footprint-feedback policy defers admission while the live working
// set exceeds its budget — but must stay deadlock-free: whenever no task
// is running, acquire() must hand out work if any is queued.
#pragma once

#include <cstdint>
#include <span>

#include "core/dag.h"
#include "core/types.h"

namespace cachesched {

/// Machine context handed to Scheduler::reset: the core count plus the
/// capacity/geometry facts a policy may shape its decisions from
/// (affinity-aware stealing reads the banked-L2 ring, the
/// footprint-feedback policy budgets against the shared-L2 capacity).
/// The engine fills every field from its CmpConfig; the defaults below
/// (the paper's Table 1/2 shape) only serve direct construction in unit
/// tests, including the implicit int conversion that keeps
/// `reset(dag, 4)` call sites working.
struct SchedContext {
  int num_cores = 1;
  uint64_t l1_bytes = 64 * 1024;         // private L1 capacity, per core
  uint64_t l2_bytes = 8 * 1024 * 1024;   // shared L2 capacity
  int line_bytes = 128;
  int l2_banks = 0;  // 0 = monolithic L2; >0 = S-NUCA ring of banks

  constexpr SchedContext(int cores = 1) : num_cores(cores) {}
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Prepares for a fresh run of `dag` on `ctx.num_cores` cores, dropping
  /// all state of any earlier run, finished or abandoned (the simulator
  /// repeats a run whose run-ahead broke causality). Roots are delivered
  /// via enqueue_ready(0, roots) by the engine after reset.
  virtual void reset(const TaskDag& dag, const SchedContext& ctx) = 0;

  /// `ready` lists tasks that just became ready, in spawn order. `core` is
  /// the core whose task completion enabled them (0 for the initial roots).
  virtual void enqueue_ready(int core, std::span<const TaskId> ready) = 0;

  /// Requests work for `core`. Returns kNoTask if the scheduler has
  /// nothing to hand out (for WS this means all deques are empty; for an
  /// admission-throttling policy it may also mean "not now").
  virtual TaskId acquire(int core) = 0;

  /// Notification that `core` finished task `t`; called by the engine
  /// before the ready children are enqueued. Default no-op — the
  /// footprint-feedback scheduler uses it to retire the task's working
  /// set from its live-set accounting.
  virtual void on_complete(int core, TaskId t) {
    (void)core;
    (void)t;
  }

  /// True if no task is currently queued. Tests read it, and perfbench
  /// counts an acquire() that returns kNoTask while work is queued as a
  /// deferred acquire.
  virtual bool empty() const = 0;

  virtual const char* name() const = 0;

  /// WS statistic; 0 for schedulers that do not steal.
  virtual uint64_t steal_count() const { return 0; }
};

}  // namespace cachesched
