// Shared machinery for the per-core-deque stealing schedulers (ws, aff).
//
// One double-ended queue per core: newly enabled tasks are pushed on the
// *top* of the enabling core's deque in reverse spawn order, so the first
// spawned child is popped first — the depth-first, child-first discipline
// of Cilk-style work stealing. A core takes work from the top of its own
// deque (LIFO); when that is empty it steals from the *bottom* (FIFO, the
// oldest-in-sequential-order end) of a victim chosen by the subclass's
// policy. Stealing moves either one task or the bottom half of the
// victim's deque; a stolen batch keeps its orientation on the thief's
// deque, so the invariant "oldest at the bottom, steals take the bottom"
// holds everywhere.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.h"

namespace cachesched {

class StealingSchedulerBase : public Scheduler {
 public:
  enum class Steal {
    kOne,   // steal the victim's bottom task
    kHalf,  // steal the bottom ceil(n/2) tasks
  };

  void reset(const TaskDag& dag, const SchedContext& ctx) final {
    deques_.assign(ctx.num_cores, {});
    steals_ = 0;
    on_reset(dag, ctx);
  }

  void enqueue_ready(int core, std::span<const TaskId> ready) final {
    // Reverse spawn order: first child ends on top.
    auto& dq = deques_[core];
    for (size_t i = ready.size(); i-- > 0;) dq.push_back(ready[i]);
  }

  TaskId acquire(int core) final {
    auto& own = deques_[core];
    if (!own.empty()) {
      const TaskId t = own.back();  // top
      own.pop_back();
      return t;
    }
    const int victim = pick_victim(core);
    if (victim < 0) return kNoTask;
    return steal_from(core, victim);
  }

  bool empty() const final {
    for (const auto& dq : deques_) {
      if (!dq.empty()) return false;
    }
    return true;
  }

  const char* name() const final { return label_.c_str(); }

  /// Steal *events* (an acquire that raided another deque), regardless of
  /// how many tasks the event moved.
  uint64_t steal_count() const final { return steals_; }

  /// Tasks currently queued on `core`'s deque (diagnostics/tests).
  size_t deque_size(int core) const { return deques_[core].size(); }

 protected:
  StealingSchedulerBase(Steal steal, std::string label)
      : steal_(steal), label_(std::move(label)) {}

  /// Re-initializes subclass state for a fresh run (deques are already
  /// cleared and sized to ctx.num_cores).
  virtual void on_reset(const TaskDag& dag, const SchedContext& ctx) = 0;

  /// The core to steal from for thief `core`, or -1 when every other
  /// deque is empty. Must find a victim whenever one exists: the engine
  /// treats acquire() failure as "no work anywhere".
  virtual int pick_victim(int core) = 0;

  int num_cores() const { return static_cast<int>(deques_.size()); }
  bool deque_empty(int core) const { return deques_[core].empty(); }

 private:
  TaskId steal_from(int thief, int victim) {
    auto& vq = deques_[victim];
    ++steals_;
    const size_t take = steal_ == Steal::kHalf ? (vq.size() + 1) / 2 : 1;
    const TaskId t = vq.front();  // bottom: oldest in sequential order
    vq.pop_front();
    auto& own = deques_[thief];  // empty — acquire only steals when it is
    for (size_t i = 1; i < take; ++i) {
      own.push_back(vq.front());
      vq.pop_front();
    }
    return t;
  }

  std::vector<std::deque<TaskId>> deques_;
  Steal steal_;
  std::string label_;
  uint64_t steals_ = 0;
};

}  // namespace cachesched
