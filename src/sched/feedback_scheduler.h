// Cache-footprint-feedback scheduler ("cfb"): a PDF-ordered centralized
// scheduler that throttles admission against the shared-L2 capacity.
//
// At reset it records every task's footprint: its distinct lines times the
// line size, counted in one pass over the DAG's trace by
// task_working_set_bytes (src/profile/ws_profiler.h). That equals the
// single-task working set the paper's one-pass LruTree profiler reports,
// without building its stack or histogram. At acquire() it hands out the
// sequentially-earliest ready task — exactly PDF — *unless* admitting it
// would push the aggregate live working set (sum of footprints of the
// currently running tasks) past budget*l2_bytes; then it returns kNoTask
// and the engine leaves the core idle until the next completion. This is
// the paper's §6 observation inverted into a policy: instead of
// coarsening the DAG until the working set fits the L2, keep the DAG and
// cap co-scheduled footprint at run time.
//
// Deadlock-freedom: when no admitted task is running, acquire() always
// hands out work regardless of the budget (a single task larger than the
// budget must still run). The throttle is a global condition, so the
// engine's stop-at-first-acquire-failure dispatch stays correct: if one
// idle core is refused, every idle core would be.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.h"

namespace cachesched {

class FeedbackScheduler final : public Scheduler {
 public:
  struct Options {
    double budget = 1.0;  // fraction of the shared-L2 capacity
  };

  FeedbackScheduler() : FeedbackScheduler(Options{}, "cfb") {}
  FeedbackScheduler(const Options& opt, std::string label)
      : opt_(opt), label_(std::move(label)) {}

  void reset(const TaskDag& dag, const SchedContext& ctx) override;
  void enqueue_ready(int core, std::span<const TaskId> ready) override;
  TaskId acquire(int core) override;
  void on_complete(int core, TaskId t) override;
  bool empty() const override { return heap_.empty(); }
  const char* name() const override { return label_.c_str(); }

  /// Live-set accounting, exposed for tests.
  uint64_t live_bytes() const { return live_bytes_; }
  uint64_t budget_bytes() const { return budget_bytes_; }
  uint64_t task_ws_bytes(TaskId t) const { return task_ws_[t]; }

 private:
  Options opt_;
  std::string label_;
  std::vector<uint64_t> task_ws_;  // per-task working set, bytes
  uint64_t budget_bytes_ = 0;
  uint64_t live_bytes_ = 0;  // sum of task_ws_ over running tasks
  int running_ = 0;
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<TaskId>>
      heap_;
};

}  // namespace cachesched
