#include "sched/feedback_scheduler.h"

#include <algorithm>

#include "profile/ws_profiler.h"

namespace cachesched {

void FeedbackScheduler::reset(const TaskDag& dag, const SchedContext& ctx) {
  heap_ = {};
  live_bytes_ = 0;
  running_ = 0;
  budget_bytes_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(opt_.budget *
                               static_cast<double>(ctx.l2_bytes)));
  const auto line_bytes = static_cast<uint32_t>(ctx.line_bytes);
  task_ws_ = task_working_set_bytes(dag, line_bytes);
}

void FeedbackScheduler::enqueue_ready(int core, std::span<const TaskId> ready) {
  (void)core;
  for (TaskId t : ready) heap_.push(t);
}

TaskId FeedbackScheduler::acquire(int core) {
  (void)core;
  if (heap_.empty()) return kNoTask;
  const TaskId t = heap_.top();
  if (running_ > 0 && live_bytes_ + task_ws_[t] > budget_bytes_) {
    return kNoTask;  // throttled until a completion retires footprint
  }
  heap_.pop();
  live_bytes_ += task_ws_[t];
  ++running_;
  return t;
}

void FeedbackScheduler::on_complete(int core, TaskId t) {
  (void)core;
  live_bytes_ -= task_ws_[t];
  --running_;
}

}  // namespace cachesched
