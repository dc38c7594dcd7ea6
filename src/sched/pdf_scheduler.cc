#include "sched/pdf_scheduler.h"

namespace cachesched {

void PdfScheduler::reset(const TaskDag& dag, const SchedContext& ctx) {
  (void)dag;
  (void)ctx;
  heap_ = {};
}

void PdfScheduler::enqueue_ready(int core, std::span<const TaskId> ready) {
  (void)core;
  for (TaskId t : ready) heap_.push(t);
}

TaskId PdfScheduler::acquire(int core) {
  (void)core;
  if (heap_.empty()) return kNoTask;
  const TaskId t = heap_.top();
  heap_.pop();
  return t;
}

}  // namespace cachesched
