#include "sched/priority_scheduler.h"

#include <algorithm>

namespace cachesched {

void PriorityScheduler::reset(const TaskDag& dag, const SchedContext& ctx) {
  (void)ctx;
  heap_.clear();
  keys_.clear();
  if (opt_.key == Key::kId && opt_.order == Order::kMin) return;  // PDF
  const size_t n = dag.num_tasks();
  keys_.assign(n, 0);
  switch (opt_.key) {
    case Key::kId:
      for (TaskId t = 0; t < n; ++t) keys_[t] = t;
      break;
    case Key::kDepth:
      // Edges point forward in 1DF order, so one ascending pass settles
      // the longest task-count path from any root.
      for (TaskId t = 0; t < n; ++t) {
        for (TaskId ch : dag.children(t)) {
          keys_[ch] = std::max(keys_[ch], keys_[t] + 1);
        }
      }
      break;
    case Key::kWork:
      for (TaskId t = 0; t < n; ++t) keys_[t] = dag.task(t).work;
      break;
    case Key::kWs:
      for (TaskId t = 0; t < n; ++t) {
        const GroupId g = dag.task(t).group;
        const int64_t param = g == kNoGroup ? 0 : dag.group(g).param;
        keys_[t] = param > 0 ? static_cast<uint64_t>(param) : 0;
      }
      break;
  }
  if (opt_.order == Order::kMax) {
    for (auto& k : keys_) k = ~k;
  }
}

void PriorityScheduler::enqueue_ready(int core, std::span<const TaskId> ready) {
  (void)core;
  for (TaskId t : ready) {
    heap_.push_back(t);
    std::push_heap(heap_.begin(), heap_.end(), after());
  }
}

TaskId PriorityScheduler::acquire(int core) {
  (void)core;
  if (heap_.empty()) return kNoTask;
  std::pop_heap(heap_.begin(), heap_.end(), after());
  const TaskId t = heap_.back();
  heap_.pop_back();
  return t;
}

}  // namespace cachesched
