// Priority-queue scheduler: a centralized greedy scheduler that hands out
// the ready task extremizing a configurable key. Its default order is
// Parallel Depth First (paper §3, [Blelloch & Gibbons SPAA'04]), the
// `pdf` row; the `prio` row exposes the key and the order:
//
//   pdf, prio:key=id,order=min   PDF (sequential order; the default)
//   prio:key=depth,order=max     deepest-first (critical-path-ish)
//   prio:key=work,order=max      largest-task-first (LPT-style)
//   prio:key=ws,order=min        smallest-working-set-first
//
// PDF gives a core that needs work the ready task that the *sequential*
// program would have executed earliest. Task ids are assigned in
// sequential (1DF) order by the DagBuilder, so PDF is simply a min-heap
// of ready task ids, with no per-task key. This is the online realization
// the paper cites ([6,7,28]): no sequential pre-execution is needed
// because the builder records the sequential order as the DAG unfolds.
// Theorem 3.1: on a shared ideal cache of size >= C + P*D, a PDF schedule
// incurs at most as many misses as the sequential execution with cache C.
// tests/theorem_test.cc checks this bound empirically.
//
// Every other configuration precomputes its keys at reset from DAG
// metadata: `id` is the 1DF sequential index, `depth` the longest
// task-count path from a root (forward scan — edges always point forward
// in sequential order), `work` the task's instruction count and `ws` the
// problem-size parameter of the task's innermost TaskGroup (the
// spawn-site size annotation, a cheap working-set proxy; the cfb
// scheduler uses the profiler for exact bytes). Ties always break toward
// the smaller task id, so every configuration is deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.h"

namespace cachesched {

class PriorityScheduler final : public Scheduler {
 public:
  enum class Key { kId, kDepth, kWork, kWs };
  enum class Order { kMin, kMax };

  struct Options {
    Key key = Key::kId;
    Order order = Order::kMin;
  };

  /// PDF, named "pdf".
  PriorityScheduler() : PriorityScheduler(Options{}, "pdf") {}
  PriorityScheduler(const Options& opt, std::string label)
      : opt_(opt), label_(std::move(label)) {}

  void reset(const TaskDag& dag, const SchedContext& ctx) override;
  void enqueue_ready(int core, std::span<const TaskId> ready) override;
  TaskId acquire(int core) override;
  bool empty() const override { return heap_.empty(); }
  const char* name() const override { return label_.c_str(); }

 private:
  /// The heap order: true if `a` is handed out after `b`.
  auto after() const {
    return [this](TaskId a, TaskId b) {
      if (keys_.empty()) return a > b;  // PDF: the id is the key
      return keys_[a] != keys_[b] ? keys_[a] > keys_[b] : a > b;
    };
  }

  Options opt_;
  std::string label_;
  // keys_[t] is pre-flipped for order=max (bitwise complement), so one
  // ascending (key, id) order realizes both orders with the same id
  // tie-break. Empty for PDF.
  std::vector<uint64_t> keys_;
  std::vector<TaskId> heap_;  // ready tasks, a std:: heap under after()
};

}  // namespace cachesched
