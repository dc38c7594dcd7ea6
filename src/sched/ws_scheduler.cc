#include "sched/ws_scheduler.h"

#include <algorithm>
#include <cstdlib>

namespace cachesched {

void WsScheduler::reset(const TaskDag& dag, const SchedContext& ctx) {
  (void)dag;
  const int p = ctx.num_cores;
  deques_.assign(p, {});
  steals_ = 0;
  const int banks = ctx.l2_banks > 0 ? ctx.l2_banks : p;
  auto hops = [&](int a, int b) {
    const int d = std::abs(a * banks / p - b * banks / p);
    return std::min(d, banks - d);
  };
  victims_.resize(static_cast<size_t>(p) * (p - 1));
  for (int c = 0; c < p; ++c) {
    const auto order = victims_.begin() + c * (p - 1);
    for (int k = 1; k < p; ++k) order[k - 1] = (c + k) % p;
    if (opt_.victims == Victims::kNearest) {
      std::stable_sort(order, order + (p - 1),
                       [&](int a, int b) { return hops(c, a) < hops(c, b); });
    }
  }
  rngs_.clear();
  if (opt_.victims == Victims::kRand) {
    rngs_.reserve(p);
    for (int c = 0; c < p; ++c) {
      // Distinct SplitMix-scrambled stream per core; Xoshiro's seeding
      // decorrelates the nearby raw seeds.
      rngs_.emplace_back(opt_.seed * 0x9e3779b97f4a7c15ULL +
                         static_cast<uint64_t>(c));
    }
  }
}

void WsScheduler::enqueue_ready(int core, std::span<const TaskId> ready) {
  // Reverse spawn order: first child ends on top.
  auto& dq = deques_[core];
  for (size_t i = ready.size(); i-- > 0;) dq.push_back(ready[i]);
}

TaskId WsScheduler::acquire(int core) {
  auto& own = deques_[core];
  if (!own.empty()) {
    const TaskId t = own.back();  // top
    own.pop_back();
    return t;
  }
  const int p = static_cast<int>(deques_.size());
  if (opt_.victims == Victims::kRand && p > 1) {
    auto& rng = rngs_[core];
    for (int probe = 0; probe < p - 1; ++probe) {
      const int r = static_cast<int>(rng.next_below(p - 1));
      const int v = r >= core ? r + 1 : r;  // uniform over cores != self
      if (!deques_[v].empty()) return steal_from(core, v);
    }
    // Random probing can miss the one non-empty deque; fall through to
    // the exhaustive ring scan (the engine treats acquire() failure as
    // "no work anywhere").
  }
  for (int i = 0; i < p - 1; ++i) {
    const int v = victims_[core * (p - 1) + i];
    if (!deques_[v].empty()) return steal_from(core, v);
  }
  return kNoTask;
}

bool WsScheduler::empty() const {
  return std::all_of(deques_.begin(), deques_.end(),
                     [](const std::deque<TaskId>& dq) { return dq.empty(); });
}

TaskId WsScheduler::steal_from(int thief, int victim) {
  auto& vq = deques_[victim];
  ++steals_;
  const size_t take = opt_.steal == Steal::kHalf ? (vq.size() + 1) / 2 : 1;
  const TaskId t = vq.front();  // bottom: oldest in sequential order
  vq.pop_front();
  auto& own = deques_[thief];  // empty — acquire only steals when it is
  for (size_t i = 1; i < take; ++i) {
    own.push_back(vq.front());
    vq.pop_front();
  }
  return t;
}

}  // namespace cachesched
