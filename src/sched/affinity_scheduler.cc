#include "sched/affinity_scheduler.h"

#include <algorithm>

namespace cachesched {

void AffinityScheduler::on_reset(const TaskDag& dag, const SchedContext& ctx) {
  (void)dag;
  const int p = ctx.num_cores;
  const int banks = ctx.l2_banks > 0 ? ctx.l2_banks : p;
  // Same placement as the engine's banked-L2 latency model: core c at
  // bank slot c*banks/P, ring distance between slots.
  auto slot = [&](int c) { return c * banks / p; };
  auto hops = [&](int a, int b) {
    const int d = std::abs(slot(a) - slot(b));
    return std::min(d, banks - d);
  };
  victim_order_.assign(p, {});
  for (int c = 0; c < p; ++c) {
    auto& order = victim_order_[c];
    order.reserve(p - 1);
    for (int k = 1; k < p; ++k) order.push_back((c + k) % p);
    // Stable: equal-distance victims keep the ws ring-scan order.
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return hops(c, a) < hops(c, b); });
  }
}

int AffinityScheduler::pick_victim(int core) {
  for (int v : victim_order_[core]) {
    if (!deque_empty(v)) return v;
  }
  return -1;
}

}  // namespace cachesched
