#include "sched/ws_scheduler.h"

namespace cachesched {

void WsScheduler::on_reset(const TaskDag& dag, const SchedContext& ctx) {
  (void)dag;
  rngs_.clear();
  if (opt_.victims == Victims::kRand) {
    rngs_.reserve(ctx.num_cores);
    for (int c = 0; c < ctx.num_cores; ++c) {
      // Distinct SplitMix-scrambled stream per core; Xoshiro's seeding
      // decorrelates the nearby raw seeds.
      rngs_.emplace_back(opt_.seed * 0x9e3779b97f4a7c15ULL +
                         static_cast<uint64_t>(c));
    }
  }
}

int WsScheduler::pick_victim(int core) {
  const int p = num_cores();
  if (opt_.victims == Victims::kRand && p > 1) {
    auto& rng = rngs_[core];
    for (int probe = 0; probe < p - 1; ++probe) {
      const int r = static_cast<int>(rng.next_below(p - 1));
      const int v = r >= core ? r + 1 : r;  // uniform over cores != self
      if (!deque_empty(v)) return v;
    }
    // Random probing can miss the one non-empty deque; fall through to
    // the exhaustive ring scan (the engine treats acquire() failure as
    // "no work anywhere").
  }
  for (int k = 1; k < p; ++k) {
    const int v = (core + k) % p;
    if (!deque_empty(v)) return v;
  }
  return -1;
}

}  // namespace cachesched
