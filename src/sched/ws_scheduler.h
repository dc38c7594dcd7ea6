// Work Stealing scheduler (paper §3, [Blumofe & Leiserson]), the zoo's
// stealing family:
//
//   ws                              paper baseline (defaults below)
//   ws:victims=rand,steal=half,seed=7
//   aff, aff:steal=half             nearest-first victims (registry.cc)
//
// One double-ended queue per core: newly enabled tasks are pushed on the
// *top* of the enabling core's deque in reverse spawn order, so the first
// spawned child is popped first — the depth-first, child-first discipline
// of Cilk-style work stealing. A core takes work from the top of its own
// deque (LIFO); when that is empty it steals from the *bottom* (FIFO, the
// oldest-in-sequential-order end) of the first non-empty victim in its
// victim order. steal=one takes the victim's bottom task; steal=half
// takes the bottom ceil(n/2). A stolen batch keeps its orientation on the
// thief's deque, so the invariant "oldest at the bottom, steals take the
// bottom" holds everywhere.
//
// Victim orders, built per core at reset:
//  * seq: the ring starting at (self+1) mod P — the paper's description,
//    verbatim;
//  * rand: uniformly random victims (the classic randomized work stealing
//    of [Blumofe & Leiserson]) from a deterministic per-core PRNG seeded
//    from (seed, core), falling back to the seq ring after P-1 failed
//    probes so acquire() still finds work whenever any deque is non-empty;
//  * nearest (the `aff` row): the seq ring stable-sorted by distance on
//    the banked-L2 ring, so a thief prefers a victim whose recently
//    touched lines live near its own L2 bank slot. The geometry mirrors
//    the engine's S-NUCA model: core c sits at bank slot c*banks/P and two
//    slots are min(d, banks-d) apart. A monolithic L2 (l2_banks=0) makes
//    the cores themselves the ring (banks=P). Ties keep the seq order.
// The defaults (victims=seq, steal=one) reproduce the pre-zoo "ws"
// scheduler decision-for-decision, which the golden sim fixtures pin.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "core/scheduler.h"
#include "util/rng.h"

namespace cachesched {

class WsScheduler final : public Scheduler {
 public:
  enum class Victims { kSeq, kRand, kNearest };
  enum class Steal { kOne, kHalf };

  struct Options {
    Victims victims = Victims::kSeq;
    Steal steal = Steal::kOne;
    uint64_t seed = 1;  // victims=rand only
  };

  WsScheduler() : WsScheduler(Options{}, "ws") {}
  WsScheduler(const Options& opt, std::string label)
      : opt_(opt), label_(std::move(label)) {}

  void reset(const TaskDag& dag, const SchedContext& ctx) override;
  void enqueue_ready(int core, std::span<const TaskId> ready) override;
  TaskId acquire(int core) override;
  bool empty() const override;
  const char* name() const override { return label_.c_str(); }

  /// Steal *events* (an acquire that raided another deque), regardless of
  /// how many tasks the event moved.
  uint64_t steal_count() const override { return steals_; }

  /// Tasks currently queued on `core`'s deque (diagnostics/tests).
  size_t deque_size(int core) const { return deques_[core].size(); }

 private:
  TaskId steal_from(int thief, int victim);

  Options opt_;
  std::string label_;
  std::vector<std::deque<TaskId>> deques_;
  // Core c's victims in scan order: P-1 entries from c*(P-1).
  std::vector<int> victims_;
  std::vector<Xoshiro256> rngs_;  // one per core; victims=rand only
  uint64_t steals_ = 0;
};

}  // namespace cachesched
