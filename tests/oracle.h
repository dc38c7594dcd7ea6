// A deliberately naive CMP simulator: the independent oracle that
// tests/oracle_test.cc holds CmpSimulator to, whole SimResult for whole
// SimResult.
//
// It shares no code with the engine's caches, memory channel or run loop.
// It reads the DAG through TraceCursor (the reference expansion, not the
// engine's batched expander), drives the same Scheduler interface and
// fills the same SimResult. Everything else is written for obviousness,
// not speed: per-set MRU-first lists, an explicit holder set per L2 line,
// a plain one-event-at-a-time loop and its own memory channel.
//
// The model, declared once. Every policy below is one the engine
// implements; a disagreement is a bug in one of the two, never noise.
//
//  1. Exact interleaving. Each compute block, each memory reference and
//     each task completion is one event at its core's current cycle.
//     Events are taken in (cycle, core id) order. A task dispatched at
//     cycle t starts at max(core cycle, t) + dispatch cost, so with zero
//     dispatch cost it follows the ops other cores already took at t,
//     lower ids included.
//  2. Greedy dispatch. At the start: enqueue_ready(0, roots), then
//     acquire for cores 0..P-1. On a completion: on_complete, then the
//     ready children in child order via enqueue_ready(core, ...), then
//     acquire for the completing core and then each idle core in id
//     order. Dispatch stops at the first kNoTask. A scheduler that hands
//     out a task that is not ready is rejected.
//  3. Caches and latencies. True LRU, write-allocate, write-back. An L1
//     hit costs instr_per_ref cycles. An L2 hit costs instr_per_ref - 1
//     plus the L2 hit time (or the banked-ring time). An L2 miss costs
//     instr_per_ref - 1 plus the wait for the memory channel.
//  4. Non-inclusive L2. An L2 eviction leaves L1 copies in place. A dirty
//     L2 victim takes one writeback slot.
//  5. Holders are tracked only while a line is in the L2 (gap b).
//     Installing a line in the L2 records the installing core as its only
//     holder; an L2 hit adds the reading core. An L1 eviction removes its
//     core from the holders and merges its dirty bit into the L2 copy; if
//     the L2 no longer holds the line and the copy is dirty, it is
//     written back.
//  6. Only a write that misses the L1 invalidates (gap a). Such a write
//     invalidates every other tracked holder (each one counts in
//     `invalidations`), then holds the line alone and marks it dirty. A
//     write that hits the L1 only sets the dirty bit.
//  7. Memory channel. One request starts per mem_service_cycles. Demand
//     data arrives mem_latency_cycles after its slot starts. A writeback
//     takes a slot and nobody waits for it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <list>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dag.h"
#include "core/scheduler.h"
#include "core/trace.h"
#include "simarch/config.h"
#include "simarch/engine.h"

namespace cachesched::oracle {

/// A set-associative cache as one MRU-first list per set.
struct Cache {
  struct Line {
    uint64_t line = 0;
    bool dirty = false;
    std::set<int> holders;  // L2 only: cores whose L1 copy is tracked
  };

  Cache(uint64_t sets, int ways) : sets_(sets), ways_(ways) {}

  /// The line's entry, or nullptr; recency unchanged.
  Line* find(uint64_t line) {
    for (Line& l : set(line)) {
      if (l.line == line) return &l;
    }
    return nullptr;
  }

  /// The line's entry moved to the front, or nullptr.
  Line* touch(uint64_t line) {
    std::list<Line>& s = set(line);
    for (auto it = s.begin(); it != s.end(); ++it) {
      if (it->line == line) {
        s.splice(s.begin(), s, it);
        return &s.front();
      }
    }
    return nullptr;
  }

  /// Puts `l` in front; returns the least recently used line if the set
  /// overflowed.
  std::optional<Line> insert(Line l) {
    std::list<Line>& s = set(l.line);
    s.push_front(std::move(l));
    if (s.size() <= static_cast<size_t>(ways_)) return std::nullopt;
    Line victim = std::move(s.back());
    s.pop_back();
    return victim;
  }

  void erase(uint64_t line) {
    set(line).remove_if([line](const Line& l) { return l.line == line; });
  }

 private:
  std::list<Line>& set(uint64_t line) { return sets_[line % sets_.size()]; }

  std::vector<std::list<Line>> sets_;
  int ways_;
};

/// Runs `dag` under `sched` on `cfg` and returns what CmpSimulator::run
/// must return; `task_stats` fills the per-task vectors.
inline SimResult simulate(const CmpConfig& cfg, const TaskDag& dag,
                          Scheduler& sched, bool task_stats) {
  const int P = cfg.cores;
  const uint64_t n = dag.num_tasks();

  SimResult res;
  res.scheduler = sched.name();
  res.config = cfg.name;
  res.cores = P;
  res.core_busy_cycles.assign(P, 0);
  if (task_stats) {
    res.task_l2_misses.assign(n, 0);
    res.task_refs.assign(n, 0);
  }

  std::vector<Cache> l1(P, Cache(cfg.l1_sets(), cfg.l1_ways));
  Cache l2(cfg.l2_sets(), cfg.l2_ways);

  // Policy 7.
  uint64_t channel_free = 0;
  auto channel_slot = [&](uint64_t t) {
    const uint64_t start = std::max(t, channel_free);
    channel_free = start + cfg.mem_service_cycles;
    res.mem_busy_cycles += cfg.mem_service_cycles;
    return start;
  };
  auto write_back = [&](uint64_t t) {
    channel_slot(t);
    ++res.writebacks;
  };

  // Policy 3: the L2 hit time, monolithic or banked.
  auto l2_hit_time = [&](int c, uint64_t line) -> uint64_t {
    if (cfg.l2_banks == 0) return cfg.l2_hit_cycles;
    const int banks = cfg.l2_banks;
    const int home = static_cast<int>(line % banks);
    const int slot = c * banks / P;
    const int d = std::abs(home - slot);
    return cfg.l2_local_hit_cycles +
           static_cast<uint64_t>(std::min(d, banks - d)) * cfg.bank_hop_cycles;
  };

  // An L1 miss by core c at cycle t: policies 3 to 7. Returns the wait.
  auto l2_access = [&](int c, TaskId task, uint64_t line, bool write,
                       uint64_t t) -> uint64_t {
    uint64_t wait;
    if (Cache::Line* l = l2.touch(line)) {
      ++res.l2_hits;
      wait = l2_hit_time(c, line);
      if (write) {
        for (int h : l->holders) {
          if (h == c) continue;
          l1[h].erase(line);
          ++res.invalidations;
        }
        l->holders.clear();
        l->dirty = true;
      }
      l->holders.insert(c);
    } else {
      ++res.l2_misses;
      if (task_stats) ++res.task_l2_misses[task];
      const uint64_t start = channel_slot(t);
      res.mem_queue_cycles += start - t;
      wait = start + cfg.mem_latency_cycles - t;
      res.mem_stall_cycles += wait;
      const std::optional<Cache::Line> victim =
          l2.insert(Cache::Line{line, write, {c}});
      if (victim && victim->dirty) write_back(t);
    }
    const std::optional<Cache::Line> victim = l1[c].insert({line, write, {}});
    if (victim) {
      if (Cache::Line* l = l2.find(victim->line)) {
        l->holders.erase(c);
        l->dirty = l->dirty || victim->dirty;
      } else if (victim->dirty) {
        write_back(t);
      }
    }
    return wait;
  };

  struct Core {
    TaskId task = kNoTask;  // kNoTask: idle
    TraceCursor trace;
    uint64_t cycle = 0;
  };
  std::vector<Core> cores(P);

  // Policy 2, with the oracle's own ready-set accounting.
  std::vector<uint32_t> parents_left(n);
  for (TaskId t = 0; t < n; ++t) parents_left[t] = dag.task(t).num_parents;
  std::set<TaskId> ready(dag.roots().begin(), dag.roots().end());

  SchedContext ctx(P);
  ctx.l1_bytes = cfg.l1_bytes;
  ctx.l2_bytes = cfg.l2_bytes;
  ctx.line_bytes = cfg.line_bytes;
  ctx.l2_banks = cfg.l2_banks;
  sched.reset(dag, ctx);
  sched.enqueue_ready(0, dag.roots());

  auto dispatch = [&](int c, uint64_t t) {
    const TaskId u = sched.acquire(c);
    if (u == kNoTask) return false;
    if (ready.erase(u) == 0) {
      throw std::logic_error("oracle: " + std::string(sched.name()) +
                             " handed out task " + std::to_string(u) +
                             ", which is not ready");
    }
    Core& core = cores[c];
    core.task = u;
    core.trace = dag.cursor(u);
    core.cycle = std::max(core.cycle, t) + cfg.task_dispatch_cycles;
    res.core_busy_cycles[c] += cfg.task_dispatch_cycles;
    return true;
  };
  for (int c = 0; c < P; ++c) {
    if (!dispatch(c, 0)) break;
  }

  auto complete = [&](int c) {
    const TaskId done = cores[c].task;
    const uint64_t t = cores[c].cycle;
    sched.on_complete(c, done);
    ++res.tasks_executed;
    res.cycles = std::max(res.cycles, t);
    std::vector<TaskId> newly;
    for (TaskId ch : dag.children(done)) {
      if (--parents_left[ch] == 0) {
        ready.insert(ch);
        newly.push_back(ch);
      }
    }
    cores[c].task = kNoTask;
    if (!newly.empty()) sched.enqueue_ready(c, newly);
    if (!dispatch(c, t)) return;
    for (int i = 0; i < P; ++i) {
      if (cores[i].task == kNoTask && !dispatch(i, t)) return;
    }
  };

  // Policy 1: one event per step, at the busy core with the smallest
  // (cycle, id).
  while (res.tasks_executed < n) {
    int c = -1;
    for (int i = 0; i < P; ++i) {
      if (cores[i].task != kNoTask &&
          (c < 0 || cores[i].cycle < cores[c].cycle)) {
        c = i;
      }
    }
    if (c < 0) throw std::runtime_error("oracle: deadlock");
    Core& core = cores[c];
    const TraceOp op = core.trace.next();
    if (op.kind == TraceOp::kDone) {
      complete(c);
      continue;
    }
    res.instructions += op.instr;
    uint64_t cost = op.instr;  // a compute block, or an L1 hit
    if (op.kind == TraceOp::kMem) {
      const uint64_t line = op.addr / cfg.line_bytes;
      if (task_stats) ++res.task_refs[core.task];
      if (Cache::Line* l = l1[c].touch(line)) {
        ++res.l1_hits;
        l->dirty = l->dirty || op.is_write;
      } else {
        cost = op.instr - 1 + l2_access(c, core.task, line, op.is_write,
                                        core.cycle);
      }
    }
    core.cycle += cost;
    res.core_busy_cycles[c] += cost;
  }
  res.steals = sched.steal_count();
  return res;
}

}  // namespace cachesched::oracle
