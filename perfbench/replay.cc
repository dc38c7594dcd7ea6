#include "replay.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sched/registry.h"
#include "simarch/cache.h"
#include "simarch/memchannel.h"

namespace perfbench {

using cachesched::CmpConfig;
using cachesched::kNoTask;
using cachesched::SetAssocCache;
using cachesched::TaskDag;
using cachesched::TaskId;
using cachesched::TraceOp;

namespace {

constexpr uint64_t kNoVictim = ~uint64_t{0};

// One L1 miss: the reference (line << 1 | write) and the L1 victim it
// displaced (line << 1 | dirty), or kNoVictim.
struct L1Miss {
  uint64_t ref;
  uint64_t victim;
};

}  // namespace

void replay_memory(const TaskDag& dag, const CmpConfig& cfg, Tracer& tr,
                   MemoryReplay* acc) {
  const int line_shift =
      std::countr_zero(static_cast<unsigned>(cfg.line_bytes));
  const size_t n = dag.num_tasks();

  {
    Tracer::Span sp(tr, "core", "TraceCursor expand");
    uint64_t refs = 0;
    uint64_t sink = 0;
    for (TaskId t = 0; t < n; ++t) {
      cachesched::TraceCursor cur = dag.cursor(t);
      for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
        if (op.kind != TraceOp::kMem) continue;
        ++refs;
        sink += op.addr ^ op.is_write;
      }
    }
    acc->expand_s += sp.close();
    acc->expand_refs += refs;
    acc->sink += sink;
  }

  std::vector<uint64_t> refs;
  {
    Tracer::Span sp(tr, "perfbench", "collect line stream");
    refs.reserve(std::min<uint64_t>(dag.total_refs(), kReplayMaxRefs));
    for (TaskId t = 0; t < n && refs.size() < kReplayMaxRefs; ++t) {
      cachesched::TraceCursor cur = dag.cursor(t);
      for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
        if (op.kind != TraceOp::kMem) continue;
        refs.push_back((op.addr >> line_shift) << 1 | (op.is_write ? 1 : 0));
        if (refs.size() == kReplayMaxRefs) break;
      }
    }
  }

  std::vector<L1Miss> l1_misses;
  l1_misses.reserve(refs.size());
  {
    SetAssocCache l1(static_cast<uint64_t>(cfg.l1_sets()), cfg.l1_ways);
    Tracer::Span sp(tr, "simarch", "SetAssocCache L1 probe+fill");
    for (uint64_t r : refs) {
      const uint64_t line = r >> 1;
      const bool write = (r & 1) != 0;
      if (SetAssocCache::Line* e = l1.access(line)) {
        e->dirty |= write;
        continue;
      }
      SetAssocCache::Line* installed = nullptr;
      const SetAssocCache::Evicted ev = l1.install(line, write, &installed);
      l1_misses.push_back(
          {r, ev.valid ? (ev.line << 1 | (ev.dirty ? 1 : 0)) : kNoVictim});
    }
    acc->l1_s += sp.close();
    acc->l1_accesses += refs.size();
  }

  // Per L2 miss: whether it evicted a dirty line (a writeback).
  std::vector<uint8_t> l2_misses;
  l2_misses.reserve(l1_misses.size());
  {
    SetAssocCache l2(static_cast<uint64_t>(cfg.l2_sets()), cfg.l2_ways);
    Tracer::Span sp(tr, "simarch", "SetAssocCache L2 access+presence");
    for (const L1Miss& m : l1_misses) {
      const uint64_t line = m.ref >> 1;
      const bool write = (m.ref & 1) != 0;
      SetAssocCache::Line* e = nullptr;
      SetAssocCache::Evicted evd;
      if (l2.access_or_install(line, write, &e, &evd)) {
        if (write) e->dirty = true;
      } else {
        l2_misses.push_back(evd.valid && evd.dirty ? 1 : 0);
      }
      e->presence = 1;
      if (m.victim != kNoVictim) {
        if (SetAssocCache::Line* v = l2.probe(m.victim >> 1)) {
          v->presence = 0;
          v->dirty |= (m.victim & 1) != 0;
        }
      }
    }
    acc->l2_s += sp.close();
    acc->l2_accesses += l1_misses.size();
  }

  {
    cachesched::MemChannel mem(cfg.mem_latency_cycles, cfg.mem_service_cycles);
    Tracer::Span sp(tr, "simarch", "MemChannel request");
    uint64_t now = 0;
    uint64_t sink = 0;
    for (uint8_t writeback : l2_misses) {
      now += static_cast<uint64_t>(cfg.mem_service_cycles);
      sink += mem.request(now);
      if (writeback) mem.post_writeback(now);
    }
    acc->mem_s += sp.close();
    acc->mem_requests += l2_misses.size();
    acc->sink += sink + mem.busy_cycles();
  }
}

void replay_dispatch(const TaskDag& dag, const CmpConfig& cfg,
                     const std::string& spec, Tracer& tr,
                     DispatchReplay* acc) {
  std::unique_ptr<cachesched::Scheduler> s = cachesched::make_scheduler(spec);
  const int P = cfg.cores;
  cachesched::SchedContext ctx(P);
  ctx.l1_bytes = cfg.l1_bytes;
  ctx.l2_bytes = cfg.l2_bytes;
  ctx.line_bytes = cfg.line_bytes;
  ctx.l2_banks = cfg.l2_banks;
  {
    Tracer::Span sp(tr, "sched", spec + " reset");
    s->reset(dag, ctx);
    acc->reset_s += sp.close();
  }

  const size_t n = dag.num_tasks();
  std::vector<uint32_t> indeg(n);
  for (TaskId t = 0; t < n; ++t) indeg[t] = dag.task(t).num_parents;
  std::vector<char> idle(static_cast<size_t>(P), 1);
  std::deque<std::pair<int, TaskId>> running;  // completes front first
  std::vector<TaskId> ready;
  uint64_t deferred = 0;

  // The engine's greedy dispatch: core `first` (the completing core), then
  // every idle core in id order, stopping at the first refusal.
  auto dispatch = [&](int first) {
    for (int step = first < 0 ? 1 : 0; step < P + 1; ++step) {
      const int i = step == 0 ? first : step - 1;
      if (!idle[static_cast<size_t>(i)]) continue;
      const TaskId u = s->acquire(i);
      if (u == kNoTask) {
        if (!s->empty()) ++deferred;
        break;
      }
      idle[static_cast<size_t>(i)] = 0;
      running.emplace_back(i, u);
    }
  };

  Tracer::Span sp(tr, "sched", spec + " dispatch");
  s->enqueue_ready(0, dag.roots());
  dispatch(-1);
  size_t completed = 0;
  while (completed < n) {
    if (running.empty()) {
      throw std::runtime_error("dispatch replay of " + spec + " stalled with " +
                               std::to_string(n - completed) + " tasks left");
    }
    const auto [c, t] = running.front();
    running.pop_front();
    s->on_complete(c, t);
    ++completed;
    idle[static_cast<size_t>(c)] = 1;
    ready.clear();
    for (TaskId ch : dag.children(t)) {
      if (--indeg[ch] == 0) ready.push_back(ch);
    }
    if (!ready.empty()) s->enqueue_ready(c, ready);
    dispatch(c);
  }
  acc->dispatch_s += sp.close();
  acc->tasks += n;
  acc->deferred += deferred;
}

}  // namespace perfbench
