#include "simarch/engine.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "simarch/engine_detail.h"

namespace cachesched {

double SimResult::core_utilization() const {
  if (cycles == 0 || core_busy_cycles.empty()) return 0.0;
  double sum = 0;
  for (uint64_t b : core_busy_cycles) sum += static_cast<double>(b);
  return sum / (static_cast<double>(cycles) *
                static_cast<double>(core_busy_cycles.size()));
}

namespace {

// The run-buffer op format and the batched trace expansion live in
// engine_detail.h; tests/trace_test.cc compares the expander with the
// reference TraceCursor.
using engine_detail::BufOp;
using engine_detail::evt_key;
using engine_detail::kBufOps;
using engine_detail::kBufWrite;
using engine_detail::TraceExpander;

// How far past the other cores' earliest event a core runs ahead on
// compute and L1 hits (see engine.h).
constexpr uint64_t kRunAheadCycles = 1000;

// Thrown when a run-ahead pass broke causality; run() re-runs exactly.
struct RunAheadBroken {};

// indeg[] value of a dispatched task (a real in-degree never reaches it).
constexpr uint32_t kDispatched = UINT32_MAX;

// The scheduler contract start_task enforces: `t` is a task of the DAG,
// not yet dispatched, and every parent has completed.
[[noreturn]] void contract_violation(const char* sched, TaskId t, int core,
                                     uint64_t num_tasks, uint32_t indeg) {
  std::string why;
  if (t >= num_tasks) {
    why = "which is out of range (" + std::to_string(num_tasks) + " tasks)";
  } else if (indeg == kDispatched) {
    why = "which was already dispatched";
  } else {
    why = "which still has " + std::to_string(indeg) + " incomplete parent" +
          (indeg == 1 ? "" : "s");
  }
  throw std::logic_error(std::string("scheduler ") + sched + " handed task " +
                         std::to_string(t) + " to core " +
                         std::to_string(core) + ", " + why);
}

struct CoreState {
  enum State : uint8_t { kIdle, kRunning, kPendingL2, kCompleting };
  State state = kIdle;
  TaskId task = kNoTask;
  uint64_t time = 0;
  uint64_t busy = 0;
  // Trace expansion position within the current task's PackedRefs;
  // advanced by refill(), which expands ops ahead of the simulation
  // (expansion is a pure function of the blocks, so running ahead cannot
  // diverge). The expansion mirrors TraceCursor::next() exactly — the
  // profilers replay the same streams through TraceCursor, and
  // tests/golden_sim_test.cc pins the engine's results against
  // pre-optimization fixtures.
  const PackedRef* blocks = nullptr;
  uint32_t num_blocks = 0;
  uint32_t bi = 0;             // block index
  uint32_t ri = 0;             // reference index within block
  uint32_t em[3] = {0, 0, 0};  // per-stream emitted lines (kInterleave)
  // Run buffer of expanded ops (consumed [head, len)).
  int head = 0;
  int len = 0;
  // Pending shared-L2 access.
  uint64_t pend_line = 0;
  uint32_t pend_instr = 0;
  bool pend_write = false;
  // Last: the buffer is bulk-filled and sequentially consumed; keeping it
  // out of the way lets the scalar state above share cache lines.
  BufOp buf[kBufOps];
};

// The simulation loop. There is no materialized event queue: every
// non-idle core has exactly one pending event, at its own `time`, so the
// next event is the non-idle core with the smallest (time, id) — one
// P-element scan per event (P <= 32) instead of heap churn on every
// shared-L2 access. The same scan also yields the earliest event of any
// *other* core, which bounds the dispatched core's local run-ahead, so
// the hot path never rescans.
// While the dispatched core's next shared-L2 access falls strictly
// before every other core's event it is performed inline in the same
// run (run_core) — the event the scan would pick next is this core's
// anyway — so the per-reference path on the L2-dominated workloads never
// leaves the run loop or spills its accumulator state.
// `exact` selects the pass: false runs ahead and throws RunAheadBroken on
// a detected violation; true takes every op in exact order (engine.h).
SimResult simulate(const CmpConfig& cfg, bool exact, bool collect_stats,
                   const TaskDag& dag, Scheduler& sched) {
  const int P = cfg.cores;
  const int line_shift =
      std::countr_zero(static_cast<unsigned>(cfg.line_bytes));

  SimResult res;
  res.scheduler = sched.name();
  res.config = cfg.name;
  res.cores = P;
  res.core_busy_cycles.assign(P, 0);
  if (collect_stats) {
    res.task_l2_misses.assign(dag.num_tasks(), 0);
    res.task_refs.assign(dag.num_tasks(), 0);
  }

  std::vector<SetAssocCache> l1;
  l1.reserve(P);
  for (int i = 0; i < P; ++i) l1.emplace_back(cfg.l1_sets(), cfg.l1_ways);
  SetAssocCache l2(cfg.l2_sets(), cfg.l2_ways);
  MemChannel mem(cfg.mem_latency_cycles, cfg.mem_service_cycles);

  std::vector<CoreState> cores(P);
  // Event keys, densely scanned by the main loop: core i's pending event
  // time pre-packed as (time << 5) | i, or UINT64_MAX when idle. Packing
  // at the (rare) write keeps the per-event two-smallest reduction a pure
  // chain of loads and cmovs; id bits never change the time order because
  // cycle counts stay far below 2^58. Kept in sync with cores[i].
  std::vector<uint64_t> evt(P, UINT64_MAX);
  // Per core and L1 slot, the (time, core) key of the slot's last hit. A
  // stale stamp never raises a false alarm: refilling the slot is an L2
  // access, performed in key order after that hit and before any
  // invalidation of the new line. It is kept per thread across runs:
  // freeing it after every run shifted glibc's heap trimming enough to
  // slow a following workload build by 15-40% (shared-l2 `setup_s`).
  const uint64_t l1_lines = l1[0].capacity_lines();
  static thread_local std::vector<uint64_t> stamps;
  stamps.assign(P * l1_lines, 0);
  bool broke = false;  // an invalidation found a later stamp
  // Incomplete parents per task; kDispatched once the task is dispatched.
  std::vector<uint32_t> indeg(dag.num_tasks());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    indeg[t] = dag.task(t).num_parents;
  }

  size_t completed = 0;
  uint64_t end_time = 0;
  std::vector<TaskId> ready_buf;

  // Whole-run statistic accumulators, flushed into `res` once after the
  // event loop: with one shared-L2 access per dispatch on the scaled
  // configurations, per-dispatch zero+flush of these was measurable.
  uint64_t acc_instr = 0;
  uint64_t acc_l1_hits = 0;
  uint64_t acc_l2_hits = 0;
  uint64_t acc_l2_misses = 0;
  uint64_t acc_invalidations = 0;
  uint64_t acc_stall = 0;

  SchedContext sctx(P);
  sctx.l1_bytes = cfg.l1_bytes;
  sctx.l2_bytes = cfg.l2_bytes;
  sctx.line_bytes = cfg.line_bytes;
  sctx.l2_banks = cfg.l2_banks;
  sched.reset(dag, sctx);
  sched.enqueue_ready(0, dag.roots());

  auto start_task = [&](int c, TaskId t, uint64_t now) {
    // The scheduler contract, always checked: a ready task is in range
    // and has indeg 0 (a waiting task holds its parent count, a
    // dispatched one kDispatched).
    if (t >= indeg.size() || indeg[t] != 0) [[unlikely]] {
      contract_violation(sched.name(), t, c, indeg.size(),
                         t < indeg.size() ? indeg[t] : 0);
    }
    indeg[t] = kDispatched;
    CoreState& core = cores[c];
    core.task = t;
    const std::span<const PackedRef> blocks = dag.blocks(t);
    core.blocks = blocks.data();
    core.num_blocks = static_cast<uint32_t>(blocks.size());
    core.bi = 0;
    core.ri = 0;
    core.em[0] = core.em[1] = core.em[2] = 0;
    core.head = 0;
    core.len = 0;
    core.time = std::max(core.time, now) + cfg.task_dispatch_cycles;
    core.busy += cfg.task_dispatch_cycles;
    core.state = CoreState::kRunning;
    evt[c] = evt_key(core.time, c);
  };

  // Expands the next batch of trace ops into core's run buffer, advancing
  // the expansion position; returns the number of ops buffered (0 = task
  // trace exhausted). Expansion never looks at the caches or the clock, so
  // running ahead of the simulation is safe — the batched expander itself
  // (per-block constants amortized over the batch, interleave schedules
  // specialized by the record's kind, the same emission sequence as
  // TraceCursor) lives in engine_detail.h and is pinned by
  // tests/golden_sim_test.cc and the equality tests in tests/trace_test.cc.
  const TraceExpander expander{dag.interleave_data(), line_shift};
  auto refill = [&expander](CoreState& core) {
    const int len = expander.expand(core.blocks, core.num_blocks, core.bi,
                                    core.ri, core.em, core.buf, kBufOps);
    core.head = 0;
    core.len = len;
    return len;
  };

  // Runs core c: consumes buffered trace ops, refilling as needed, and
  // performs shared-L2 accesses *inline* while this core's access time is
  // strictly before `other_min` (the earliest pending event of any other
  // core) — exactly the accesses the event loop would have chained back
  // to this core anyway, now without leaving the loop or spilling the
  // accumulator locals. Exits when the task's trace is exhausted
  // (kCompleting), when its time passes `limit` (yield), or when an
  // access is due at or after `other_min` — then the reference is left
  // pending (kPendingL2) for the next dispatch, which re-enters here and
  // performs it first. The yield check sits before every op and every
  // event-ordering decision matches the event-queue formulation;
  // tests/golden_sim_test.cc pins the equivalence.
  auto run_core = [&](int c, uint64_t other_min, uint64_t other_key) {
    CoreState& core = cores[c];
    SetAssocCache& cache = l1[c];
    uint64_t* const stamp = &stamps[c * l1_lines];
    // Run-ahead: up to kRunAheadCycles past other_min (saturating). Exact:
    // the inline L2 path's key rule as a time bound, so a tie at other_min
    // yields to a lower core id (c won the scan then, so other_min > 0).
    const uint64_t limit =
        exact ? other_min - (c > static_cast<int>(other_key & 31))
              : other_min + std::min(kRunAheadCycles, UINT64_MAX - other_min);
    const uint32_t mybit = 1u << c;

    int head = core.head;
    int len = core.len;
    uint64_t time = core.time;
    uint64_t busy = 0;
    uint32_t refs = 0;

    // One shared-L2 access of (line, write) at time t: L2 probe/fill with
    // presence/inclusion bookkeeping and the memory channel on a miss,
    // then the L1 fill. Returns the core cycles the access costs beyond
    // the first of the reference's `ipr` charged instructions. Shared
    // state mutates at the same global times in the same order as the
    // pre-fusion engine.
    auto l2_access = [&](uint64_t t, uint64_t line, bool write,
                         uint32_t ipr) -> uint64_t {
      uint64_t lat;
      SetAssocCache::Line* e;
      SetAssocCache::Evicted evd;
      if (l2.access_or_install(line, write, &e, &evd)) {
        if (cfg.l2_banks > 0) {
          // Distributed L2: local-bank latency plus ring hops to the
          // line's home bank (address-interleaved).
          const int banks = cfg.l2_banks;
          const int home =
              static_cast<int>(line % static_cast<uint64_t>(banks));
          const int slot =
              static_cast<int>(static_cast<int64_t>(c) * banks / cfg.cores);
          const int d = std::abs(home - slot);
          const int hops = std::min(d, banks - d);
          lat = cfg.l2_local_hit_cycles +
                static_cast<uint64_t>(hops) * cfg.bank_hop_cycles;
        } else {
          lat = cfg.l2_hit_cycles;
        }
        ++acc_l2_hits;
        if (write) {
          // A copy hit later than this write breaks causality. Run-ahead
          // compares (time, core) keys; that also flags a same-cycle hit
          // that exact order takes first, because this write's task was
          // dispatched later in the cycle (engine.h): a spare re-run,
          // never a missed violation. The exact pass takes ops in
          // non-decreasing time and compares with (t, 31), the cycle's
          // last key: only a hit in a later cycle counts, and is a bug.
          const uint64_t key = evt_key(t, exact ? 31 : c);
          uint32_t others = e->presence & ~mybit;
          while (others) {
            const int i = std::countr_zero(others);
            others &= others - 1;
            if (SetAssocCache::Line* v = l1[i].probe(line)) {
              broke |= stamps[i * l1_lines + l1[i].slot_of(v)] > key;
              l1[i].invalidate(v);
            }
            ++acc_invalidations;
          }
          e->presence &= mybit;
          e->dirty = true;
        }
        e->presence |= mybit;
      } else {
        ++acc_l2_misses;
        if (collect_stats) ++res.task_l2_misses[core.task];
        const uint64_t ready = mem.request(t);
        lat = ready - t;
        acc_stall += lat;
        e->presence = mybit;
        // Non-inclusive L2: an eviction does not back-invalidate L1
        // copies (see header comment); a dirty victim is written
        // off-chip.
        if (evd.valid && evd.dirty) mem.post_writeback(t);
      }
      // L1 fill, maintaining L2 inclusion bookkeeping. The serving L2
      // entry's slot index rides in the L1 entry's otherwise-unused
      // presence field (presence is an L2-only concept), so when the
      // victim is evicted later, a tag compare against the memoized slot
      // usually replaces the L2 re-probe.
      SetAssocCache::Line* installed;
      const auto ev = cache.install(line, write, &installed);
      installed->presence = l2.slot_of(e);
      if (ev.valid) {
        SetAssocCache::Line* l2v = l2.entry_at(ev.presence);
        if (l2v->tag != ev.line) l2v = l2.probe(ev.line);
        if (l2v != nullptr) {
          l2v->presence &= ~mybit;
          // Unconditional OR: the victim's dirty bit is data-dependent
          // and mispredicts as a branch.
          l2v->dirty |= ev.dirty;
        } else if (ev.dirty) {
          // Inclusion was broken by a back-invalidation race; data must
          // still reach memory.
          mem.post_writeback(t);
        }
      }
      return (ipr - 1) + lat;
    };

    enum : int { kYield, kDone, kMiss } exit_kind;

    // Access about to be performed; primed from the pending reference on
    // a kPendingL2 re-dispatch (performed first, at this core's event
    // time — the reference itself was already counted when it missed the
    // L1). Keeping one l2_access call site lets it inline into the loop.
    uint64_t a_line = core.pend_line;
    bool a_wr = core.pend_write;
    uint32_t a_ipr = core.pend_instr;
    bool do_access = core.state == CoreState::kPendingL2;

    for (;;) {
      if (do_access) {
        do_access = false;
        const uint64_t cost = l2_access(time, a_line, a_wr, a_ipr);
        time += cost;
        busy += cost;
        continue;
      }
      if (time > limit) {
        exit_kind = kYield;
        break;
      }
      if (head == len) {
        len = refill(core);
        if (len == 0) {
          head = 0;
          exit_kind = kDone;
          break;
        }
        head = 0;
      }
      const BufOp& op = core.buf[head];
      ++head;
      if (op.meta == 0) {  // compute
        time += op.v;
        busy += op.v;
        acc_instr += op.v;
        continue;
      }
      const uint32_t ipr = op.meta & ~kBufWrite;
      const bool wr = (op.meta & kBufWrite) != 0;
      ++refs;
      acc_instr += ipr;
      if (SetAssocCache::Line* e = cache.access(op.v)) {
        e->dirty |= wr;
        stamp[cache.slot_of(e)] = evt_key(time, c);
        ++acc_l1_hits;
        time += ipr;
        busy += ipr;
      } else if (evt_key(time, c) < other_key) {
        // This access is the event the scan would pick next (its packed
        // (time, id) key precedes every other core's — the scan's exact
        // rule, including ties), so perform it without yielding.
        a_line = op.v;
        a_wr = wr;
        a_ipr = ipr;
        do_access = true;
      } else {
        core.pend_line = op.v;
        core.pend_write = wr;
        core.pend_instr = ipr;
        exit_kind = kMiss;
        break;
      }
    }
    core.head = head;
    core.time = time;
    evt[c] = evt_key(time, c);
    core.busy += busy;
    if (collect_stats) res.task_refs[core.task] += refs;
    switch (exit_kind) {
      case kYield:
        core.state = CoreState::kRunning;  // core.time is its re-queue event
        break;
      case kDone:
        core.state = CoreState::kCompleting;
        break;
      case kMiss:
        core.state = CoreState::kPendingL2;
        break;
    }
  };

  auto do_complete = [&](int c, uint64_t t) {
    CoreState& core = cores[c];
    sched.on_complete(c, core.task);
    ++res.tasks_executed;
    ++completed;
    end_time = std::max(end_time, t);
    ready_buf.clear();
    for (TaskId ch : dag.children(core.task)) {
      if (--indeg[ch] == 0) ready_buf.push_back(ch);
    }
    core.task = kNoTask;
    core.state = CoreState::kIdle;
    evt[c] = UINT64_MAX;
    if (!ready_buf.empty()) sched.enqueue_ready(c, ready_buf);
    // Greedy dispatch: the completing core first (it owns the hot deque in
    // WS), then every idle core in id order. acquire() failure means no
    // work exists anywhere, so stopping at the first failure is safe.
    for (int step = 0; step < P + 1; ++step) {
      const int i = (step == 0) ? c : step - 1;
      if (cores[i].state != CoreState::kIdle) continue;
      const TaskId u = sched.acquire(i);
      if (u == kNoTask) break;
      start_task(i, u, t);
    }
  };

  for (int i = 0; i < P; ++i) {
    const TaskId u = sched.acquire(i);
    if (u == kNoTask) break;
    start_task(i, u, 0);
  }

  while (completed < dag.num_tasks()) {
    // One scan finds the next event — the non-idle core with the smallest
    // (time, id) — and the earliest event of any other core, as a
    // branch-free two-smallest reduction over the pre-packed keys (the
    // compared values are data-dependent and mispredict heavily as
    // branches).
    uint64_t k1 = UINT64_MAX;  // smallest (time, id) key
    uint64_t k2 = UINT64_MAX;  // second-smallest key
    for (int i = 0; i < P; ++i) {
      const uint64_t key = evt[i];
      const uint64_t hi = key > k1 ? key : k1;
      k1 = key < k1 ? key : k1;
      k2 = hi < k2 ? hi : k2;
    }
    if (k1 == UINT64_MAX) {
      throw std::runtime_error(
          "simulation deadlock: tasks remain but no core is active "
          "(unreachable tasks in DAG?)");
    }
    const int c = static_cast<int>(k1 & 31);
    const uint64_t t1 = k1 >> 5;  // picked core's event time
    const uint64_t t2 = k2 >= (uint64_t{1} << 58) ? UINT64_MAX : k2 >> 5;
    if (cores[c].state == CoreState::kCompleting) {
      do_complete(c, t1);
    } else {
      // run_core performs a pending access first (at t1 == the core's
      // own time) and keeps chaining accesses inline while their keys
      // precede k2, so no separate chain loop remains here.
      run_core(c, t2, k2);
      if (broke) [[unlikely]] {
        if (exact) throw std::logic_error("causality violation, exact pass");
        throw RunAheadBroken{};
      }
    }
  }

  res.cycles = end_time;
  res.instructions = acc_instr;
  res.l1_hits = acc_l1_hits;
  res.l2_hits = acc_l2_hits;
  res.l2_misses = acc_l2_misses;
  res.invalidations = acc_invalidations;
  res.mem_stall_cycles = acc_stall;
  res.writebacks = mem.writebacks();
  res.mem_queue_cycles = mem.queue_delay_cycles();
  res.mem_busy_cycles = mem.busy_cycles();
  res.steals = sched.steal_count();
  for (int i = 0; i < P; ++i) res.core_busy_cycles[i] = cores[i].busy;
  return res;
}

}  // namespace

CmpSimulator::CmpSimulator(const CmpConfig& config) : cfg_(config) {
  if (cfg_.cores < 1 || cfg_.cores > 32) {
    throw std::invalid_argument("1..32 cores supported");
  }
  if ((cfg_.line_bytes & (cfg_.line_bytes - 1)) != 0) {
    throw std::invalid_argument("line size must be a power of two");
  }
}

SimResult CmpSimulator::run(const TaskDag& dag, Scheduler& sched) {
  try {
    return simulate(cfg_, false, collect_task_stats_, dag, sched);
  } catch (const RunAheadBroken&) {
    ++exact_reruns_;
    return simulate(cfg_, true, collect_task_stats_, dag, sched);
  }
}

}  // namespace cachesched
