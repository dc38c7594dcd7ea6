// Runtime invariant checkers (DESIGN: src/check/; grammar in checkspec.h).
//
// The Checker maintains an obviously-correct shadow model beside the real
// engine state and cross-checks the two through hooks the engine calls on
// every reference, invalidation, dispatch and completion:
//
//  * a naive ShadowCache per private L1 and for the shared L2 (per-set
//    MRU-first vectors — true LRU by construction, no SWAR, no packing),
//    updated in lockstep from the hit/fill/invalidate hooks. Hit/miss
//    outcomes, fill victims, presence masks and dirty bits must agree
//    op-by-op; every `period` references a full-state audit additionally
//    decodes the SWAR fingerprint/order rows of the real caches and
//    compares contents, LRU order and valid counts set-by-set.
//  * single-writer coherence: a write must invalidate exactly
//    the L1 copies the presence mask names — the expected set is computed
//    from the shadow before the write and each on_inval must consume one
//    entry; a leftover at the next hook is a dropped invalidation.
//  * scheduler conservation: every task dispatched once, completed once,
//    never before its dependencies, with ready-set accounting re-derived
//    from the DAG's in-degrees.
//  * PackedRef expansion spot-checks: sampled dispatched tasks are
//    re-expanded through TraceCursor (the reference expansion) and
//    compared op-by-op against the batched engine expander.
//
// Violations throw CheckViolation, which the CLI turns into a crash
// reproducer file and exit code kExitVerifyFailed (4).
//
// Engine cost: the engine's run loop is templated on the checker type —
// the disarmed instantiation uses NoCheck and the hooks compile away
// entirely.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/checkspec.h"
#include "core/dag.h"
#include "simarch/cache.h"
#include "simarch/config.h"
#include "simarch/engine_detail.h"

namespace cachesched {
namespace check {

/// An invariant violation. `op_index` is the number of memory references
/// the checker had seen when the violation fired — the coordinate a
/// crash reproducer records.
class CheckViolation : public std::runtime_error {
 public:
  /// Job coordinates attached by outer layers (the sweep's run_one) as
  /// the violation propagates, so the CLI can write a crash reproducer
  /// naming the exact failing point of a job matrix.
  struct Context {
    bool set = false;
    std::string app;    // workload spec (app name or genspec)
    std::string sched;  // scheduler spec
    int cores = 0;
    double scale = 0.125;
    uint64_t task_ws = 0;
    bool fine_grained = true;
    uint64_t seed = 42;
  };

  CheckViolation(std::string checker, std::string detail, uint64_t op_index);

  const std::string& checker() const { return checker_; }
  const std::string& detail() const { return detail_; }
  uint64_t op_index() const { return op_index_; }

  void set_context(Context c) { ctx_ = std::move(c); }
  const Context& context() const { return ctx_; }

 private:
  std::string checker_;
  std::string detail_;
  uint64_t op_index_ = 0;
  Context ctx_;
};

/// The reference cache model: per-set MRU-first vectors with true-LRU
/// replacement. Deliberately naive — correctness is meant to be obvious
/// by inspection, so disagreement with SetAssocCache indicts the SWAR
/// fast path (or a missed engine hook), not the model.
class ShadowCache {
 public:
  struct Way {
    uint64_t line = 0;
    bool dirty = false;
    uint32_t presence = 0;  // L2 shadow only
  };
  struct Evict {
    bool valid = false;
    Way way{};
  };

  ShadowCache(uint64_t num_sets, int ways)
      : sets_(num_sets), ways_(ways), mask_(num_sets - 1) {}

  uint64_t num_sets() const { return sets_.size(); }
  int ways() const { return ways_; }
  uint64_t set_of(uint64_t line) const { return line & mask_; }

  /// Probe without touching LRU; nullptr on miss.
  Way* find(uint64_t line) {
    auto& s = sets_[line & mask_];
    for (Way& w : s) {
      if (w.line == line) return &w;
    }
    return nullptr;
  }

  /// Probe and move to MRU; nullptr on miss.
  Way* touch(uint64_t line) {
    auto& s = sets_[line & mask_];
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i].line == line) {
        const Way w = s[i];
        s.erase(s.begin() + static_cast<long>(i));
        s.insert(s.begin(), w);
        return &s.front();
      }
    }
    return nullptr;
  }

  /// Install as MRU, evicting the LRU way when the set is full. The
  /// caller must have established the line is absent.
  Evict install(uint64_t line, bool dirty, uint32_t presence) {
    auto& s = sets_[line & mask_];
    Evict ev;
    if (static_cast<int>(s.size()) == ways_) {
      ev.valid = true;
      ev.way = s.back();
      s.pop_back();
    }
    s.insert(s.begin(), Way{line, dirty, presence});
    return ev;
  }

  /// Removes the line if present; returns whether it was.
  bool erase(uint64_t line) {
    auto& s = sets_[line & mask_];
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i].line == line) {
        s.erase(s.begin() + static_cast<long>(i));
        return true;
      }
    }
    return false;
  }

  /// The set's ways, MRU-first (audit iteration).
  const std::vector<Way>& set_list(uint64_t set) const { return sets_[set]; }

 private:
  std::vector<std::vector<Way>> sets_;
  int ways_;
  uint64_t mask_;
};

/// Checker run statistics (tests assert the checkers actually ran).
struct CheckStats {
  uint64_t refs = 0;         // memory references observed
  uint64_t audits = 0;       // full-state audits performed
  uint64_t spot_checks = 0;  // trace re-expansion spot-checks
};

/// The disarmed checker: the engine instantiates its run loop with
/// this type and every hook call sits under `if constexpr (CK::kArmed)`,
/// so the disarmed hot path carries no code at all.
struct NoCheck {
  static constexpr bool kArmed = false;
};

class Checker {
 public:
  static constexpr bool kArmed = true;

  explicit Checker(const CheckSpec& spec) : spec_(spec) {}

  /// Binds the checker to one run. `l1_live`/`l2_live` are the engine's
  /// real caches for audit-time SWAR decode; `l1_live` may be nullptr to
  /// audit the L2 alone, and `dag` may be nullptr when neither sched nor
  /// trace checking is armed (both as in the cache-only unit tests).
  void on_run_start(const CmpConfig& cfg, const TaskDag* dag,
                    const std::vector<SetAssocCache>* l1_live,
                    const SetAssocCache* l2_live);

  /// End of run: leftover-invalidation flush and scheduler totals.
  void on_run_end();

  // --- engine hooks (one reference = one l1_hit or one l1_fill) --
  void on_l1_hit(int core, uint64_t line, bool write);
  void on_l1_fill(int core, uint64_t line, bool write, bool victim_valid,
                  uint64_t victim_line, bool victim_dirty);
  void on_l2_hit(int core, uint64_t line, bool write);
  void on_l2_miss(int core, uint64_t line, bool write,
                  const SetAssocCache::Evicted& evicted);
  void on_inval(int core, uint64_t line);

  // --- scheduler hooks ---
  void on_dispatch(int core, TaskId t);
  void on_complete(int core, TaskId t);

  /// Full-state audit, also run automatically every `period` references.
  /// Public so mutation tests can force an audit at a chosen point.
  void audit_now();

  /// Compares a batch of expander ops against the reference TraceCursor
  /// re-expansion; throws CheckViolation on the first mismatch.
  /// `base_index` labels the batch's first op in violation messages.
  /// Exposed for the trace mutation tests.
  static void compare_expansion(const engine_detail::BufOp* ops, int n,
                                TraceCursor& cursor, int line_shift,
                                uint64_t base_index);

  const CheckStats& stats() const { return stats_; }
  const CheckSpec& spec() const { return spec_; }

 private:
  struct PendingInv {
    int core;
    uint64_t line;
  };

  [[noreturn]] void violate(const char* checker, std::string detail) const;
  void flush_pending(const char* context);
  void bump_ref();
  void audit_cache(const SetAssocCache& real, const ShadowCache& shadow,
                   bool with_presence, const std::string& label);
  void audit_coherence();
  void spot_check_trace(TaskId t);

  CheckSpec spec_;
  CheckStats stats_;

  const CmpConfig* cfg_ = nullptr;
  const TaskDag* dag_ = nullptr;
  const std::vector<SetAssocCache>* l1_live_ = nullptr;
  const SetAssocCache* l2_live_ = nullptr;
  int line_shift_ = 0;

  std::vector<ShadowCache> sl1_;
  ShadowCache sl2_{1, 1};
  bool shadow_on_ = false;

  // Invalidations the current write still owes (coherence).
  std::vector<PendingInv> pending_;

  // Scheduler conservation (sched).
  std::vector<uint32_t> indeg_;  // open parents per task
  enum : uint8_t { kPending = 0, kDispatched = 1, kCompleted = 2 };
  std::vector<uint8_t> tstate_;
  uint64_t dispatched_ = 0;
  uint64_t completed_tasks_ = 0;
  uint64_t dispatch_count_ = 0;  // trace spot-check sampling
};

}  // namespace check
}  // namespace cachesched
