// Shared experiment harness: builds paper benchmarks sized for a CMP
// configuration and scale factor, constructs schedulers by name, and runs
// simulations. Used by `cachesched_cli paper`, the examples and the
// integration tests, so all experiments agree on sizing rules.
//
// Scaling rule: at scale s the inputs are
// s times the paper's, and callers pass a CmpConfig whose caches were
// scaled by the same s (CmpConfig::scaled). Shapes — who wins, by what
// factor, where crossovers fall — depend on the input/cache ratios, which
// are preserved.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "sched/registry.h"
#include "simarch/config.h"
#include "simarch/engine.h"
#include "workloads/common.h"

namespace cachesched {

struct AppOptions {
  double scale = 0.125;
  /// Mergesort per-task working-set target; 0 = auto (L2 / (2 * cores)).
  uint64_t mergesort_task_ws = 0;
  /// Fine-grained threading (the paper's modified benchmarks). false =
  /// the coarse originals (§5.4).
  bool fine_grained = true;
  uint64_t seed = 42;
};

/// Known apps: mergesort, hashjoin, lu, matmul, quicksort, heat,
/// cholesky. make_workload (harness/workload_registry.h) resolves these
/// and the synthetic src/gen specs alike; new code should prefer it.
Workload make_app(const std::string& name, const CmpConfig& cfg,
                  const AppOptions& opt);

std::vector<std::string> known_apps();

// Schedulers ("pdf", "ws", "fifo", ...) are constructed by spec via
// make_scheduler from sched/registry.h, included above so existing
// callers keep working.

/// Runs `w` on `cfg` under scheduler `sched`.
SimResult simulate_app(const Workload& w, const CmpConfig& cfg,
                       const std::string& sched);

/// Sequential baseline: the same workload on one core of the same
/// configuration (paper Figure 2's denominator).
SimResult simulate_sequential(const Workload& w, const CmpConfig& cfg);

}  // namespace cachesched
