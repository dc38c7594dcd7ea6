// Automatic task-coarsening (paper §6.2).
//
// The selector traverses the task-group tree top-down and stops descending
// once a group's working set W satisfies the paper's criterion
//
//     W <= K * (cachesize / (numcores * 2))
//
// evaluated per independent child set. Because sibling groups in the
// studied programs have similar working sets (the paper's own assumption,
// "K child task groups of similar sizes"), the criterion is equivalent to
// the per-group form  WS(group) <= cachesize / (2 * numcores), which is
// what we apply: a group becomes one coarsened task iff it is a *maximal*
// group whose working set fits the per-core budget.
//
// Outputs:
//  * the set of stopping groups (the selected granularity),
//  * a coarsened TaskDag where each stopping group's sub-DAG collapses
//    into one serial task (trace = members concatenated in sequential
//    order) — the paper's "dag" evaluation mode (Figure 8, middle bars),
//  * a ParallelizeTable (Figure 7(b)) mapping (CMP config, call site) to
//    the parameter threshold below which code should run sequentially —
//    used to *regenerate* the program at the selected granularity (the
//    "actual" mode, Figure 8, right bars).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dag.h"
#include "profile/ws_profiler.h"

namespace cachesched {

struct CoarsenParams {
  uint64_t cache_bytes = 0;  // the target CMP's shared L2
  int num_cores = 1;
  /// The paper's divide-by-two slack against task-size variability.
  double slack = 2.0;

  uint64_t budget_bytes() const {
    return static_cast<uint64_t>(
        static_cast<double>(cache_bytes) /
        (static_cast<double>(num_cores) * slack));
  }
};

/// One row of the Figure 7(b) parallelization table.
struct ParallelizeEntry {
  uint64_t l2_bytes = 0;
  int num_cores = 0;
  std::string file;
  int line = 0;
  int64_t threshold = 0;  // Parallelize(param) := param > threshold
};

class ParallelizeTable {
 public:
  void add(ParallelizeEntry e) { rows_.push_back(std::move(e)); }

  /// Figure 7(a): should the call site subdivide further at `param`?
  /// Unknown sites default to parallelizing (finest grain).
  bool parallelize(uint64_t l2_bytes, int cores, const std::string& file,
                   int line, int64_t param) const;

  /// Threshold lookup; returns -1 when no row matches.
  int64_t threshold(uint64_t l2_bytes, int cores, const std::string& file,
                    int line) const;

  const std::vector<ParallelizeEntry>& rows() const { return rows_; }

 private:
  std::vector<ParallelizeEntry> rows_;
};

struct CoarsenResult {
  /// Maximal groups with WS <= budget, in sequential order; disjoint and,
  /// together with tasks outside any stopping group, covering the DAG.
  std::vector<GroupId> stopping_groups;
  ParallelizeTable table;
  uint64_t budget_bytes = 0;
};

/// Runs the §6.2 selection. `profiler` must already have run() on `dag`;
/// a profile of a DAG with another task count throws
/// std::invalid_argument.
CoarsenResult select_task_granularity(const TaskDag& dag,
                                      const WorkingSetProfiler& profiler,
                                      const CoarsenParams& params);

/// Collapses each stopping group into one serial task ("dag" mode). Tasks
/// outside every stopping group survive unchanged. Dependencies are the
/// quotient of the original edges. The result shares `dag`'s trace arena
/// (each task is a contiguous run of it) and has no task groups; it stays
/// valid after `dag` is destroyed.
TaskDag coarsen_dag(const TaskDag& dag,
                    const std::vector<GroupId>& stopping_groups);

}  // namespace cachesched
