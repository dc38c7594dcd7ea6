// Parallel Mergesort workload (paper §4.2, Figure 1).
//
// Structured after libpmsort: recursive mergesort where the serial merge of
// two sorted sub-arrays is replaced by a *parallel merge*: k splitting
// points are selected (binary searches), creating k pairs of array chunks
// merged in parallel.
//
// DAG structure for sort(n), mirroring the Cilk-style spawn tree so that
// work stealing unfolds subtrees exactly as it would at run time:
//
//     divide ──► sort(left half) ──┐
//        └─────► sort(right half) ─┴─► split ─► k merge chunks ─► join
//
// Leaves sort `leaf_elems` elements with a sequential mergesort (log2
// passes over the region and its buffer). Buffers alternate between the
// primary array A and buffer B by recursion level, as the real algorithm's
// do (merging n bytes uses 2n bytes of memory — §3).
//
// Granularity knobs (paper §5.4, §6.2):
//  * task_ws_bytes: target per-task working set; the leaf sub-array size is
//    half of it ("choosing the sorting sub-array size to be half the
//    desired working set size", §5.4), and merge chunks are sized to it.
//  * merge_tasks_per_level: the paper's rule — within the sub-DAG sorting a
//    sub-array half the L2 size, aggregate merge tasks per level = 64.
#pragma once

#include <cstdint>

#include "workloads/common.h"

namespace cachesched {

struct MergesortParams {
  uint64_t num_elems = 1u << 22;   // 4M (paper: 32M; scaled per harness/apps.h)
  uint32_t elem_bytes = 4;
  uint64_t task_ws_bytes = 512 * 1024;  // Figure 6 knob
  uint32_t merge_tasks_per_level = 64;  // paper §5 footnote 5
  uint64_t l2_bytes = 8u << 20;    // the config's L2 (for the k rule)
  uint32_t line_bytes = 128;
  // Merge inner-loop cost per element (compare, move, index arithmetic,
  // loop overhead). Calibrated so the L2 misses-per-1000-instructions
  // ratios land in the paper's Figure 2(f)/6(a) range (~0.5-2).
  uint32_t instr_per_elem = 24;
  // When false, merges are serial tasks (the "coarse-grained original"
  // libpmsort behaviour discussed in §5.4).
  bool parallel_merge = true;

  std::string describe() const;
};

/// Builds the Mergesort computation DAG with task-group annotations.
Workload build_mergesort(const MergesortParams& p);

}  // namespace cachesched
