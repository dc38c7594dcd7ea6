#include "profile/setassoc_profiler.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "profile/bucketed_stack.h"

namespace cachesched {

SetAssocProfiler::GroupStats SetAssocProfiler::profile_group(
    const TaskDag& dag, TaskId b, TaskId e, uint64_t cache_bytes) const {
  const int line_shift = std::countr_zero(line_bytes_);
  const uint64_t lines = std::max<uint64_t>(cache_bytes / line_bytes_, 1);
  GroupStats s;
  // A fully-associative true-LRU cache of C lines hits exactly the
  // references with reuse distance < C (Mattson): bucket 0 of the
  // one-size bucketed stack, which is that cache. The multi-pass
  // structure — one cold replay per (group, size), the §6.1 baseline this
  // profiler exists to represent — is unchanged.
  BucketedLruStack stack({lines});
  for (TaskId t = b; t <= e; ++t) {
    TraceCursor cur = dag.cursor(t);
    for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
      if (op.kind != TraceOp::kMem) continue;
      ++s.refs;
      s.hits += stack.access(op.addr >> line_shift, t).bucket == 0;
    }
  }
  return s;
}

std::vector<std::vector<uint64_t>> SetAssocProfiler::profile_all_groups(
    const TaskDag& dag, const std::vector<uint64_t>& cache_sizes) const {
  std::vector<std::vector<uint64_t>> misses(dag.num_groups());
  for (GroupId g = 0; g < dag.num_groups(); ++g) {
    const TaskGroup& grp = dag.group(g);
    misses[g].reserve(cache_sizes.size());
    for (uint64_t size : cache_sizes) {
      misses[g].push_back(
          profile_group(dag, grp.first_task, grp.last_task, size).misses());
    }
  }
  return misses;
}

}  // namespace cachesched
