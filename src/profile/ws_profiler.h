// One-pass working-set profiler for groups of consecutive tasks — the
// paper's LruTree algorithm (§6.1).
//
// A single sequential-order replay of the program's reference trace
// collects, for every task i, a sparse two-dimensional histogram over
//   (distance bucket, previous-task delta = i - j),
// where the distance buckets correspond to the list of candidate cache
// sizes D1 < D2 < ... < Dk (plus an implicit "infinite" bucket used for
// working-set/cold-miss queries).
//
// The hits of any group of consecutive tasks [b, e] at cache size Dp are
// then   sum over i in [b,e] of buckets (D <= Dp, delta <= i - b):
// a reference hits in the group's cold-started cache iff its reuse
// distance fits AND its previous visitor lies inside the group — and
// because group tasks are consecutive in sequential order, the global
// reuse distance equals the group-local one whenever the previous visitor
// is in the group.
//
// The working-set size of a group is its distinct-lines count times the
// line size (= references minus infinite-cache in-group hits).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dag.h"
#include "profile/lru_stack.h"

namespace cachesched {

class WorkingSetProfiler {
 public:
  /// `cache_sizes_bytes` must be strictly increasing; these are the D1..Dk
  /// candidate sizes working-set queries can be answered for.
  WorkingSetProfiler(std::vector<uint64_t> cache_sizes_bytes,
                     uint32_t line_bytes);

  /// Replays `dag`'s tasks in sequential order through the LRU stack model
  /// (the one pass). Must be called exactly once.
  void run(const TaskDag& dag);

  /// References issued by tasks [b, e] (inclusive).
  uint64_t group_refs(TaskId b, TaskId e) const;

  /// Hits of group [b, e] replayed alone from a cold cache of size
  /// `size_idx` (fully associative LRU).
  uint64_t group_hits(TaskId b, TaskId e, size_t size_idx) const;

  uint64_t group_misses(TaskId b, TaskId e, size_t size_idx) const {
    return group_refs(b, e) - group_hits(b, e, size_idx);
  }

  /// Distinct lines touched by the group (its cold misses).
  uint64_t group_distinct_lines(TaskId b, TaskId e) const;

  /// Working-set size in bytes (distinct lines x line size).
  uint64_t group_working_set_bytes(TaskId b, TaskId e) const {
    return group_distinct_lines(b, e) * line_bytes_;
  }

  /// Convenience for a whole TaskGroup.
  uint64_t working_set_bytes(const TaskDag& dag, GroupId g) const {
    const TaskGroup& grp = dag.group(g);
    return group_working_set_bytes(grp.first_task, grp.last_task);
  }

  uint64_t total_refs() const { return total_refs_; }
  uint64_t histogram_entries() const { return entries_.size(); }

 private:
  struct Entry {
    uint32_t delta;    // current task id - previous visitor id
    uint16_t bucket;   // smallest size index the reference hits at
    uint32_t count;
  };

  std::vector<uint64_t> sizes_lines_;  // strictly increasing, in lines
  uint32_t line_bytes_;
  bool ran_ = false;

  // CSR: per-task entries sorted by (bucket, delta).
  std::vector<Entry> entries_;
  std::vector<uint64_t> task_offset_;
  std::vector<uint64_t> refs_prefix_;  // refs_prefix_[i] = refs of tasks < i
  uint64_t total_refs_ = 0;
};

}  // namespace cachesched
