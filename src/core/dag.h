// Computation DAG (paper §3): nodes are tasks (maximal dependence-free
// thread segments) carrying a memory-reference trace; edges are
// dependences. The DAG also records the *task-group hierarchy* used by the
// working-set profiler and automatic coarsening (paper §6): each group is a
// range of consecutive tasks in sequential order, annotated with the
// spawning call site and its size parameter.
//
// Each thing is stored once. The tasks' reference blocks live in one
// immutable arena in task order, shared by every DAG that replays them (a
// coarsened DAG points at its source's arena); child tasks and child groups
// are flat CSR lists.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/trace.h"
#include "core/types.h"

namespace cachesched {

struct Task {
  uint32_t first_block = 0;   // index into TaskDag::blocks()
  uint32_t num_blocks = 0;
  uint32_t num_parents = 0;
  uint32_t first_child = 0;   // index into TaskDag::child_edges()
  uint32_t num_children = 0;
  GroupId group = kNoGroup;   // innermost enclosing group
  uint64_t work = 0;          // total instructions (cached)
};

/// A group of consecutive tasks (a sub-graph of the DAG) — paper §6.1.
/// Sibling groups are disjoint; a parent is the union of its children plus
/// possibly some direct tasks. Leaves of the hierarchy are individual tasks.
struct TaskGroup {
  GroupId parent = kNoGroup;
  TaskId first_task = 0;      // inclusive
  TaskId last_task = 0;       // inclusive; empty groups are disallowed
  uint32_t first_child = 0;   // index into the group-child CSR
  uint32_t num_children = 0;  // (TaskDag::group_children)
  int line = 0;
  const char* file = "";      // spawning call site (Figure 7)
  int64_t param = 0;          // problem-size parameter at this site
  /// True if the children of this group are mutually independent (can run
  /// in parallel); the coarsening criterion is applied per independent set.
  bool children_parallel = true;

  uint64_t num_tasks() const { return uint64_t{last_task} - first_task + 1; }
};

/// Every task's packed reference blocks, in task order, plus the
/// kInterleave side table. Immutable once built; held by shared_ptr so a
/// derived DAG (coarsen_dag) replays its source's blocks without a copy.
struct TraceArena {
  std::vector<PackedRef> blocks;      // 32 B per block
  std::vector<InterleaveSide> inter;  // one record per kInterleave block
};

class TaskDag {
 public:
  size_t num_tasks() const { return tasks_.size(); }
  size_t num_groups() const { return groups_.size(); }

  const Task& task(TaskId t) const { return tasks_[t]; }
  const TaskGroup& group(GroupId g) const { return groups_[g]; }
  GroupId root_group() const { return groups_.empty() ? kNoGroup : 0; }

  std::span<const TaskId> children(TaskId t) const {
    const Task& n = tasks_[t];
    return {child_edges_.data() + n.first_child, n.num_children};
  }

  /// The group's child groups, in sequential order.
  std::span<const GroupId> group_children(GroupId g) const {
    const TaskGroup& grp = groups_[g];
    return {group_child_edges_.data() + grp.first_child, grp.num_children};
  }

  /// The task's reference blocks in the compact storage form; kInterleave
  /// blocks index into interleave_data().
  std::span<const PackedRef> blocks(TaskId t) const {
    const Task& n = tasks_[t];
    return {arena_->blocks.data() + n.first_block, n.num_blocks};
  }

  /// Side table holding each kInterleave block's streams
  /// (PackedRef::side_index).
  const InterleaveSide* interleave_data() const {
    return arena_ ? arena_->inter.data() : nullptr;
  }

  TraceCursor cursor(TaskId t) const {
    const Task& n = tasks_[t];
    return TraceCursor(arena_->blocks.data() + n.first_block, n.num_blocks,
                       arena_->inter.data());
  }

  /// Tasks with no parents, in sequential order.
  const std::vector<TaskId>& roots() const { return roots_; }

  /// Total instructions over all tasks.
  uint64_t total_work() const { return total_work_; }

  /// Total memory references over all tasks.
  uint64_t total_refs() const { return total_refs_; }

  /// DAG depth: the longest path measured in per-task instructions
  /// (the D of Theorem 3.1, in work units).
  uint64_t weighted_depth() const;

  /// Longest path measured in tasks.
  uint64_t node_depth() const;

  /// Checks structural invariants (edges forward in sequential order, the
  /// tasks' block ranges tiling the arena in task order, group nesting
  /// well-formed, ...). Returns an empty string when valid, else a
  /// description of the first violation. Used by tests and the builder.
  std::string validate() const;

  /// Byte sizes of the DAG's stored elements (vector sizes, not their
  /// capacities) — the "memory at paper scale" accounting reported by
  /// `cachesched_cli memory`. A DAG that shares its arena with another (a
  /// coarsened DAG and its source) counts all of the arena, so the two
  /// DAGs' totals overlap.
  struct MemoryStats {
    uint64_t trace_arena_bytes = 0;  // PackedRef arena + interleave table
    uint64_t task_bytes = 0;         // Task records
    uint64_t edge_bytes = 0;         // child-edge CSR + roots
    uint64_t group_bytes = 0;        // TaskGroup records + group-child CSR
    uint64_t total() const {
      return trace_arena_bytes + task_bytes + edge_bytes + group_bytes;
    }
  };
  MemoryStats memory_stats() const;

 private:
  friend class DagBuilder;
  /// Builds the group-child CSR from the groups' parent links (a parent
  /// precedes its children, which are listed in id order; every
  /// num_children starts at 0); called by DagBuilder::finish.
  void build_group_children();
  std::vector<Task> tasks_;
  std::shared_ptr<const TraceArena> arena_;  // null only in an empty DAG
  std::vector<TaskId> child_edges_;
  std::vector<TaskGroup> groups_;
  std::vector<GroupId> group_child_edges_;
  std::vector<TaskId> roots_;
  uint64_t total_work_ = 0;
  uint64_t total_refs_ = 0;
};

/// Builds a TaskDag. Contract: tasks must be added in the order the
/// *sequential* program would execute them (the 1DF order). The builder
/// checks that every dependence edge points forward in that order, which is
/// always satisfiable for fork-join programs because sequential execution
/// is a topological order of the DAG.
class DagBuilder {
 public:
  DagBuilder();

  /// Builds a DAG over `source`'s trace arena instead of a new one: tasks
  /// are added with add_task_over, each taking the next run of the arena's
  /// blocks, and finish() requires that they take all of it. The result
  /// shares the arena and stays valid after `source` is destroyed.
  explicit DagBuilder(const TaskDag& source);

  /// Opens a task group at call site (file, line) with size parameter
  /// `param`. Groups nest; all tasks added before the matching end_group()
  /// belong to it.
  GroupId begin_group(const char* file, int line, int64_t param,
                      bool children_parallel = true);
  void end_group();

  /// Adds a task depending on `parents` with reference trace `blocks`.
  /// Returns its id (== its 1DF sequential index).
  TaskId add_task(std::span<const TaskId> parents,
                  std::span<const RefBlock> blocks);

  TaskId add_task(std::initializer_list<TaskId> parents,
                  std::initializer_list<RefBlock> blocks) {
    return add_task(std::span<const TaskId>(parents.begin(), parents.size()),
                    std::span<const RefBlock>(blocks.begin(), blocks.size()));
  }

  /// Convenience for builders that assemble parent/block lists in vectors
  /// (the src/gen/ workload generators); forwards to the span overload.
  TaskId add_task(const std::vector<TaskId>& parents,
                  const std::vector<RefBlock>& blocks) {
    return add_task(std::span<const TaskId>(parents.data(), parents.size()),
                    std::span<const RefBlock>(blocks.data(), blocks.size()));
  }

  /// Single-dependence convenience (kNoTask = a root task): the common
  /// case for chain- and tree-shaped generators.
  TaskId add_task_after(TaskId parent, const std::vector<RefBlock>& blocks) {
    if (parent == kNoTask) {
      return add_task(std::span<const TaskId>{},
                      std::span<const RefBlock>(blocks.data(), blocks.size()));
    }
    return add_task(std::span<const TaskId>(&parent, 1),
                    std::span<const RefBlock>(blocks.data(), blocks.size()));
  }

  /// Adds a task depending on `parents` whose trace is the next
  /// `num_blocks` blocks of the shared arena (DagBuilder(const TaskDag&)).
  TaskId add_task_over(std::span<const TaskId> parents, uint32_t num_blocks);

  size_t num_tasks() const { return dag_.tasks_.size(); }

  /// Finalizes edge CSR and roots; the builder must not be reused after.
  TaskDag finish();

 private:
  TaskId add_task_record(std::span<const TaskId> parents, Task t);

  TaskDag dag_;
  std::shared_ptr<TraceArena> arena_;  // the arena being built; null when
                                       // the builder shares dag_.arena_
  uint32_t next_block_ = 0;            // shared arena: next unclaimed block
  std::vector<std::pair<TaskId, TaskId>> edges_;  // (parent, child)
  std::vector<GroupId> group_stack_;
  bool finished_ = false;
};

}  // namespace cachesched
