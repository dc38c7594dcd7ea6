// Computation DAG (paper §3): nodes are tasks (maximal dependence-free
// thread segments) carrying a memory-reference trace; edges are
// dependences. The DAG also records the *task-group hierarchy* used by the
// working-set profiler and automatic coarsening (paper §6): each group is a
// range of consecutive tasks in sequential order, annotated with the
// spawning call site and its size parameter.
#pragma once

#include <cassert>
#include <cstdint>
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
  std::vector<GroupId> children;
  const char* file = "";      // spawning call site (Figure 7)
  int line = 0;
  int64_t param = 0;          // problem-size parameter at this site
  /// True if the children of this group are mutually independent (can run
  /// in parallel); the coarsening criterion is applied per independent set.
  bool children_parallel = true;

  uint64_t num_tasks() const { return uint64_t{last_task} - first_task + 1; }
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

  /// The task's reference blocks in the compact storage form; kInterleave
  /// blocks index into interleave_data().
  std::span<const PackedRef> blocks(TaskId t) const {
    const Task& n = tasks_[t];
    return {blocks_.data() + n.first_block, n.num_blocks};
  }

  /// Side table holding kInterleave stream data (PackedRef::side_index).
  const InterleaveSide* interleave_data() const { return inter_.data(); }

  /// Derived expansion constants, one per interleave_data() entry (same
  /// side_index), built once at DAG construction so the simulator's
  /// refill re-derives nothing per block (see InterleaveFast).
  const InterleaveFast* interleave_fast() const { return inter_fast_.data(); }

  /// Reconstructs the builder-facing descriptor of one of this DAG's
  /// packed blocks (used when re-building a derived DAG, e.g. coarsening).
  RefBlock unpack(const PackedRef& p) const {
    return unpack_ref(p, inter_.data());
  }

  TraceCursor cursor(TaskId t) const {
    const Task& n = tasks_[t];
    return TraceCursor(blocks_.data() + n.first_block, n.num_blocks,
                       inter_.data());
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

  /// Checks structural invariants (edges forward in sequential order, group
  /// nesting well-formed, ...). Returns an empty string when valid, else a
  /// description of the first violation. Used by tests and the builder.
  std::string validate() const;

  /// Resident byte sizes of the DAG's components — the "memory at paper
  /// scale" accounting reported by `cachesched_cli memory`.
  struct MemoryStats {
    uint64_t trace_arena_bytes = 0;  // PackedRef arena + interleave tables
    uint64_t task_bytes = 0;         // Task records
    uint64_t edge_bytes = 0;         // child-edge CSR + roots
    uint64_t group_bytes = 0;        // TaskGroup records + children vectors
    uint64_t total() const {
      return trace_arena_bytes + task_bytes + edge_bytes + group_bytes;
    }
  };
  MemoryStats memory_stats() const;

 private:
  friend class DagBuilder;
  friend TaskDag load_dag(const std::string& path);  // core/dag_io.h
  /// (Re)builds inter_fast_ from inter_; called wherever a TaskDag is
  /// assembled (DagBuilder::finish, load_dag).
  void build_interleave_fast();
  std::vector<Task> tasks_;
  std::vector<PackedRef> blocks_;        // flat arena, 32 B per block
  std::vector<InterleaveSide> inter_;    // kInterleave stream side table
  std::vector<InterleaveFast> inter_fast_;  // derived, parallel to inter_
  std::vector<TaskId> child_edges_;
  std::vector<TaskGroup> groups_;
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

  size_t num_tasks() const { return dag_.tasks_.size(); }

  /// Finalizes edge CSR and roots; the builder must not be reused after.
  TaskDag finish();

 private:
  TaskDag dag_;
  std::vector<std::pair<TaskId, TaskId>> edges_;  // (parent, child)
  std::vector<GroupId> group_stack_;
  bool finished_ = false;
};

}  // namespace cachesched
