#include "core/dag.h"

#include <algorithm>
#include <stdexcept>

namespace cachesched {

uint64_t TaskDag::weighted_depth() const {
  // Tasks are in topological (sequential) order, so one forward pass works.
  std::vector<uint64_t> dist(tasks_.size(), 0);
  uint64_t depth = 0;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const uint64_t d = dist[t] + tasks_[t].work;
    depth = std::max(depth, d);
    for (TaskId c : children(t)) dist[c] = std::max(dist[c], d);
  }
  return depth;
}

uint64_t TaskDag::node_depth() const {
  std::vector<uint32_t> dist(tasks_.size(), 0);
  uint32_t depth = 0;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    const uint32_t d = dist[t] + 1;
    depth = std::max(depth, d);
    for (TaskId c : children(t)) dist[c] = std::max(dist[c], d);
  }
  return depth;
}

void TaskDag::build_group_children() {
  for (const TaskGroup& g : groups_) {
    if (g.parent != kNoGroup) ++groups_[g.parent].num_children;
  }
  uint32_t next = 0;
  for (TaskGroup& g : groups_) {
    g.first_child = next;
    next += g.num_children;
    g.num_children = 0;
  }
  group_child_edges_.assign(next, kNoGroup);
  for (GroupId g = 0; g < groups_.size(); ++g) {
    const GroupId p = groups_[g].parent;
    if (p == kNoGroup) continue;
    TaskGroup& pg = groups_[p];
    group_child_edges_[pg.first_child + pg.num_children++] = g;
  }
}

TaskDag::MemoryStats TaskDag::memory_stats() const {
  MemoryStats m;
  if (arena_) {
    m.trace_arena_bytes = arena_->blocks.size() * sizeof(PackedRef) +
                          arena_->inter.size() * sizeof(InterleaveSide);
  }
  m.task_bytes = tasks_.size() * sizeof(Task);
  m.edge_bytes = child_edges_.size() * sizeof(TaskId) +
                 roots_.size() * sizeof(TaskId);
  m.group_bytes = groups_.size() * sizeof(TaskGroup) +
                  group_child_edges_.size() * sizeof(GroupId);
  return m;
}

std::string TaskDag::validate() const {
  // Block ranges tile the arena in task order: every block belongs to
  // exactly one task, so total_refs() is what a replay executes.
  uint64_t next_block = 0;
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (tasks_[t].first_block != next_block) {
      return "block ranges do not tile the arena in task order at task " +
             std::to_string(t);
    }
    next_block += tasks_[t].num_blocks;
  }
  if (next_block != (arena_ ? arena_->blocks.size() : 0)) {
    return "block ranges do not cover the arena";
  }
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    for (TaskId c : children(t)) {
      if (c <= t) {
        return "edge not forward in sequential order: " + std::to_string(t) +
               " -> " + std::to_string(c);
      }
      if (c >= tasks_.size()) return "edge to nonexistent task";
    }
  }
  // Parent counts must match incoming edges.
  std::vector<uint32_t> indeg(tasks_.size(), 0);
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    for (TaskId c : children(t)) ++indeg[c];
  }
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (indeg[t] != tasks_[t].num_parents) {
      return "parent count mismatch at task " + std::to_string(t);
    }
    if (indeg[t] == 0) {
      if (std::find(roots_.begin(), roots_.end(), t) == roots_.end()) {
        return "root not recorded: " + std::to_string(t);
      }
    }
  }
  // Group nesting: children ranges inside parent range; siblings disjoint
  // and ordered.
  for (GroupId g = 0; g < groups_.size(); ++g) {
    const TaskGroup& grp = groups_[g];
    if (grp.first_task > grp.last_task) return "empty/inverted group";
    TaskId prev_end = 0;
    bool first = true;
    for (GroupId c : group_children(g)) {
      const TaskGroup& ch = groups_[c];
      if (ch.parent != g) return "group parent link broken";
      if (ch.first_task < grp.first_task || ch.last_task > grp.last_task) {
        return "child group outside parent range";
      }
      if (!first && ch.first_task <= prev_end) {
        return "sibling groups overlap or out of order";
      }
      prev_end = ch.last_task;
      first = false;
    }
  }
  return "";
}

DagBuilder::DagBuilder() : arena_(std::make_shared<TraceArena>()) {}

DagBuilder::DagBuilder(const TaskDag& source) {
  dag_.arena_ =
      source.arena_ ? source.arena_ : std::make_shared<const TraceArena>();
}

GroupId DagBuilder::begin_group(const char* file, int line, int64_t param,
                                bool children_parallel) {
  if (finished_) throw std::logic_error("builder already finished");
  TaskGroup g;
  g.file = file;
  g.line = line;
  g.param = param;
  g.children_parallel = children_parallel;
  g.first_task = static_cast<TaskId>(dag_.tasks_.size());
  g.last_task = g.first_task;  // fixed up at end_group
  const GroupId id = static_cast<GroupId>(dag_.groups_.size());
  if (!group_stack_.empty()) g.parent = group_stack_.back();
  dag_.groups_.push_back(g);
  group_stack_.push_back(id);
  return id;
}

void DagBuilder::end_group() {
  if (group_stack_.empty()) throw std::logic_error("end_group without begin");
  const GroupId id = group_stack_.back();
  group_stack_.pop_back();
  TaskGroup& g = dag_.groups_[id];
  if (dag_.tasks_.size() == g.first_task) {
    throw std::logic_error("empty task group at " + std::string(g.file) + ":" +
                           std::to_string(g.line));
  }
  g.last_task = static_cast<TaskId>(dag_.tasks_.size() - 1);
}

TaskId DagBuilder::add_task(std::span<const TaskId> parents,
                            std::span<const RefBlock> blocks) {
  if (finished_) throw std::logic_error("builder already finished");
  if (!arena_) {
    throw std::logic_error("builder shares an arena; use add_task_over");
  }
  Task t;
  t.first_block = static_cast<uint32_t>(arena_->blocks.size());
  t.num_blocks = static_cast<uint32_t>(blocks.size());
  for (const RefBlock& b : blocks) {
    t.work += b.total_instr();
    dag_.total_refs_ += b.total_refs();
    arena_->blocks.push_back(pack_ref(b, &arena_->inter));
  }
  return add_task_record(parents, t);
}

TaskId DagBuilder::add_task_over(std::span<const TaskId> parents,
                                 uint32_t num_blocks) {
  if (finished_) throw std::logic_error("builder already finished");
  if (arena_) {
    throw std::logic_error("add_task_over needs a builder over a DAG");
  }
  const std::vector<PackedRef>& arena = dag_.arena_->blocks;
  if (uint64_t{next_block_} + num_blocks > arena.size()) {
    throw std::invalid_argument("task runs past the end of the shared arena");
  }
  Task t;
  t.first_block = next_block_;
  t.num_blocks = num_blocks;
  for (uint32_t i = 0; i < num_blocks; ++i) {
    t.work += arena[next_block_ + i].total_instr();
    dag_.total_refs_ += arena[next_block_ + i].total_refs();
  }
  next_block_ += num_blocks;
  return add_task_record(parents, t);
}

TaskId DagBuilder::add_task_record(std::span<const TaskId> parents, Task t) {
  const TaskId id = static_cast<TaskId>(dag_.tasks_.size());
  t.num_parents = static_cast<uint32_t>(parents.size());
  t.group = group_stack_.empty() ? kNoGroup : group_stack_.back();
  dag_.total_work_ += t.work;
  for (TaskId p : parents) {
    if (p >= id) {
      throw std::invalid_argument(
          "dependence edge must point forward in sequential order");
    }
    edges_.emplace_back(p, id);
  }
  dag_.tasks_.push_back(t);
  return id;
}

TaskDag DagBuilder::finish() {
  if (finished_) throw std::logic_error("builder already finished");
  if (!group_stack_.empty()) throw std::logic_error("unclosed task group");
  if (!arena_ && next_block_ != dag_.arena_->blocks.size()) {
    throw std::logic_error("tasks do not cover the shared arena");
  }
  finished_ = true;
  // CSR for child edges. Edges were appended per-child; sort by parent,
  // keeping insertion (spawn) order within a parent via stable_sort.
  std::stable_sort(
      edges_.begin(), edges_.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  dag_.child_edges_.resize(edges_.size());
  size_t e = 0;
  for (TaskId t = 0; t < dag_.tasks_.size(); ++t) {
    dag_.tasks_[t].first_child = static_cast<uint32_t>(e);
    uint32_t n = 0;
    while (e < edges_.size() && edges_[e].first == t) {
      dag_.child_edges_[e] = edges_[e].second;
      ++e;
      ++n;
    }
    dag_.tasks_[t].num_children = n;
  }
  for (TaskId t = 0; t < dag_.tasks_.size(); ++t) {
    if (dag_.tasks_[t].num_parents == 0) dag_.roots_.push_back(t);
  }
  dag_.build_group_children();
  if (arena_) dag_.arena_ = std::move(arena_);
  return std::move(dag_);
}

}  // namespace cachesched
