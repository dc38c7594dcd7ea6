#include "coarsen/coarsen.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace cachesched {

bool ParallelizeTable::parallelize(uint64_t l2_bytes, int cores,
                                   const std::string& file, int line,
                                   int64_t param) const {
  const int64_t t = threshold(l2_bytes, cores, file, line);
  if (t < 0) return true;  // unknown site: finest grain
  return param > t;
}

int64_t ParallelizeTable::threshold(uint64_t l2_bytes, int cores,
                                    const std::string& file, int line) const {
  for (const ParallelizeEntry& e : rows_) {
    if (e.l2_bytes == l2_bytes && e.num_cores == cores && e.line == line &&
        e.file == file) {
      return e.threshold;
    }
  }
  return -1;
}

CoarsenResult select_task_granularity(const TaskDag& dag,
                                      const WorkingSetProfiler& profiler,
                                      const CoarsenParams& params) {
  if (profiler.num_tasks() != dag.num_tasks()) {
    throw std::invalid_argument(
        "select_task_granularity: the profiler ran on a different DAG");
  }
  CoarsenResult result;
  result.budget_bytes = params.budget_bytes();
  if (dag.num_groups() == 0) return result;

  // (file, line) -> max stopping param.
  std::map<std::pair<std::string, int>, int64_t> thresholds;

  // Iterative DFS from the root group, pre-order (parents before children),
  // stopping at the first group that fits the per-core budget.
  std::vector<GroupId> stack = {dag.root_group()};
  std::vector<GroupId> stopping;
  while (!stack.empty()) {
    const GroupId g = stack.back();
    stack.pop_back();
    const TaskGroup& grp = dag.group(g);
    const uint64_t ws = profiler.working_set_bytes(dag, g);
    if (ws <= result.budget_bytes) {
      stopping.push_back(g);
      auto key = std::make_pair(std::string(grp.file), grp.line);
      auto [it, inserted] = thresholds.try_emplace(key, grp.param);
      if (!inserted) it->second = std::max(it->second, grp.param);
      continue;
    }
    // Push children in reverse so they pop in sequential order.
    const std::span<const GroupId> children = dag.group_children(g);
    stack.insert(stack.end(), children.rbegin(), children.rend());
  }
  std::sort(stopping.begin(), stopping.end(),
            [&](GroupId a, GroupId b) {
              return dag.group(a).first_task < dag.group(b).first_task;
            });
  result.stopping_groups = std::move(stopping);
  for (const auto& [key, param] : thresholds) {
    ParallelizeEntry e;
    e.l2_bytes = params.cache_bytes;
    e.num_cores = params.num_cores;
    e.file = key.first;
    e.line = key.second;
    e.threshold = param;
    result.table.add(std::move(e));
  }
  return result;
}

TaskDag coarsen_dag(const TaskDag& dag,
                    const std::vector<GroupId>& stopping_groups) {
  const size_t n = dag.num_tasks();
  constexpr uint32_t kNone = UINT32_MAX;
  // Which stopping group owns each task (groups are disjoint task ranges).
  std::vector<uint32_t> owner(n, kNone);
  for (size_t s = 0; s < stopping_groups.size(); ++s) {
    const TaskGroup& grp = dag.group(stopping_groups[s]);
    for (TaskId t = grp.first_task; t <= grp.last_task; ++t) {
      if (owner[t] != kNone) {
        throw std::invalid_argument("stopping groups overlap");
      }
      owner[t] = static_cast<uint32_t>(s);
    }
  }
  // New node id per original task, in sequential order.
  std::vector<TaskId> node(n, kNoTask);
  TaskId next = 0;
  for (TaskId t = 0; t < n; ++t) {
    if (owner[t] != kNone && t > 0 && owner[t - 1] == owner[t]) {
      node[t] = node[t - 1];
    } else {
      node[t] = next++;
    }
  }
  // Quotient edges, deduplicated.
  std::vector<std::vector<TaskId>> parents(next);
  for (TaskId t = 0; t < n; ++t) {
    for (TaskId c : dag.children(t)) {
      if (node[c] != node[t]) parents[node[c]].push_back(node[t]);
    }
  }
  for (auto& p : parents) {
    std::sort(p.begin(), p.end());
    p.erase(std::unique(p.begin(), p.end()), p.end());
  }
  // Rebuild over the source's arena: a collapsed group's members are
  // consecutive tasks, so their blocks are one contiguous run of it, in
  // sequential order (a serial execution of the group's code).
  DagBuilder b(dag);
  for (TaskId t = 0; t < n; ++t) {
    if (t > 0 && node[t] == node[t - 1]) continue;
    uint32_t num_blocks = 0;
    for (TaskId m = t; m < n && node[m] == node[t]; ++m) {
      num_blocks += dag.task(m).num_blocks;
    }
    const auto& par = parents[node[t]];
    b.add_task_over(std::span<const TaskId>(par.data(), par.size()),
                    num_blocks);
  }
  return b.finish();
}

}  // namespace cachesched
