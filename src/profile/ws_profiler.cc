#include "profile/ws_profiler.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "profile/bucketed_stack.h"
#include "profile/line_map.h"

namespace cachesched {

WorkingSetProfiler::WorkingSetProfiler(std::vector<uint64_t> cache_sizes_bytes,
                                       uint32_t line_bytes)
    : line_bytes_(line_bytes) {
  if (cache_sizes_bytes.empty()) {
    throw std::invalid_argument("need at least one cache size");
  }
  if (cache_sizes_bytes.size() > kMaxSizes) {
    throw std::invalid_argument("at most 15 cache sizes");
  }
  if (!std::has_single_bit(static_cast<uint64_t>(line_bytes))) {
    throw std::invalid_argument("line size must be a power of two");
  }
  for (size_t i = 0; i < cache_sizes_bytes.size(); ++i) {
    const uint64_t lines = cache_sizes_bytes[i] / line_bytes;
    if (lines == 0) throw std::invalid_argument("cache smaller than a line");
    if (i > 0 && lines <= sizes_lines_.back()) {
      throw std::invalid_argument("cache sizes must be strictly increasing");
    }
    sizes_lines_.push_back(lines);
  }
}

void WorkingSetProfiler::run(const TaskDag& dag) {
  if (ran_) throw std::logic_error("profiler already ran");
  ran_ = true;

  const int line_shift = std::countr_zero(line_bytes_);
  const size_t n = dag.num_tasks();
  task_offset_.assign(n + 1, 0);
  refs_prefix_.assign(n + 1, 0);

  BucketedLruStack stack(sizes_lines_);
  // The current task's references as runs of equal (bucket, delta) keys;
  // a task's histogram is its runs, sorted and merged.
  struct Run {
    uint64_t key;  // bucket << 32 | delta: sorts as (bucket, delta)
    uint64_t count;
  };
  std::vector<Run> runs;

  for (TaskId i = 0; i < n; ++i) {
    uint64_t refs = 0;
    TraceCursor cur = dag.cursor(i);
    for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
      if (op.kind != TraceOp::kMem) continue;
      ++refs;
      const BucketRef r = stack.access(op.addr >> line_shift, i);
      if (r.cold()) continue;  // never a hit for any group/size
      const uint64_t key = (uint64_t{r.bucket} << 32) | (i - r.prev_task);
      if (!runs.empty() && runs.back().key == key) {
        ++runs.back().count;
      } else {
        runs.push_back(Run{key, 1});
      }
    }
    task_offset_[i] = entries_.size();
    std::sort(runs.begin(), runs.end(),
              [](const Run& a, const Run& b) { return a.key < b.key; });
    for (size_t a = 0; a < runs.size();) {
      const uint64_t key = runs[a].key;
      uint64_t count = 0;
      for (; a < runs.size() && runs[a].key == key; ++a) count += runs[a].count;
      while (count > 0) {
        const uint64_t c = std::min<uint64_t>(count, kMaxCount);
        Entry en;
        en.delta = static_cast<uint32_t>(key);
        en.bucket = static_cast<uint32_t>(key >> 32);
        en.count = static_cast<uint32_t>(c);
        entries_.push_back(en);
        count -= c;
      }
    }
    runs.clear();
    refs_prefix_[i + 1] = refs_prefix_[i] + refs;
  }
  task_offset_[n] = entries_.size();
  total_refs_ = refs_prefix_[n];
}

size_t WorkingSetProfiler::num_tasks() const {
  if (!ran_) throw std::logic_error("profiler has not run");
  return task_offset_.size() - 1;
}

void WorkingSetProfiler::check_group(TaskId b, TaskId e) const {
  if (b > e || e >= num_tasks()) {
    throw std::out_of_range("task group outside the profiled DAG");
  }
}

uint64_t WorkingSetProfiler::group_refs(TaskId b, TaskId e) const {
  check_group(b, e);
  return refs_prefix_[e + 1] - refs_prefix_[b];
}

uint64_t WorkingSetProfiler::group_hits(TaskId b, TaskId e,
                                        size_t size_idx) const {
  check_group(b, e);
  if (size_idx >= sizes_lines_.size()) {
    throw std::out_of_range("size index");
  }
  uint64_t hits = 0;
  for (TaskId i = b; i <= e; ++i) {
    const uint32_t max_delta = i - b;
    for (uint64_t k = task_offset_[i]; k < task_offset_[i + 1]; ++k) {
      const Entry& en = entries_[k];
      if (en.bucket > size_idx) break;  // entries sorted by bucket
      if (en.delta <= max_delta) hits += en.count;
    }
  }
  return hits;
}

uint64_t WorkingSetProfiler::group_distinct_lines(TaskId b, TaskId e) const {
  check_group(b, e);
  // Distinct lines = refs - hits at infinite capacity with in-group reuse.
  uint64_t reuse = 0;
  for (TaskId i = b; i <= e; ++i) {
    const uint32_t max_delta = i - b;
    for (uint64_t k = task_offset_[i]; k < task_offset_[i + 1]; ++k) {
      const Entry& en = entries_[k];
      if (en.delta <= max_delta) reuse += en.count;
    }
  }
  return group_refs(b, e) - reuse;
}

std::vector<uint64_t> task_working_set_bytes(const TaskDag& dag,
                                             uint32_t line_bytes) {
  if (!std::has_single_bit(line_bytes)) {
    throw std::invalid_argument("line size must be a power of two");
  }
  const int line_shift = std::countr_zero(line_bytes);
  // A line counts toward a task the first time that task touches it; tasks
  // run one after another, so "first time" = "last visitor is another".
  PagedLineMap<TaskId> last_visitor(kNoTask);
  std::vector<uint64_t> bytes(dag.num_tasks());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    uint64_t lines = 0;
    TraceCursor cur = dag.cursor(t);
    for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
      if (op.kind != TraceOp::kMem) continue;
      TaskId& v = last_visitor[op.addr >> line_shift];
      lines += v != t;
      v = t;
    }
    bytes[t] = lines * line_bytes;
  }
  return bytes;
}

}  // namespace cachesched
