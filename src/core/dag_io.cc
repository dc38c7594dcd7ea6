#include "core/dag_io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <type_traits>

namespace cachesched {
namespace {

// Version 2 added RefBlock::period (wrapped strides); version 1 files
// lay RefBlocks out differently and are rejected by name.
constexpr uint64_t kMagic = 0x4341534447303032ull;    // "CASDG002"
constexpr uint64_t kMagicV1 = 0x4341534447303031ull;  // "CASDG001"

static_assert(std::is_trivially_copyable_v<Task>);
static_assert(std::is_trivially_copyable_v<RefBlock>);

// Stable storage for call-site file names of loaded DAGs (TaskGroup holds
// const char*). Interned once per distinct name, lives for the process.
const char* intern(const std::string& s) {
  static std::mutex mu;
  static std::set<std::string> pool;
  std::lock_guard<std::mutex> lock(mu);
  return pool.insert(s).first->c_str();
}

struct File {
  std::FILE* f;
  explicit File(std::FILE* f) : f(f) {}
  ~File() {
    if (f) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
};

template <typename T>
void write_pod(std::FILE* f, const T& v) {
  if (std::fwrite(&v, sizeof(T), 1, f) != 1) {
    throw std::runtime_error("dag_io: write failed");
  }
}

template <typename T>
void write_vec(std::FILE* f, const std::vector<T>& v) {
  write_pod<uint64_t>(f, v.size());
  if (!v.empty() && std::fwrite(v.data(), sizeof(T), v.size(), f) != v.size()) {
    throw std::runtime_error("dag_io: write failed");
  }
}

template <typename T>
T read_pod(std::FILE* f) {
  T v;
  if (std::fread(&v, sizeof(T), 1, f) != 1) {
    throw std::runtime_error("dag_io: truncated file");
  }
  return v;
}

template <typename T>
std::vector<T> read_vec(std::FILE* f, uint64_t max_elems) {
  const uint64_t n = read_pod<uint64_t>(f);
  if (n > max_elems) throw std::runtime_error("dag_io: implausible count");
  std::vector<T> v(n);
  if (n && std::fread(v.data(), sizeof(T), n, f) != n) {
    throw std::runtime_error("dag_io: truncated file");
  }
  return v;
}

constexpr uint64_t kMaxElems = 1ull << 32;

}  // namespace

void save_dag(const TaskDag& dag, const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (!file.f) throw std::runtime_error("dag_io: cannot open " + path);
  std::FILE* f = file.f;
  write_pod(f, kMagic);

  // String table for group file names.
  std::vector<std::string> strings;
  auto string_idx = [&](const char* s) -> uint32_t {
    for (uint32_t i = 0; i < strings.size(); ++i) {
      if (strings[i] == s) return i;
    }
    strings.emplace_back(s);
    return static_cast<uint32_t>(strings.size() - 1);
  };
  std::vector<uint32_t> group_file(dag.num_groups());
  for (GroupId g = 0; g < dag.num_groups(); ++g) {
    group_file[g] = string_idx(dag.group(g).file);
  }
  write_pod<uint64_t>(f, strings.size());
  for (const auto& s : strings) {
    write_pod<uint32_t>(f, static_cast<uint32_t>(s.size()));
    if (!s.empty() && std::fwrite(s.data(), 1, s.size(), f) != s.size()) {
      throw std::runtime_error("dag_io: write failed");
    }
  }

  // Tasks, blocks, edges (reassembled from public accessors). Blocks are
  // written in the builder-facing RefBlock form, so the file format is
  // independent of the in-memory packed layout. Group children are not
  // written: load_dag rebuilds them from the parent links.
  std::vector<Task> tasks;
  std::vector<RefBlock> blocks;
  std::vector<TaskId> edges;
  tasks.reserve(dag.num_tasks());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    Task n = dag.task(t);
    n.first_block = static_cast<uint32_t>(blocks.size());
    n.first_child = static_cast<uint32_t>(edges.size());
    for (const PackedRef& b : dag.blocks(t)) blocks.push_back(dag.unpack(b));
    for (TaskId c : dag.children(t)) edges.push_back(c);
    tasks.push_back(n);
  }
  write_vec(f, tasks);
  write_vec(f, blocks);
  write_vec(f, edges);

  write_pod<uint64_t>(f, dag.num_groups());
  for (GroupId g = 0; g < dag.num_groups(); ++g) {
    const TaskGroup& grp = dag.group(g);
    write_pod<uint32_t>(f, grp.parent);
    write_pod<uint32_t>(f, grp.first_task);
    write_pod<uint32_t>(f, grp.last_task);
    write_pod<uint32_t>(f, group_file[g]);
    write_pod<int32_t>(f, grp.line);
    write_pod<int64_t>(f, grp.param);
    write_pod<uint8_t>(f, grp.children_parallel ? 1 : 0);
  }
}

TaskDag load_dag(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (!file.f) throw std::runtime_error("dag_io: cannot open " + path);
  std::FILE* f = file.f;
  const uint64_t magic = read_pod<uint64_t>(f);
  if (magic == kMagicV1) {
    throw std::runtime_error(
        "dag_io: " + path +
        " is a CASDG001 (version 1) DAG file; this build reads CASDG002 "
        "only, so collect the trace again with `cachesched_cli trace`");
  }
  if (magic != kMagic) {
    throw std::runtime_error("dag_io: bad magic (not a cachesched DAG?)");
  }

  const uint64_t num_strings = read_pod<uint64_t>(f);
  if (num_strings > kMaxElems) throw std::runtime_error("dag_io: bad header");
  std::vector<const char*> strings(num_strings);
  for (auto& s : strings) {
    const uint32_t len = read_pod<uint32_t>(f);
    if (len > (1u << 20)) throw std::runtime_error("dag_io: bad string");
    std::string tmp(len, '\0');
    if (len && std::fread(tmp.data(), 1, len, f) != len) {
      throw std::runtime_error("dag_io: truncated file");
    }
    s = intern(tmp);
  }

  TaskDag dag;
  dag.tasks_ = read_vec<Task>(f, kMaxElems);
  const std::vector<RefBlock> raw_blocks = read_vec<RefBlock>(f, kMaxElems);
  dag.child_edges_ = read_vec<TaskId>(f, kMaxElems);

  const uint64_t num_groups = read_pod<uint64_t>(f);
  if (num_groups > kMaxElems) throw std::runtime_error("dag_io: bad groups");
  dag.groups_.resize(num_groups);
  for (GroupId g = 0; g < num_groups; ++g) {
    TaskGroup& grp = dag.groups_[g];
    grp.parent = read_pod<uint32_t>(f);
    if (grp.parent != kNoGroup && grp.parent >= g) {
      throw std::runtime_error("dag_io: group parent does not precede it");
    }
    grp.first_task = read_pod<uint32_t>(f);
    grp.last_task = read_pod<uint32_t>(f);
    const uint32_t file_idx = read_pod<uint32_t>(f);
    if (file_idx >= strings.size()) {
      throw std::runtime_error("dag_io: bad file index");
    }
    grp.file = strings[file_idx];
    grp.line = read_pod<int32_t>(f);
    grp.param = read_pod<int64_t>(f);
    grp.children_parallel = read_pod<uint8_t>(f) != 0;
  }
  dag.build_group_children();

  // Recompute derived state and check structural sanity. RefBlocks are
  // read raw; reject values the factories can never produce before the
  // expansion paths trust them (a zero instr_per_ref, a bad kind byte or
  // an out-of-range stream count would corrupt a replay).
  for (const RefBlock& b : raw_blocks) {
    if (b.kind > RefKind::kInterleave) {
      throw std::runtime_error("dag_io: invalid block kind");
    }
    if (b.kind != RefKind::kCompute &&
        (b.instr_per_ref == 0 || b.instr_per_ref > PackedRef::kIprMask)) {
      throw std::runtime_error("dag_io: block instr_per_ref out of range");
    }
    if (b.kind == RefKind::kRandom && b.region_len == 0) {
      throw std::runtime_error("dag_io: random block with empty region");
    }
    if (b.kind != RefKind::kStride && b.period != 0) {
      throw std::runtime_error("dag_io: wrap period on a non-stride block");
    }
    if (b.kind == RefKind::kInterleave) {
      if (b.num_streams < 1 || b.num_streams > kMaxStreams) {
        throw std::runtime_error("dag_io: invalid interleave stream count");
      }
      uint64_t total = 0;
      for (int s = 0; s < b.num_streams; ++s) total += b.streams[s].lines;
      if (total != b.count) {
        throw std::runtime_error(
            "dag_io: interleave count != sum of stream lines");
      }
    }
    dag.total_refs_ += b.total_refs();
  }
  // A task's work is derived from its blocks; a file that says otherwise
  // would skew total_work(), weighted_depth() and work-keyed priorities.
  for (TaskId t = 0; t < dag.tasks_.size(); ++t) {
    const Task& task = dag.tasks_[t];
    if (uint64_t{task.first_block} + task.num_blocks > raw_blocks.size() ||
        uint64_t{task.first_child} + task.num_children >
            dag.child_edges_.size()) {
      throw std::runtime_error("dag_io: task ranges out of bounds");
    }
    uint64_t work = 0;
    for (uint32_t i = 0; i < task.num_blocks; ++i) {
      work += raw_blocks[task.first_block + i].total_instr();
    }
    if (work != task.work) {
      throw std::runtime_error("dag_io: task " + std::to_string(t) +
                               " work disagrees with its blocks");
    }
    dag.total_work_ += work;
  }
  // Pack into the in-memory arena; indices are preserved one-to-one, so
  // the tasks' first_block/num_blocks ranges stay valid.
  auto arena = std::make_shared<TraceArena>();
  arena->blocks.reserve(raw_blocks.size());
  for (const RefBlock& b : raw_blocks) {
    arena->blocks.push_back(pack_ref(b, &arena->inter));
  }
  arena->build_interleave_fast();
  dag.arena_ = std::move(arena);
  for (TaskId t = 0; t < dag.tasks_.size(); ++t) {
    if (dag.tasks_[t].num_parents == 0) dag.roots_.push_back(t);
  }
  const std::string err = dag.validate();
  if (!err.empty()) throw std::runtime_error("dag_io: invalid DAG: " + err);
  return dag;
}

}  // namespace cachesched
