#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>

#include "core/dag_io.h"
#include "gen/generator.h"
#include "gen/genspec.h"
#include "workloads/mergesort.h"
#include "workloads/quicksort.h"

namespace cachesched {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::pair<uint64_t, bool>> ref_stream(const TaskDag& dag) {
  std::vector<std::pair<uint64_t, bool>> refs;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    TraceCursor c = dag.cursor(t);
    for (TraceOp op = c.next(); op.kind != TraceOp::kDone; op = c.next()) {
      if (op.kind == TraceOp::kMem) refs.emplace_back(op.addr, op.is_write);
    }
  }
  return refs;
}

TEST(DagIo, RoundTripMergesort) {
  MergesortParams p;
  p.num_elems = 1 << 12;
  p.l2_bytes = 32 * 1024;
  p.task_ws_bytes = 2 * 1024;
  const Workload w = build_mergesort(p);
  const std::string path = temp_path("cachesched_roundtrip.dag");
  save_dag(w.dag, path);
  const TaskDag loaded = load_dag(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.validate(), "");
  EXPECT_EQ(loaded.num_tasks(), w.dag.num_tasks());
  EXPECT_EQ(loaded.num_groups(), w.dag.num_groups());
  EXPECT_EQ(loaded.total_work(), w.dag.total_work());
  EXPECT_EQ(loaded.total_refs(), w.dag.total_refs());
  EXPECT_EQ(loaded.roots(), w.dag.roots());
  EXPECT_EQ(ref_stream(loaded), ref_stream(w.dag));
  // Edge structure preserved.
  for (TaskId t = 0; t < w.dag.num_tasks(); ++t) {
    ASSERT_EQ(std::vector<TaskId>(loaded.children(t).begin(),
                                  loaded.children(t).end()),
              std::vector<TaskId>(w.dag.children(t).begin(),
                                  w.dag.children(t).end()));
  }
  // Group annotations preserved (including interned file names).
  for (GroupId g = 0; g < w.dag.num_groups(); ++g) {
    EXPECT_EQ(std::string(loaded.group(g).file),
              std::string(w.dag.group(g).file));
    EXPECT_EQ(loaded.group(g).line, w.dag.group(g).line);
    EXPECT_EQ(loaded.group(g).param, w.dag.group(g).param);
    const auto lc = loaded.group_children(g);
    const auto wc = w.dag.group_children(g);
    EXPECT_EQ(std::vector<GroupId>(lc.begin(), lc.end()),
              std::vector<GroupId>(wc.begin(), wc.end()));
  }
}

TEST(DagIo, RoundTripQuicksortRandomBlocks) {
  QuicksortParams p;
  p.num_elems = 1 << 12;
  p.leaf_elems = 256;
  const Workload w = build_quicksort(p);
  const std::string path = temp_path("cachesched_roundtrip_qs.dag");
  save_dag(w.dag, path);
  const TaskDag loaded = load_dag(path);
  std::remove(path.c_str());
  EXPECT_EQ(ref_stream(loaded), ref_stream(w.dag));
}

TEST(DagIo, RoundTripWrappedStrides) {
  const Workload w = build_generated(
      GenSpec::parse("forkjoin:stages=2,width=3,ws=1K,reuse=loop,passes=16"),
      128);
  const std::string path = temp_path("cachesched_roundtrip_loop.dag");
  save_dag(w.dag, path);
  const TaskDag loaded = load_dag(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.validate(), "");
  EXPECT_EQ(loaded.total_refs(), w.dag.total_refs());
  EXPECT_EQ(ref_stream(loaded), ref_stream(w.dag));
  uint32_t wrapped = 0;
  for (TaskId t = 0; t < loaded.num_tasks(); ++t) {
    ASSERT_EQ(loaded.blocks(t).size(), w.dag.blocks(t).size());
    for (size_t i = 0; i < loaded.blocks(t).size(); ++i) {
      EXPECT_EQ(loaded.blocks(t)[i].period(), w.dag.blocks(t)[i].period());
      wrapped += loaded.blocks(t)[i].period() != 0;
    }
  }
  EXPECT_EQ(wrapped, 6u);  // one per body task
}

// Saves `dag`, lets `patch` edit the file's bytes and loads the result;
// returns load_dag's error message, or "" if the file loaded.
std::string load_error_after(const TaskDag& dag, const std::string& name,
                             const std::function<void(std::string&)>& patch) {
  const std::string path = temp_path(name);
  save_dag(dag, path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  patch(bytes);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  std::string err;
  try {
    load_dag(path);
  } catch (const std::runtime_error& e) {
    err = e.what();
  }
  std::remove(path.c_str());
  return err;
}

// Byte offset of task t's field at `offset` in a saved DAG without groups:
// magic, an empty string table, then the task table's length and records.
size_t task_field_at(TaskId t, size_t offset) {
  return 3 * sizeof(uint64_t) + t * sizeof(Task) + offset;
}

template <typename T>
void poke(std::string& bytes, size_t at, T v) {
  ASSERT_LE(at + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + at, &v, sizeof(T));
}

TEST(DagIo, TaskWorkMustMatchItsBlocks) {
  DagBuilder b;
  const TaskId t0 = b.add_task({}, {RefBlock::compute(100)});
  b.add_task({t0}, {RefBlock::compute(8)});
  const TaskDag dag = b.finish();
  EXPECT_EQ(
      load_error_after(dag, "cachesched_work_ok.dag", [](std::string&) {}),
      "");
  const std::string err = load_error_after(
      dag, "cachesched_work.dag", [](std::string& bytes) {
        poke<uint64_t>(bytes, task_field_at(0, offsetof(Task, work)),
                       1000000);
      });
  EXPECT_NE(err.find("task 0 work disagrees with its blocks"),
            std::string::npos)
      << err;
}

TEST(DagIo, TasksMustTileTheBlockArena) {
  // Two tasks pointing at one block: each range is in bounds and each
  // task's work matches the block, but the second block belongs to no
  // task, so total_refs() would count references no replay executes.
  DagBuilder b;
  const TaskId t0 =
      b.add_task({}, {RefBlock::stride_ref(0x1000, 4, 128, false, 1)});
  b.add_task({t0}, {RefBlock::stride_ref(0x1000, 4, 128, false, 1)});
  const TaskDag dag = b.finish();
  const std::string err = load_error_after(
      dag, "cachesched_tile.dag", [](std::string& bytes) {
        poke<uint32_t>(bytes, task_field_at(1, offsetof(Task, first_block)),
                       0);
      });
  EXPECT_NE(err.find("do not tile the arena"), std::string::npos) << err;
}

TEST(DagIo, VersionOneFileIsRejectedByName) {
  DagBuilder b;
  b.add_task({}, {RefBlock::compute(1)});
  const std::string err = load_error_after(
      b.finish(), "cachesched_v1.dag", [](std::string& bytes) {
        poke<uint64_t>(bytes, 0, 0x4341534447303031ull);  // "CASDG001"
      });
  EXPECT_NE(err.find("CASDG001"), std::string::npos) << err;
  EXPECT_NE(err.find("version 1"), std::string::npos) << err;
}

TEST(DagIo, MissingFileThrows) {
  EXPECT_THROW(load_dag("/nonexistent/path/x.dag"), std::runtime_error);
}

TEST(DagIo, BadMagicThrows) {
  const std::string path = temp_path("cachesched_bad.dag");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a dag file at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_THROW(load_dag(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(DagIo, TruncatedFileThrows) {
  MergesortParams p;
  p.num_elems = 1 << 10;
  p.l2_bytes = 32 * 1024;
  p.task_ws_bytes = 2 * 1024;
  const Workload w = build_mergesort(p);
  const std::string path = temp_path("cachesched_trunc.dag");
  save_dag(w.dag, path);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_dag(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cachesched
