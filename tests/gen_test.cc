// Generator determinism and structure: every family builds a valid DAG,
// the same spec string produces a byte-identical DAG and reference stream
// on every build and under any sweep worker count, and one golden fixture
// per family pins the exact expansion so refactors that silently change
// generated traces are caught (the engine-golden analogue for src/gen).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/sweep.h"
#include "gen/generator.h"
#include "gen/genspec.h"
#include "harness/workload_registry.h"

namespace cachesched {
namespace {

constexpr uint32_t kLine = 128;  // default-config line size

/// FNV-1a over the full DAG structure and the expanded reference stream;
/// any change to tasks, edges, groups, addresses or instruction counts
/// changes the fingerprint.
uint64_t dag_fingerprint(const TaskDag& dag) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(dag.num_tasks());
  mix(dag.num_groups());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    mix(dag.task(t).group);
    for (TaskId c : dag.children(t)) mix(c);
    TraceCursor cur = dag.cursor(t);
    for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
      mix(static_cast<uint64_t>(op.kind));
      mix(op.addr);
      mix(op.instr);
      mix(op.is_write ? 1 : 0);
    }
  }
  return h;
}

const std::vector<std::string>& tiny_specs() {
  static const std::vector<std::string> specs = {
      "dnc:depth=3,fanout=2,ws=4K,share=0.2,seed=11",
      "forkjoin:stages=3,width=4,ws=4K,reuse=loop,passes=2,seed=3",
      "layered:layers=4,width=4,p=0.4,ws=4K,reuse=rand,passes=2,seed=5",
      "pipeline:stages=3,items=4,ws=4K,share=0.15,seed=2",
      "stencil:tiles=4,steps=3,ws=4K,share=0.1,seed=9",
  };
  return specs;
}

TEST(Generator, EveryFamilyBuildsAValidDag) {
  for (const std::string& spec : tiny_specs()) {
    const GenSpec s = GenSpec::parse(spec);
    const Workload w = build_generated(s, kLine);
    EXPECT_EQ(w.dag.validate(), "") << spec;
    EXPECT_EQ(w.dag.num_tasks(), s.num_tasks()) << spec;
    EXPECT_GT(w.dag.total_refs(), 0u) << spec;
    EXPECT_GT(w.dag.total_work(), 0u) << spec;
    EXPECT_GT(w.dag.num_groups(), 0u) << spec;
    EXPECT_GT(w.footprint_bytes, 0u) << spec;
    EXPECT_EQ(w.name, s.family_name()) << spec;
  }
}

TEST(Generator, SameSpecIsByteIdenticalAcrossBuilds) {
  for (const std::string& spec : tiny_specs()) {
    const GenSpec s = GenSpec::parse(spec);
    const uint64_t a = dag_fingerprint(build_generated(s, kLine).dag);
    const uint64_t b = dag_fingerprint(build_generated(s, kLine).dag);
    EXPECT_EQ(a, b) << spec;
  }
}

TEST(Generator, SeedChangesTheStream) {
  const uint64_t a = dag_fingerprint(
      build_generated(GenSpec::parse("dnc:depth=3,ws=4K,share=0.3,seed=1"),
                      kLine)
          .dag);
  const uint64_t b = dag_fingerprint(
      build_generated(GenSpec::parse("dnc:depth=3,ws=4K,share=0.3,seed=2"),
                      kLine)
          .dag);
  EXPECT_NE(a, b);
}

TEST(Generator, LayeredEdgeProbabilityMovesDependenceCount) {
  const auto edges = [](const std::string& spec) {
    const TaskDag dag = build_generated(GenSpec::parse(spec), kLine).dag;
    uint64_t n = 0;
    for (TaskId t = 0; t < dag.num_tasks(); ++t) n += dag.children(t).size();
    return n;
  };
  const uint64_t sparse = edges("layered:layers=6,width=8,p=0.1,ws=4K");
  const uint64_t dense = edges("layered:layers=6,width=8,p=0.9,ws=4K");
  EXPECT_LT(sparse, dense);
  // Fully connected bipartite layers when p = 1.
  EXPECT_EQ(edges("layered:layers=3,width=4,p=1,ws=4K"), 2u * 4 * 4);
}

TEST(Generator, ReuseProfilesChangeRefCounts) {
  const auto refs = [](const std::string& spec) {
    return build_generated(GenSpec::parse(spec), kLine).dag.total_refs();
  };
  const uint64_t stream = refs("forkjoin:stages=2,width=2,ws=8K,reuse=stream");
  const uint64_t loop =
      refs("forkjoin:stages=2,width=2,ws=8K,reuse=loop,passes=4");
  const uint64_t rand =
      refs("forkjoin:stages=2,width=2,ws=8K,reuse=rand,passes=4");
  EXPECT_EQ(loop, 4u * stream);
  EXPECT_EQ(rand, loop);
}

// reuse=loop stores its read passes as one wrapped block and the write
// pass as a second one, yet expands to exactly P explicit passes.
TEST(Generator, LoopPassesAreOneWrappedBlockPlusTheWritePass) {
  for (const uint32_t passes : {1u, 2u, 16u, 64u}) {
    SCOPED_TRACE(passes);
    const TaskDag dag =
        build_generated(GenSpec::parse("forkjoin:stages=2,width=3,ws=1K,"
                                       "reuse=loop,passes=" +
                                       std::to_string(passes)),
                        kLine)
            .dag;
    const uint32_t lines = 1024 / kLine;
    uint32_t regions = 0;
    for (TaskId t = 0; t < dag.num_tasks(); ++t) {
      if (dag.blocks(t)[0].kind() != RefKind::kStride) continue;  // fork/join
      ++regions;
      EXPECT_EQ(dag.blocks(t).size(), passes > 1 ? 2u : 1u);
      std::vector<TraceOp> ops;
      TraceCursor cur = dag.cursor(t);
      for (TraceOp op = cur.next(); op.kind != TraceOp::kDone;
           op = cur.next()) {
        ops.push_back(op);
      }
      ASSERT_EQ(ops.size(), uint64_t{lines} * passes);
      const uint64_t base = ops[0].addr;
      for (uint32_t p = 0; p < passes; ++p) {
        for (uint32_t i = 0; i < lines; ++i) {
          const TraceOp& op = ops[p * lines + i];
          EXPECT_EQ(op.kind, TraceOp::kMem);
          EXPECT_EQ(op.addr, base + uint64_t{i} * kLine);
          EXPECT_EQ(op.is_write, p + 1 == passes);
        }
      }
    }
    EXPECT_EQ(regions, 6u);
  }
}

TEST(Generator, ShareFractionRoutesRefsToSharedRegion) {
  // share=0.5 doubles total refs (one shared ref per private ref).
  const uint64_t base = build_generated(
      GenSpec::parse("forkjoin:stages=2,width=2,ws=8K"), kLine)
                            .dag.total_refs();
  const uint64_t shared = build_generated(
      GenSpec::parse("forkjoin:stages=2,width=2,ws=8K,share=0.5"), kLine)
                              .dag.total_refs();
  EXPECT_EQ(shared, 2u * base);
}

// Golden fixtures: one pinned spec per family. If an intentional generator
// change lands, re-record these values (the test prints the actuals).
struct Golden {
  const char* spec;
  uint64_t tasks;
  uint64_t refs;
  uint64_t work;
  uint64_t fingerprint;
};

TEST(Generator, GoldenFixtures) {
  const Golden golden[] = {
      {"dnc:depth=4,fanout=3,ws=4K,share=0.2,reuse=loop,passes=2,seed=11",
       161, 32400, 264320, 8003396566427999806ull},
      {"forkjoin:stages=3,width=5,ws=8K,share=0.1,reuse=stream,seed=3",
       21, 1065, 9096, 18396024401297784616ull},
      {"layered:layers=4,width=6,p=0.35,ws=4K,reuse=rand,passes=2,seed=5",
       24, 1536, 12288, 278923156111329085ull},
      {"pipeline:stages=4,items=6,ws=4K,share=0.15,reuse=loop,passes=3,seed=2",
       24, 3480, 27840, 615284227573691623ull},
      {"stencil:tiles=6,steps=5,ws=4K,share=0.1,reuse=stream,seed=9",
       30, 3810, 30480, 3897590690962613464ull},
  };
  for (const Golden& g : golden) {
    const Workload w = build_generated(GenSpec::parse(g.spec), kLine);
    EXPECT_EQ(w.dag.num_tasks(), g.tasks) << g.spec;
    EXPECT_EQ(w.dag.total_refs(), g.refs) << g.spec;
    EXPECT_EQ(w.dag.total_work(), g.work) << g.spec;
    EXPECT_EQ(dag_fingerprint(w.dag), g.fingerprint) << g.spec;
  }
}

TEST(Generator, OverflowingRefBlockThrowsInsteadOfTruncating) {
  // Parses fine (8 tasks), but with 64-byte lines an interior stencil
  // task's rand sweep is ~805M refs and its share block 9x that — past
  // RefBlock's uint32 count. Must refuse loudly, not truncate silently.
  const GenSpec s = GenSpec::parse(
      "stencil:tiles=4,steps=2,ws=256M,reuse=rand,passes=64,share=0.9");
  EXPECT_THROW(build_generated(s, 64), std::invalid_argument);
}

// The sweep-engine extension of the determinism guarantee: a matrix of
// generated workloads produces byte-identical CSV/JSON for any --jobs=N
// (the tests/sweep_test.cc property, over src/gen specs).
TEST(Generator, SweepOverGeneratedSpecsIsWorkerCountInvariant) {
  SweepSpec spec;
  spec.apps = tiny_specs();
  spec.scheds = {"pdf", "ws"};
  spec.core_counts = {2, 4};
  const SweepResults serial = run_sweep(spec, {.workers = 1});
  const SweepResults parallel = run_sweep(spec, {.workers = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.to_table().to_csv(), parallel.to_table().to_csv());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

}  // namespace
}  // namespace cachesched
