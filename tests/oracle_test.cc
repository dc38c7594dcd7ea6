// Differential test: CmpSimulator against the naive oracle in oracle.h.
// Every case demands whole-SimResult equality, per-core and per-task
// vectors included, with no tolerance:
//
//  * kRandomCases seeded random cases: the five generator families with
//    a shared region, plus a write-sharing family of readers and forked
//    writers of a few lines; every registered scheduler plus
//    parameterized variants; 1-32 cores; a random geometry alone or with
//    a banked L2, a 1-line L1, a fully associative L2, zero dispatch cost
//    or one core; task statistics on and off;
//  * the DAGs on which the engine's run-ahead breaks causality and it
//    re-runs exactly (runahead_dags.h, shared with engine_test);
//  * real apps at scale 1/64 under pdf and ws.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "harness/apps.h"
#include "harness/workload_registry.h"
#include "oracle.h"
#include "runahead_dags.h"
#include "sched/registry.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

constexpr int kRandomCases = 10000;

// The fields of two results that differ, for a failure message.
std::string diff(const SimResult& a, const SimResult& b) {
  std::ostringstream os;
  auto field = [&os](const char* name, const auto& x, const auto& y) {
    if (x != y) os << " " << name << " " << x << " vs " << y << ";";
  };
  field("scheduler", a.scheduler, b.scheduler);
  field("config", a.config, b.config);
  field("cores", a.cores, b.cores);
  field("cycles", a.cycles, b.cycles);
  field("instructions", a.instructions, b.instructions);
  field("tasks_executed", a.tasks_executed, b.tasks_executed);
  field("l1_hits", a.l1_hits, b.l1_hits);
  field("l2_hits", a.l2_hits, b.l2_hits);
  field("l2_misses", a.l2_misses, b.l2_misses);
  field("writebacks", a.writebacks, b.writebacks);
  field("invalidations", a.invalidations, b.invalidations);
  field("mem_stall_cycles", a.mem_stall_cycles, b.mem_stall_cycles);
  field("mem_queue_cycles", a.mem_queue_cycles, b.mem_queue_cycles);
  field("mem_busy_cycles", a.mem_busy_cycles, b.mem_busy_cycles);
  field("steals", a.steals, b.steals);
  if (a.core_busy_cycles != b.core_busy_cycles) os << " core_busy_cycles;";
  if (a.task_l2_misses != b.task_l2_misses) os << " task_l2_misses;";
  if (a.task_refs != b.task_refs) os << " task_refs;";
  return os.str();
}

struct Outcome {
  SimResult engine;
  uint64_t reruns = 0;
  std::string mismatch;  // empty when the engine equals the oracle
};

Outcome compare(const TaskDag& dag, const CmpConfig& cfg,
                const std::string& sched, bool task_stats) {
  Outcome out;
  CmpSimulator sim(cfg);
  sim.set_collect_task_stats(task_stats);
  out.engine = sim.run(dag, *make_scheduler(sched));
  out.reruns = sim.exact_reruns();
  const SimResult want =
      oracle::simulate(cfg, dag, *make_scheduler(sched), task_stats);
  if (!(out.engine == want)) {
    out.mismatch = "engine vs oracle:" + diff(out.engine, want);
  }
  return out;
}

// ------------------------------------------------------------ random cases

std::vector<std::string> sched_specs() {
  std::vector<std::string> specs = known_schedulers();
  for (const char* v :
       {"ws:victims=rand,seed=3", "ws:steal=half", "aff:steal=half",
        "prio:key=depth,order=max", "prio:key=ws", "cfb:budget=0.25"}) {
    specs.push_back(v);
  }
  return specs;
}

uint64_t pick(std::mt19937_64& rng, uint64_t lo, uint64_t hi) {
  return lo + rng() % (hi - lo + 1);
}

enum Variant {
  kPlain,
  kBanked,
  kOneLineL1,
  kFullyAssocL2,
  kZeroDispatch,
  kOneCore,
  kNumVariants
};

CmpConfig random_config(std::mt19937_64& rng, Variant v) {
  CmpConfig c;
  c.name = "random";
  c.cores = static_cast<int>(pick(rng, 1, rng() % 2 ? 8 : 32));
  c.line_bytes = 32 << pick(rng, 0, 2);
  c.l1_ways = static_cast<int>(pick(rng, 1, 4));
  c.l1_bytes = (uint64_t{1} << pick(rng, 0, 4)) * c.l1_ways * c.line_bytes;
  c.l2_ways = static_cast<int>(pick(rng, 1, 16));
  c.l2_bytes = (uint64_t{1} << pick(rng, 0, 6)) * c.l2_ways * c.line_bytes;
  c.l2_hit_cycles = static_cast<int>(pick(rng, 1, 30));
  c.mem_latency_cycles = static_cast<int>(pick(rng, 1, 400));
  c.mem_service_cycles = static_cast<int>(pick(rng, 1, 50));
  c.task_dispatch_cycles = static_cast<uint32_t>(pick(rng, 0, 150));
  switch (v) {
    case kBanked:
      c.l2_banks = static_cast<int>(pick(rng, 1, 8));
      c.l2_local_hit_cycles = static_cast<int>(pick(rng, 1, 10));
      c.bank_hop_cycles = static_cast<int>(pick(rng, 0, 3));
      break;
    case kOneLineL1:
      c.l1_ways = 1;
      c.l1_bytes = c.line_bytes;
      break;
    case kFullyAssocL2: {
      // 300 ways takes SetAssocCache's wide (> 255 ways) layout.
      const int ways[] = {8, 64, 300};
      c.l2_ways = ways[rng() % 3];
      c.l2_bytes = uint64_t(c.l2_ways) * c.line_bytes;
      break;
    }
    case kZeroDispatch:
      c.task_dispatch_cycles = 0;
      break;
    case kOneCore:
      c.cores = 1;
      break;
    default:
      break;
  }
  return c;
}

// A small generator spec of `family` with a shared region.
std::string random_genspec(std::mt19937_64& rng, int family) {
  std::ostringstream os;
  switch (family) {
    case 0:
      os << "dnc:depth=" << pick(rng, 1, 4) << ",fanout=" << pick(rng, 2, 3);
      break;
    case 1:
      os << "forkjoin:stages=" << pick(rng, 1, 3)
         << ",width=" << pick(rng, 1, 6);
      break;
    case 2:
      os << "layered:layers=" << pick(rng, 2, 4)
         << ",width=" << pick(rng, 1, 5) << ",p=0." << pick(rng, 2, 9);
      break;
    case 3:
      os << "pipeline:stages=" << pick(rng, 1, 4)
         << ",items=" << pick(rng, 1, 6);
      break;
    default:
      os << "stencil:tiles=" << pick(rng, 2, 6)
         << ",steps=" << pick(rng, 1, 4);
      break;
  }
  const char* reuse[] = {"stream", "loop", "rand"};
  os << ",ws=" << 128 * pick(rng, 1, 16) << ",share=0." << pick(rng, 1, 9)
     << ",reuse=" << reuse[rng() % 3] << ",passes=" << pick(rng, 1, 3)
     << ",ipr=" << pick(rng, 1, 10) << ",seed=" << rng() % 1000;
  if (rng() % 2) os << ",shared=" << 128 * pick(rng, 1, 8);
  return os.str();
}

// Readers of a few lines plus forked writers of the same lines, mixed
// with random reads and writes over them: the family where a skipped or
// misdirected invalidation shows. Every random draw is its own statement,
// so the DAG does not depend on the compiler's argument order.
TaskDag write_sharing_dag(std::mt19937_64& rng, int cores) {
  const uint64_t lines = pick(rng, 1, 4);
  auto line = [&] { return (rng() % lines) * 128; };
  auto count = [&](uint64_t lo, uint64_t hi) {
    return static_cast<uint32_t>(pick(rng, lo, hi));
  };
  DagBuilder b;
  std::vector<TaskId> readers;
  const uint32_t num_readers = count(1, cores + 1);
  for (uint32_t i = 0; i < num_readers; ++i) {
    std::vector<RefBlock> blocks = {RefBlock::compute(pick(rng, 1, 300))};
    const uint64_t base = line();
    const uint32_t reads = count(20, 600);
    blocks.push_back(RefBlock::stride_ref(base, reads, 0, false, count(1, 3)));
    if (rng() % 2) {
      const uint32_t n = count(1, 100);
      const uint64_t seed = rng();
      const bool write = rng() % 4 == 0;
      blocks.push_back(RefBlock::random_ref(0, lines * 128, n, seed, write,
                                            count(1, 3)));
    }
    readers.push_back(b.add_task({}, blocks));
  }
  const TaskId fork = b.add_task({}, {RefBlock::compute(pick(rng, 1, 1500))});
  const uint32_t num_writers = count(1, cores + 1);
  for (uint32_t i = 0; i < num_writers; ++i) {
    std::vector<TaskId> parents = {fork};
    if (rng() % 3 == 0) parents.push_back(readers[rng() % readers.size()]);
    const uint64_t written = line();
    const uint32_t writes = count(1, 8);
    const uint64_t work = pick(rng, 1, 50);
    const uint64_t read = line();
    const uint32_t reads = count(1, 20);
    b.add_task(parents, {RefBlock::stride_ref(written, writes, 0, true, 1),
                         RefBlock::compute(work),
                         RefBlock::stride_ref(read, reads, 128, false, 1)});
  }
  return b.finish();
}

TEST(Oracle, RandomCasesMatchTheEngine) {
  const std::vector<std::string> scheds = sched_specs();
  int mismatches = 0;
  std::string first;
  uint64_t invalidations = 0;
  uint64_t writebacks = 0;
  std::vector<int> per_family(6, 0);
  for (int i = 0; i < kRandomCases; ++i) {
    std::mt19937_64 rng(i);
    const Variant v = static_cast<Variant>(rng() % kNumVariants);
    const CmpConfig cfg = random_config(rng, v);
    const std::string sched = scheds[rng() % scheds.size()];
    const bool task_stats = rng() % 2;
    const int family = static_cast<int>(rng() % 6);
    ++per_family[family];
    std::string what;
    TaskDag dag;
    if (family < 5) {
      what = random_genspec(rng, family);
      dag = make_workload(what, cfg, AppOptions{}).dag;
    } else {
      what = "write-sharing";
      dag = write_sharing_dag(rng, cfg.cores);
    }
    const Outcome o = compare(dag, cfg, sched, task_stats);
    invalidations += o.engine.invalidations;
    writebacks += o.engine.writebacks;
    if (!o.mismatch.empty() && mismatches++ == 0) {
      first = "case " + std::to_string(i) + ": " + what + " / " + sched +
              " / variant " + std::to_string(v) + " / " +
              std::to_string(cfg.cores) + " cores:" + o.mismatch;
    }
  }
  EXPECT_EQ(mismatches, 0) << "first: " << first;
  // The cases reach the coherence and writeback paths, and every family
  // occurs.
  EXPECT_GT(invalidations, 0u);
  EXPECT_GT(writebacks, 0u);
  for (int f = 0; f < 6; ++f) EXPECT_GT(per_family[f], 0) << f;
}

// ---------------------------------------------------- run-ahead re-runs

// engine_test's run-ahead DAGs: exact re-runs must match the oracle too.
TEST(Oracle, RunAheadRerunsMatchTheEngine) {
  using namespace runahead_dags;
  struct Case {
    TaskDag dag;
    int cores;
    std::vector<std::string> scheds;
  };
  std::vector<Case> cases;
  cases.push_back({random_sharing(), 4, {"ws"}});
  cases.push_back({hit_past_a_write(), 2, {"pdf"}});
  cases.push_back({same_cycle_hit(), 2, {"pdf"}});
  cases.push_back({zero_dispatch_fork(), 3, {"pdf"}});
  const std::vector<std::string> three = {"pdf", "ws", "fifo"};
  for (int cores : {3, 5, 8}) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      cases.push_back({same_cycle_forks(cores, seed), cores, three});
    }
  }
  uint64_t reruns = 0;
  for (size_t i = 0; i < cases.size(); ++i) {
    for (const std::string& sched : cases[i].scheds) {
      for (bool task_stats : {false, true}) {
        const Outcome o = compare(cases[i].dag, tiny_config(cases[i].cores),
                                  sched, task_stats);
        EXPECT_EQ(o.mismatch, "") << "case " << i << ", " << sched;
        reruns += o.reruns;
      }
    }
  }
  EXPECT_GT(reruns, 0u);  // the engine's exact pass ran, and matched
}

// -------------------------------------------------------------- real apps

TEST(Oracle, RealAppsMatchTheEngine) {
  constexpr double kScale = 0.015625;  // 1/64
  for (const char* app : {"mergesort", "hashjoin", "lu", "heat"}) {
    for (int cores : {2, 8}) {
      const CmpConfig cfg = default_config(cores).scaled(kScale);
      AppOptions opt;
      opt.scale = kScale;
      const Workload w = make_app(app, cfg, opt);
      for (const char* sched : {"pdf", "ws"}) {
        const Outcome o = compare(w.dag, cfg, sched, cores == 8);
        EXPECT_EQ(o.mismatch, "") << app << ", " << cores << "c, " << sched;
      }
    }
  }
}

}  // namespace
}  // namespace cachesched
