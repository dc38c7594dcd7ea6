// Benchmark driver: runs one benchmark workload in this process, times
// every call it makes into the library's modules, checks every result and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object; run.py launches one process per sample and
// aggregates them. README.md describes the workloads and metrics.
//
//   perfbench_driver --workload=paper-sweep|shared-l2|fine-grain --seed=N
//                    [--scratch=DIR] [--expect=FILE] [--trace=FILE]
//                    [--commit=ID] [--digests] [--plant]
//
//   --scratch  directory for result stores (default .bench_build/scratch)
//   --expect   recorded per-op digests (expected_digests.tsv)
//   --trace    record spans, run the isolated layer replays and write
//              Chrome trace-event JSON to FILE; prints per-layer metrics
//   --commit   source identity recorded with the result
//   --digests  print one digest line per op, in expected_digests.tsv form
//   --plant    add one cycle to the L2 hit time of the workload's first
//              simulation; on a documented seed the oracle must count it
//              as a failed op
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coarsen/coarsen.h"
#include "exp/store.h"
#include "exp/sweep.h"
#include "harness/workload_registry.h"
#include "oracle.h"
#include "profile/ws_profiler.h"
#include "replay.h"
#include "sched/registry.h"
#include "simarch/engine.h"
#include "tracer.h"
#include "util/cli.h"
#include "util/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace cachesched;
using perfbench::Clock;
using perfbench::Digest;
using perfbench::seconds_between;
using perfbench::Tracer;

const std::vector<std::string> kWorkloads = {"paper-sweep", "shared-l2",
                                             "fine-grain"};

// Each of these swaps the engine path or arms checks inside the library,
// so a run with one set measures something other than the benchmark.
const char* const kRefusedEnv[] = {"CACHESCHED_SIM_THREADS",
                                   "CACHESCHED_CHECK", "CACHESCHED_FAULTS"};

// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Peak resident set of this program image. Linux carries ru_maxrss across
// exec, so a child of a large launcher would report the launcher's peak;
// VmHWM belongs to the current address space only. Both are KiB.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string family_of(const std::string& sched_spec) {
  return sched_spec.substr(0, sched_spec.find(':'));
}

// One process's measurements. Counts accumulate from the main pass; the
// replay fields only from the isolated replays of a traced run.
struct Run {
  std::string workload;
  uint64_t seed = 0;
  std::string scratch;
  // paper-sweep's run_sweep workers: one per hardware thread.
  int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  bool plant = false;
  bool planted = false;
  Tracer tr;
  perfbench::Oracle oracle;

  Clock::time_point t0;
  double wall_s = 0;
  double rss_mb = 0;
  std::vector<double> setup_samples;  // [0] is the main pass's
  double setup_s = 0;

  // harness
  uint64_t builds = 0;
  double build_s = 0;
  uint64_t tasks = 0;
  uint64_t refs = 0;
  uint64_t dag_bytes = 0;
  // simarch + sched counts over every simulation
  uint64_t sim_refs = 0;
  double sim_host_s = 0;  // host time spent simulating (wall, all workers)
  double run_s = 0;       // single-thread CmpSimulator::run time
  uint64_t cycles = 0, l1_hits = 0, l2_hits = 0, l2_misses = 0;
  uint64_t invalidations = 0, writebacks = 0, mem_queue_cycles = 0;
  uint64_t steals = 0;
  // profile + coarsen
  double profile_s = 0;
  uint64_t profile_refs = 0;
  double coarsen_s = 0;
  uint64_t coarsen_tasks_out = 0;
  // exp
  double sweep_s = 0;
  double build_phase_s = 0;
  uint64_t sweep_builds = 0;
  uint64_t sweep_jobs = 0;
  double store_put_ms = 0;
  double store_load_ms = 0;
  double store_hit_frac = 0;
  uint64_t retries = 0;
  uint64_t quarantined = 0;
  std::vector<double> job_s;  // one-worker pass
  double pool_util = 0;
  // isolated replays
  perfbench::MemoryReplay mem;
  std::map<std::string, perfbench::DispatchReplay> dispatch;  // by family

  Run(std::string w, uint64_t s, bool traced)
      : workload(std::move(w)),
        seed(s),
        tr(traced, workload + "/" + std::to_string(s) + "/" +
                       std::to_string(getpid())),
        oracle(workload, s) {}

  std::string scratch_dir(const std::string& name) const {
    return scratch + "/" + name + "-" + std::to_string(getpid());
  }

  void end_main() {
    wall_s = seconds_between(t0, Clock::now());
    rss_mb = peak_rss_mb();
    setup_samples.insert(setup_samples.begin(), setup_s);
  }

  Workload build(const std::string& spec, const CmpConfig& cfg,
                 const AppOptions& opt) {
    Tracer::Span sp(tr, "harness", "make_workload " + spec);
    Workload w = make_workload(spec, cfg, opt);
    const double s = sp.close();
    setup_s += s;
    build_s += s;
    ++builds;
    tasks += w.dag.num_tasks();
    refs += w.dag.total_refs();
    dag_bytes += w.dag.memory_stats().total();
    return w;
  }

  void account(const SimResult& r) {
    sim_refs += r.total_refs();
    cycles += r.cycles;
    l1_hits += r.l1_hits;
    l2_hits += r.l2_hits;
    l2_misses += r.l2_misses;
    invalidations += r.invalidations;
    writebacks += r.writebacks;
    mem_queue_cycles += r.mem_queue_cycles;
    steals += r.steals;
  }

  // The planted one-cycle change: the first simulation only.
  void maybe_plant(CmpConfig& cfg) {
    if (!plant || planted) return;
    ConfigOverrides o;
    o.l2_hit_cycles = cfg.l2_hit_cycles + 1;
    o.apply(cfg);
    planted = true;
  }

  void simulate(const std::string& op, const Workload& w, CmpConfig cfg,
                const std::string& sched) {
    maybe_plant(cfg);
    try {
      std::unique_ptr<Scheduler> s = make_scheduler(sched);
      CmpSimulator sim(cfg);
      Tracer::Span sp(tr, "simarch", "CmpSimulator::run " + op);
      const SimResult res = sim.run(w.dag, *s);
      const double secs = sp.close();
      sim_host_s += secs;
      run_s += secs;
      account(res);
      Tracer::Span ck(tr, "perfbench", "check " + op);
      oracle.sim(op, w.dag.num_tasks(), w.dag.total_refs(), res);
    } catch (const std::exception& e) {
      oracle.threw(op, e.what());
    }
  }

  void replay(const Workload& w, const CmpConfig& cfg,
              const std::vector<std::string>& scheds) {
    perfbench::replay_memory(w.dag, cfg, tr, &mem);
    for (const std::string& s : scheds) {
      perfbench::replay_dispatch(w.dag, cfg, s, tr, &dispatch[family_of(s)]);
    }
  }
};

// ------------------------------------------------------------ workloads

std::string job_op(const SweepJob& j) {
  return "sim:" + j.app + "/" + j.sched + "/" + std::to_string(j.config.cores);
}

uint64_t record_digest(const SweepRecord& r) {
  Digest d;
  d.add(r.job.key().str()).add(r.params).add(r.num_tasks).add(r.total_refs);
  d.add(perfbench::digest_of(r.result));
  return d.value();
}

// The 7 paper apps x {seq, pdf, ws} x {2, 4, 8, 16, 32} cores at scale
// 0.125 through run_sweep into a fresh result store, then resumed from it.
void run_paper_sweep(Run& r) {
  SweepSpec spec;
  spec.apps = known_apps();
  spec.scheds = {"pdf", "ws"};
  spec.core_counts = {2, 4, 8, 16, 32};
  spec.scales = {0.125};
  spec.sequential_baseline = true;
  spec.seed = r.seed;
  std::vector<SweepJob> jobs = expand(spec);
  r.maybe_plant(jobs.front().config);
  r.sweep_jobs = jobs.size();
  const std::string dir = r.scratch_dir("store");
  std::filesystem::remove_all(dir);

  // Callbacks run on worker threads, serialized by run_sweep; the main
  // thread reads what they write only after run_sweep has joined them.
  Clock::time_point last_built = Clock::now();
  SweepOptions opt;
  opt.workers = r.workers;
  opt.on_workload_built = [&](const std::string& app) {
    last_built = Clock::now();
    ++r.sweep_builds;
    r.tr.instant("harness", "on_workload_built " + app);
  };
  opt.on_result = [&](const SweepRecord& rec, size_t, size_t) {
    r.tr.instant("exp", "on_result " + job_op(rec.job));
  };

  SweepResults first;
  bool ran = false;
  {
    ResultStore store(dir);
    opt.store = &store;
    Tracer::Span sp(r.tr, "exp", "run_sweep");
    try {
      first = run_sweep(jobs, opt);
      ran = true;
    } catch (const std::exception& e) {
      for (const SweepJob& j : jobs) r.oracle.threw(job_op(j), e.what());
    }
    const Clock::time_point end = Clock::now();
    sp.close();
    r.sweep_s = seconds_between(sp.start(), end);
    r.setup_s = seconds_between(sp.start(), last_built);
    r.build_phase_s = r.setup_s;
    r.sim_host_s = seconds_between(last_built, end);
  }
  if (!ran) {
    r.end_main();
    return;
  }
  r.retries += first.retries();
  r.quarantined += first.quarantined().size();
  {
    Tracer::Span ck(r.tr, "perfbench", "check sweep records");
    for (size_t i = 0, k = 0; i < jobs.size(); ++i) {
      const std::string op = job_op(jobs[i]);
      if (k >= first.size() || !(first[k].job.key() == jobs[i].key())) {
        r.oracle.threw(op, "no record (quarantined)");
        continue;
      }
      const SweepRecord& rec = first[k++];
      r.oracle.sim(op, rec.num_tasks, rec.total_refs, rec.result);
      r.account(rec.result);
    }
  }

  {
    ResultStore store(dir);
    SweepOptions ro;
    ro.workers = r.workers;
    ro.store = &store;
    ro.on_result = opt.on_result;
    Tracer::Span sp(r.tr, "exp", "run_sweep resume");
    try {
      const SweepResults again = run_sweep(jobs, ro);
      sp.close();
      r.store_hit_frac = ratio(static_cast<double>(store.stats().hits),
                               static_cast<double>(jobs.size()));
      r.retries += again.retries();
      r.quarantined += again.quarantined().size();
      Tracer::Span ck(r.tr, "perfbench", "check resumed records");
      for (size_t i = 0; i < first.size(); ++i) {
        const std::string op = "store:" + job_op(first[i].job).substr(4);
        const SweepRecord* back = again.find(first[i].job.key());
        std::string problem;
        if (back == nullptr) {
          problem = "missing after resume";
        } else if (record_digest(*back) != record_digest(first[i])) {
          problem = "resumed record differs from the simulated one";
        }
        r.oracle.check(op, problem);
      }
    } catch (const std::exception& e) {
      for (const SweepRecord& rec : first.records()) {
        r.oracle.threw("store:" + job_op(rec.job).substr(4), e.what());
      }
    }
  }
  r.end_main();

  if (r.tr.enabled()) {
    // Per-job host times: one worker, so the gap between consecutive
    // on_result calls is one job's simulation.
    Clock::time_point prev = Clock::now();
    std::vector<Clock::time_point> done;
    SweepOptions one;
    one.workers = 1;
    one.on_workload_built = [&](const std::string&) { prev = Clock::now(); };
    one.on_result = [&](const SweepRecord&, size_t, size_t) {
      done.push_back(Clock::now());
    };
    {
      Tracer::Span sp(r.tr, "exp", "run_sweep workers=1");
      run_sweep(jobs, one);
    }
    for (const Clock::time_point t : done) {
      r.job_s.push_back(seconds_between(prev, t));
      prev = t;
    }
    double busy = 0;
    for (double s : r.job_s) busy += s;
    r.run_s = busy;
    r.pool_util = ratio(busy, r.workers * r.sim_host_s);

    // The sweep's unique workloads, one job each: what its build phase
    // builds.
    std::set<std::string> seen;
    for (const SweepJob& j : jobs) {
      if (!seen.insert(workload_key(j).str()).second) continue;
      const Workload w = r.build(j.app, j.config, j.opt);
      r.replay(w, j.config, {"pdf", "ws"});
    }

    const std::string put_dir = r.scratch_dir("store-replay");
    std::filesystem::remove_all(put_dir);
    ResultStore store(put_dir);
    double put_s = 0, load_s = 0;
    for (const SweepRecord& rec : first.records()) {
      const std::optional<StoreKey> key = store_key(rec.job);
      if (!key) continue;
      Tracer::Span sp(r.tr, "exp", "ResultStore::put");
      store.put(*key, rec);
      put_s += sp.close();
    }
    for (const SweepRecord& rec : first.records()) {
      const std::optional<StoreKey> key = store_key(rec.job);
      if (!key) continue;
      SweepRecord back;
      Tracer::Span sp(r.tr, "exp", "ResultStore::load");
      const bool hit = store.load(*key, &back);
      load_s += sp.close();
      if (!hit) throw std::runtime_error("store replay lost a record");
    }
    const double n = static_cast<double>(first.size());
    r.store_put_ms = ratio(put_s * 1e3, n);
    r.store_load_ms = ratio(load_s * 1e3, n);
    std::filesystem::remove_all(put_dir);
  }
  std::filesystem::remove_all(dir);
}

// Mergesort and hashjoin at 16 cores, scale 0.25, under pdf and ws: the
// shared L2 and the memory channel dominate.
void run_shared_l2(Run& r) {
  const CmpConfig cfg = default_config(16).scaled(0.25);
  AppOptions opt;
  opt.scale = 0.25;
  opt.seed = r.seed;
  const std::vector<std::string> apps = {"mergesort", "hashjoin"};
  const std::vector<std::string> scheds = {"pdf", "ws"};
  std::vector<Workload> kept;
  for (const std::string& app : apps) {
    Workload w = r.build(app, cfg, opt);
    for (const std::string& s : scheds) {
      r.simulate("sim:" + app + "/" + s, w, cfg, s);
    }
    if (r.tr.enabled()) kept.push_back(std::move(w));
  }
  r.end_main();
  if (r.tr.enabled()) {
    for (const Workload& w : kept) r.replay(w, cfg, scheds);
    return;
  }
  // Set-up takes ~4 ms here, and samples taken within a few milliseconds
  // of each other share one moment of the host's load: repeat it over
  // ~0.15 s so its median is steadier.
  for (int rep = 0; rep < 40; ++rep) {
    const Clock::time_point t = Clock::now();
    for (const std::string& app : apps) make_workload(app, cfg, opt);
    r.setup_samples.push_back(seconds_between(t, Clock::now()));
  }
}

uint64_t profile_digest(const TaskDag& dag, const WorkingSetProfiler& p) {
  Digest d;
  d.add(p.total_refs()).add(p.histogram_entries());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    d.add(p.group_working_set_bytes(t, t));
  }
  return d.value();
}

// The fine-grained path: mergesort at task-ws 2048 under pdf, ws and cfb;
// the §6 profile -> select -> coarsen -> pdf loop on that DAG; and an
// L1-resident forkjoin under pdf and ws.
void run_fine_grain(Run& r) {
  const CmpConfig cfg = default_config(8).scaled(0.25);
  AppOptions opt;
  opt.scale = 0.25;
  opt.mergesort_task_ws = 2048;
  opt.seed = r.seed;
  const std::vector<std::string> ms_scheds = {"pdf", "ws", "cfb:budget=0.5"};
  const std::vector<std::string> fj_scheds = {"pdf", "ws"};
  const std::string fj_spec =
      "forkjoin:stages=128,width=1024,ws=512,reuse=loop,passes=16,seed=" +
      std::to_string(r.seed);

  Workload ms = r.build("mergesort", cfg, opt);
  for (const std::string& s : ms_scheds) {
    r.simulate("sim:mergesort/" + s, ms, cfg, s);
  }

  Workload coarse;
  coarse.name = "mergesort-coarsened";
  try {
    WorkingSetProfiler prof({cfg.l2_bytes},
                            static_cast<uint32_t>(cfg.line_bytes));
    {
      Tracer::Span sp(r.tr, "profile", "WorkingSetProfiler::run");
      prof.run(ms.dag);
      r.profile_s += sp.close();
      r.profile_refs += prof.total_refs();
    }
    r.oracle.op("profile", profile_digest(ms.dag, prof),
                prof.total_refs() == ms.dag.total_refs()
                    ? ""
                    : "profiled refs != dag refs");

    CoarsenParams cp;
    cp.cache_bytes = cfg.l2_bytes;
    cp.num_cores = cfg.cores;
    CoarsenResult sel;
    {
      Tracer::Span sp(r.tr, "coarsen", "select_task_granularity");
      sel = select_task_granularity(ms.dag, prof, cp);
      r.coarsen_s += sp.close();
    }
    Digest ds;
    ds.add(sel.budget_bytes).add(sel.stopping_groups.size());
    std::string problem = sel.stopping_groups.empty() ? "no stopping group" : "";
    TaskId next_free = 0;
    for (GroupId g : sel.stopping_groups) {
      const TaskGroup& grp = ms.dag.group(g);
      ds.add(g).add(prof.working_set_bytes(ms.dag, g));
      if (grp.first_task < next_free) problem = "stopping groups overlap";
      next_free = grp.last_task + 1;
    }
    for (const ParallelizeEntry& e : sel.table.rows()) {
      ds.add(e.file).add(static_cast<uint64_t>(e.line));
      ds.add(static_cast<uint64_t>(e.threshold));
    }
    r.oracle.op("coarsen:select", ds.value(), problem);

    {
      Tracer::Span sp(r.tr, "coarsen", "coarsen_dag");
      coarse.dag = coarsen_dag(ms.dag, sel.stopping_groups);
      r.coarsen_s += sp.close();
    }
    r.coarsen_tasks_out = coarse.dag.num_tasks();
    problem.clear();
    if (coarse.dag.total_refs() != ms.dag.total_refs() ||
        coarse.dag.total_work() != ms.dag.total_work()) {
      problem = "coarsening changed the trace";
    } else if (coarse.dag.num_tasks() > ms.dag.num_tasks()) {
      problem = "coarsening added tasks";
    } else if (const std::string v = coarse.dag.validate(); !v.empty()) {
      problem = "invalid coarsened dag: " + v;
    }
    Digest dd;
    dd.add(coarse.dag.num_tasks()).add(coarse.dag.num_groups());
    dd.add(coarse.dag.total_refs()).add(coarse.dag.total_work());
    r.oracle.op("coarsen:dag", dd.value(), problem);
  } catch (const std::exception& e) {
    r.oracle.threw("profile+coarsen", e.what());
  }
  if (coarse.dag.num_tasks() > 0) {
    r.simulate("sim:coarsened/pdf", coarse, cfg, "pdf");
  }

  Workload fj = r.build(fj_spec, cfg, opt);
  for (const std::string& s : fj_scheds) {
    r.simulate("sim:forkjoin/" + s, fj, cfg, s);
  }
  r.end_main();

  if (r.tr.enabled()) {
    r.replay(ms, cfg, ms_scheds);
    r.replay(fj, cfg, fj_scheds);
    return;
  }
  // Four more set-ups (~0.4 s each; consecutive ones differ by up to a
  // third here), after freeing the workloads so the repetitions reuse
  // their memory instead of adding to it.
  ms = Workload{};
  coarse = Workload{};
  fj = Workload{};
  for (int rep = 0; rep < 4; ++rep) {
    const Clock::time_point t = Clock::now();
    make_workload("mergesort", cfg, opt);
    make_workload(fj_spec, cfg, opt);
    r.setup_samples.push_back(seconds_between(t, Clock::now()));
  }
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const Run& r) {
  const double attempted = static_cast<double>(r.oracle.attempted());
  return {
      {"wall_s", r.wall_s, "s"},
      {"setup_s", quantile(r.setup_samples, 0.5), "s"},
      {"sim_mrefs_per_s", ratio(static_cast<double>(r.sim_refs) / 1e6,
                                r.sim_host_s),
       "Mref/s"},
      {"peak_rss_mb", r.rss_mb, "MB"},
      {"fail_frac", ratio(static_cast<double>(r.oracle.failed()), attempted),
       "ratio"},
  };
}

std::vector<Metric> per_layer(const Run& r) {
  const auto ns = [](double s, uint64_t n) {
    return ratio(s * 1e9, static_cast<double>(n));
  };
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  const double refs = count(r.sim_refs);
  // CmpSimulator::run includes the scheduler's reset, and cfb's reset runs
  // the working-set profiler. Take out the resets the sched replay timed
  // so that profiler time does not land in the interaction term.
  double reset_s = 0;
  for (const auto& [fam, d] : r.dispatch) reset_s += d.reset_s;
  const double run_s = std::max(0.0, r.run_s - reset_s);
  const double ns_per_ref = ns(run_s, r.sim_refs);
  const double expand = ns(r.mem.expand_s, r.mem.expand_refs);
  const double l1 = ns(r.mem.l1_s, r.mem.l1_accesses);
  const double l2 = ns(r.mem.l2_s, r.mem.l2_accesses);
  const double mem = ns(r.mem.mem_s, r.mem.mem_requests);
  // Every reference probes an L1; L1 misses reach the L2; L2 misses
  // reach the channel. Weighted by the simulations' own counts.
  const double interaction =
      ns_per_ref - expand - l1 -
      l2 * ratio(count(r.l2_hits + r.l2_misses), refs) -
      mem * ratio(count(r.l2_misses), refs);
  std::vector<Metric> m = {
      {"harness.build_s", r.build_s, "s"},
      {"harness.builds", count(r.builds), "count"},
      {"harness.tasks", count(r.tasks), "count"},
      {"harness.refs", count(r.refs), "count"},
      {"harness.dag_mb", count(r.dag_bytes) / (1024.0 * 1024.0), "MB"},
      {"core.expand_ns_per_ref", expand, "ns/ref"},
      {"simarch.run_s", run_s, "s"},
      {"simarch.ns_per_ref", ns_per_ref, "ns/ref"},
      {"simarch.l1_ns_per_access", l1, "ns/access"},
      {"simarch.l2_ns_per_access", l2, "ns/access"},
      {"simarch.mem_ns_per_request", mem, "ns/request"},
      {"simarch.interaction_ns_per_ref", interaction, "ns/ref"},
      {"simarch.cycles", count(r.cycles), "cycles"},
      {"simarch.l1_hit_frac", ratio(count(r.l1_hits), refs), "ratio"},
      {"simarch.l2_hits", count(r.l2_hits), "count"},
      {"simarch.l2_misses", count(r.l2_misses), "count"},
      {"simarch.invalidations", count(r.invalidations), "count"},
      {"simarch.writebacks", count(r.writebacks), "count"},
      {"simarch.mem_queue_cycles", count(r.mem_queue_cycles), "cycles"},
      {"simarch.job_p50_s", quantile(r.job_s, 0.5), "s"},
      {"simarch.job_p90_s", quantile(r.job_s, 0.9), "s"},
  };
  for (const char* fam : {"pdf", "ws", "cfb"}) {
    const auto it = r.dispatch.find(fam);
    const perfbench::DispatchReplay d =
        it == r.dispatch.end() ? perfbench::DispatchReplay{} : it->second;
    m.push_back({std::string("sched.") + fam + ".reset_s", d.reset_s, "s"});
    m.push_back({std::string("sched.") + fam + ".ns_per_task",
                 ns(d.dispatch_s, d.tasks), "ns/task"});
  }
  uint64_t deferred = 0;
  for (const auto& [fam, d] : r.dispatch) deferred += d.deferred;
  m.push_back({"sched.steals", count(r.steals), "count"});
  m.push_back({"sched.deferred_acquires", count(deferred), "count"});
  m.push_back({"profile.run_s", r.profile_s, "s"});
  m.push_back({"profile.ns_per_ref", ns(r.profile_s, r.profile_refs), "ns/ref"});
  m.push_back({"coarsen.s", r.coarsen_s, "s"});
  m.push_back({"coarsen.tasks_out", count(r.coarsen_tasks_out), "count"});
  m.push_back({"exp.sweep_s", r.sweep_s, "s"});
  m.push_back({"exp.build_phase_s", r.build_phase_s, "s"});
  m.push_back({"exp.builds_per_job",
               ratio(count(r.sweep_builds), count(r.sweep_jobs)), "ratio"});
  m.push_back({"exp.store.put_ms", r.store_put_ms, "ms"});
  m.push_back({"exp.store.load_ms", r.store_load_ms, "ms"});
  m.push_back({"exp.store.hit_frac", r.store_hit_frac, "ratio"});
  m.push_back({"exp.retries", count(r.retries), "count"});
  m.push_back({"exp.quarantined", count(r.quarantined), "count"});
  m.push_back({"exp.pool_util", r.pool_util, "ratio"});
  return m;
}

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

int run(const std::string& workload, uint64_t seed, const std::string& scratch,
        const std::string& expect, const std::string& trace_path,
        const std::string& commit, bool digests, bool plant) {
  Run r(workload, seed, !trace_path.empty());
  r.scratch = scratch;
  r.plant = plant;
  std::filesystem::create_directories(scratch);
  if (!expect.empty()) r.oracle.load_expectations(expect);

  const std::string build_type =
#ifdef NDEBUG
      PERFBENCH_BUILD_TYPE;
#else
      std::string(PERFBENCH_BUILD_TYPE) + " (assertions on)";
#endif
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"workload", workload},
      {"seed", std::to_string(seed)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"workers", std::to_string(r.workers)},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", build_type},
      {"commit", commit},
      {"run_id", r.tr.run_id()},
  };
  std::printf("#");
  for (const auto& [k, v] : meta) std::printf(" %s=%s", k.c_str(), v.c_str());
  std::printf("\n");
  std::fflush(stdout);

  r.t0 = Clock::now();
  if (workload == "paper-sweep") {
    run_paper_sweep(r);
  } else if (workload == "shared-l2") {
    run_shared_l2(r);
  } else {
    run_fine_grain(r);
  }
  r.oracle.finish();

  if (digests) r.oracle.print_digests(stdout);
  for (const std::string& f : r.oracle.failures()) {
    std::printf("FAILED %s\n", f.c_str());
  }
  std::printf("digest %s (%s)\n", perfbench::hex64(r.oracle.combined()).c_str(),
              r.oracle.checked() ? "checked against recorded digests"
                                 : "seed not documented; printed only");

  const std::vector<Metric> e2e = end_to_end(r);
  std::vector<Metric> layers;
  if (r.tr.enabled()) layers = per_layer(r);
  for (const Metric& m : e2e) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (r.tr.enabled()) {
    for (const auto& [layer, t] : r.tr.layer_totals()) {
      std::printf("layer %-10s busy_s %9.4f  self_s %9.4f  spans %llu\n",
                  layer.c_str(), t.busy_s, t.self_s,
                  static_cast<unsigned long long>(t.spans));
    }
    if (!r.tr.write_chrome_json(trace_path, meta)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
      return kExitRuntime;
    }
    std::printf("trace written to %s\n", trace_path.c_str());
  }

  std::string out = "{\"workload\": " + json_str(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"attempted\": " + std::to_string(r.oracle.attempted()) +
                    ", \"failed\": " + std::to_string(r.oracle.failed()) +
                    ", \"digest\": " + json_str(perfbench::hex64(r.oracle.combined())) +
                    ", \"digest_checked\": " +
                    (r.oracle.checked() ? "true" : "false") + ", \"meta\": {";
  for (size_t i = 0; i < meta.size(); ++i) {
    out += (i ? ", " : "") + json_str(meta[i].first) + ": " +
           json_str(meta[i].second);
  }
  out += "}, \"setup_samples\": [";
  for (size_t i = 0; i < r.setup_samples.size(); ++i) {
    out += (i ? ", " : "") + json_num(r.setup_samples[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const std::vector<Metric>* list : {&e2e, &std::as_const(layers)}) {
    for (const Metric& m : *list) {
      out += (first ? "" : ", ") + json_str(m.name) + ": {\"value\": " +
             json_num(m.value) + ", \"unit\": " + json_str(m.unit) + "}";
      first = false;
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scratch, expect, trace_path, commit;
  int64_t seed = -1;
  bool digests = false, plant = false;
  try {
    CliArgs args(argc, argv);
    workload = args.get("workload", "");
    seed = args.get_int("seed", -1);
    scratch = args.get("scratch", ".bench_build/scratch");
    expect = args.get("expect", "");
    trace_path = args.get("trace", "");
    commit = args.get("commit", "unknown");
    digests = args.get_bool("digests", false);
    plant = args.get_bool("plant", false);
    if (const int rc = args.check_unused()) return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return kExitUsage;
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
      kWorkloads.end()) {
    std::fprintf(stderr,
                 "perfbench: --workload must be one of paper-sweep, "
                 "shared-l2, fine-grain\n");
    return kExitUsage;
  }
  if (seed < 0) {
    std::fprintf(stderr, "perfbench: --seed=N (N >= 0) is required\n");
    return kExitUsage;
  }
  for (const char* var : kRefusedEnv) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set: it changes the "
                   "engine path being measured\n",
                   var);
      return kExitUsage;
    }
  }
  try {
    return run(workload, static_cast<uint64_t>(seed), scratch, expect,
               trace_path, commit, digests, plant);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return kExitRuntime;
  }
}
