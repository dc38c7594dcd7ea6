// cachesched — command-line driver for the library.
//
//   cachesched_cli run   --app=mergesort --cores=16 [--sched=pdf,ws]
//                        [--scale=0.125] [--tech=default|45nm]
//                        [--l2-hit=N] [--mem-latency=N] [--task-ws=BYTES]
//   cachesched_cli list                             # registered schedulers
//                                                   # and workloads
//   cachesched_cli sweep --apps=mergesort,hashjoin,lu [--scheds=pdf,ws]
//                        [--cores=1,2,4,8,16,32|all] [--scales=0.125,...]
//                        [--tech=default|45nm] [--seq] [--jobs=N]
//                        [--csv=path] [--json=path] [--progress]
//                        [--l2-hit=N] [--mem-latency=N] [--banks=N]
//                        [--dispatch=N]             # parallel job matrix
//   cachesched_cli sweep ... --store=DIR   # incremental: load completed
//                        jobs from the content-addressed result store,
//                        simulate + persist only the rest. Rerunning the
//                        same command resumes a killed sweep; rerunning it
//                        without --shard assembles a sharded one.
//   cachesched_cli sweep ... --store=DIR --shard=i/N  # simulate only
//                        shard i of the matrix into the shared store
//   cachesched_cli sweep ... [--retries=N] [--retry-backoff=MS]
//                        [--quarantine=BOOL]  # a failed store write is
//                        retried with backoff; a job that exhausts its
//                        retries is reported and skipped (exit 3).
//   cachesched_cli memory [--apps=mergesort] [--scale=1.0] [--cores=8]
//                        [--task-ws=BYTES]  # deterministic report of
//                        the bytes a DAG stores (trace arena + task
//                        metadata)
//   cachesched_cli paper [--only=fig2,...] [--jobs=N] [--csv=DIR]
//                        # regenerate every paper figure and table
//                        (artifact list and CSV names: tools/paper.cc;
//                        --only=table_configs prints Tables 2 and 3)
//
// Everywhere an app name is accepted (--app, --apps), a synthetic
// generator spec like "dnc:depth=8,fanout=4,ws=64K,share=0.3" works too
// (keys: src/gen/genspec.h; `list` prints the families). Scheduler
// names (--sched, --scheds) take the same spec-string form, e.g.
// "ws:victims=rand,steal=half,seed=7" (grammar: src/util/spec.h;
// `list` prints each scheduler's keys and defaults).
//
// The timing-override flags (--l2-hit, --mem-latency, --banks,
// --dispatch) are parsed once into a ConfigOverrides (simarch/config.h)
// and accepted by run and sweep alike.
//
// Exit codes (util/cli.h ExitCode): 0 success, 1 runtime error, 2 usage
// error (unknown flags/subcommands, malformed flag values including an
// output file whose directory does not exist, bad spec strings, a --tech
// or --cores the configuration tables do not list), 3 sweep completed
// with quarantined jobs.
// Errors go to stderr. Every subcommand rejects these usage errors (exit
// 2) before it builds a workload or writes a file.
#include <cstdio>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/store.h"
#include "exp/sweep.h"
#include "gen/genspec.h"
#include "harness/apps.h"
#include "harness/workload_registry.h"
#include "sched/registry.h"
#include "util/cli.h"
#include "util/table.h"

using namespace cachesched;

namespace cachesched {
/// `paper`: regenerates every figure and table (tools/paper.cc).
int cmd_paper(const CliArgs& args);
}  // namespace cachesched

namespace {

/// The one place CLI flags become config-timing overrides; shared by
/// run (via config_from_args) and sweep (via SweepSpec).
ConfigOverrides overrides_from_args(const CliArgs& args) {
  ConfigOverrides o;
  if (args.has("l2-hit")) o.l2_hit_cycles = args.get_int("l2-hit", 0);
  if (args.has("mem-latency")) {
    o.mem_latency_cycles = args.get_int("mem-latency", 0);
  }
  if (args.has("banks")) o.l2_banks = args.get_int("banks", 0);
  if (args.has("dispatch")) {
    o.task_dispatch_cycles = args.get_int<uint32_t>("dispatch", 0);
  }
  return o;
}

/// Resolves --tech/--cores/--scale and the timing overrides into `*out`.
/// A tech or core count the tables do not list, or a bad scale, is a
/// usage error: reported, exit 2.
int config_from_args(const CliArgs& args, CmpConfig* out) {
  try {
    const CmpConfig base =
        tech_config(args.get("tech", "default"), args.get_int("cores", 8));
    *out = base.scaled(args.get_double("scale", 0.125));
  } catch (const std::invalid_argument& e) {
    std::cerr << "cachesched_cli: " << e.what() << "\n";
    return kExitUsage;
  }
  overrides_from_args(args).apply(*out);
  return kExitOk;
}

std::vector<std::string> sched_list(const CliArgs& args) {
  // split_workload_list keeps parameterized specs with embedded commas
  // ("ws:victims=rand,steal=half") whole, same as for generator specs.
  return split_workload_list(args.get("sched", "pdf,ws"));
}

/// Validates scheduler specs up front — before any workload build or
/// sweep — so an unknown name or bad parameter exits 2 (like unknown
/// flags) with the registry's nearest-name hint instead of throwing out
/// of the middle of a run.
int check_scheds(const std::vector<std::string>& scheds) {
  for (const auto& spec : scheds) {
    try {
      (void)make_scheduler(spec);
    } catch (const std::invalid_argument& e) {
      std::cerr << "cachesched_cli: " << e.what() << "\n";
      return 2;
    }
  }
  return 0;
}

/// Validates workload specs whole (name and params) up front, like
/// check_scheds, through the parse make_workload uses: a bad spec exits
/// 2 before any build.
int check_apps(const std::vector<std::string>& apps) {
  for (const auto& spec : apps) {
    try {
      check_workload(spec);
    } catch (const std::invalid_argument& e) {
      std::cerr << "cachesched_cli: " << e.what() << "\n";
      return kExitUsage;
    }
  }
  return kExitOk;
}

/// Runs every scheduler and prints the result table.
int report(const TaskDag& dag, const CmpConfig& cfg,
           const std::vector<std::string>& scheds) {
  Table t({"sched", "cycles", "L2miss/1Kinstr", "l1_hits", "l2_hits",
           "l2_misses", "bw_util%", "core_util%", "steals"});
  for (const auto& sched : scheds) {
    CmpSimulator sim(cfg);
    auto s = make_scheduler(sched);
    const SimResult r = sim.run(dag, *s);
    t.add_row({r.scheduler, Table::num(r.cycles),
               Table::num(r.l2_misses_per_kilo_instr(), 3),
               Table::num(r.l1_hits), Table::num(r.l2_hits),
               Table::num(r.l2_misses),
               Table::num(100.0 * r.mem_bandwidth_utilization(), 1),
               Table::num(100.0 * r.core_utilization(), 1),
               Table::num(r.steals)});
  }
  std::cout << cfg.describe() << "\n";
  t.emit();
  return kExitOk;
}

int cmd_run(const CliArgs& args) {
  CmpConfig cfg;
  if (const int rc = config_from_args(args, &cfg)) return rc;
  AppOptions opt;
  opt.scale = args.get_double("scale", 0.125);
  opt.mergesort_task_ws = args.get_int<uint64_t>("task-ws", 0);
  opt.fine_grained = args.get_bool("fine-grained", true);
  const std::string app = args.get("app", "mergesort");
  if (const int rc = check_apps({app})) return rc;
  const std::vector<std::string> scheds = sched_list(args);
  if (const int rc = check_scheds(scheds)) return rc;
  // Every flag has been queried; fail on typos before the workload build.
  if (const int rc = args.check_unused()) return rc;
  const Workload w = make_workload(app, cfg, opt);
  std::cout << w.name << ": " << w.params << " (" << w.dag.num_tasks()
            << " tasks, " << w.dag.total_refs() << " refs)\n";
  return report(w.dag, cfg, scheds);
}

/// The sweep job-matrix flags. A sharded run and the unsharded rerun that
/// assembles it read the same flags, so they expand the same matrix.
SweepSpec spec_from_args(const CliArgs& args) {
  SweepSpec spec;
  // split_workload_list keeps generator specs with embedded commas whole.
  spec.apps = split_workload_list(args.get("apps", "mergesort,hashjoin,lu"));
  if (spec.apps.size() == 1 && spec.apps[0] == "all") spec.apps = known_apps();
  spec.scheds = split_workload_list(args.get("scheds", "pdf,ws"));
  if (args.get("cores", "") == "all") {
    spec.core_counts.clear();  // every configuration of the tech table
  } else {
    spec.core_counts = args.get_int_list<int>("cores", {1, 2, 4, 8, 16, 32});
  }
  spec.scales =
      args.get_double_list("scales", {args.get_double("scale", 0.125)});
  spec.tech = args.get("tech", "default");
  spec.sequential_baseline = args.get_bool("seq", false);
  spec.fine_grained = args.get_bool("fine-grained", true);
  spec.mergesort_task_ws = args.get_int<uint64_t>("task-ws", 0);
  spec.overrides = overrides_from_args(args);
  return spec;
}

int cmd_sweep(const CliArgs& args) {
  SweepSpec spec = spec_from_args(args);
  if (const int rc = check_apps(spec.apps)) return rc;
  if (const int rc = check_scheds(spec.scheds)) return rc;

  SweepOptions opt;
  opt.workers = args.get_int("jobs", 0);
  opt.job_retries = args.get_int("retries", 0);
  opt.retry_backoff_ms = args.get_int<uint64_t>("retry-backoff", 10);
  // The CLI is sweep-as-a-service: one bad job is reported and skipped
  // (exit 3) rather than aborting the whole matrix. The library default
  // stays fail-fast; pass --quarantine=false to get it back.
  opt.quarantine = args.get_bool("quarantine", true);
  if (args.get_bool("progress", false)) {
    opt.on_result = [](const SweepRecord& r, size_t done, size_t total) {
      std::fprintf(stderr, "[%zu/%zu] %s/%s cores=%d done\n", done, total,
                   r.job.app.c_str(), r.job.sched.c_str(), r.job.config.cores);
    };
  }
  const std::string csv = args.get_output("csv", "");
  const std::string json = args.get_output("json", "");
  const std::string store_dir = args.get("store", "");
  const std::string shard = args.get("shard", "");
  // Every flag has been queried; fail on typos *before* the long run.
  if (const int rc = args.check_unused()) return rc;

  if (!shard.empty() && store_dir.empty()) {
    std::cerr << "sweep: --shard requires --store=DIR (the shards' records "
                 "are assembled from the store)\n";
    return kExitUsage;
  }
  if (!shard.empty() && (!csv.empty() || !json.empty())) {
    std::cerr << "sweep: --shard runs emit no CSV/JSON; rerun the same "
                 "command without --shard to assemble the output\n";
    return kExitUsage;
  }

  // A tech or core count the tables do not list, or a bad scale, is a
  // usage error: reported, exit 2, before anything is built.
  std::vector<SweepJob> jobs;
  try {
    jobs = expand(spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "sweep: " << e.what() << "\n";
    return kExitUsage;
  }
  if (jobs.empty()) {
    std::cerr << "sweep: empty job matrix (check --apps/--scheds/--cores)\n";
    return kExitUsage;
  }
  const size_t full_matrix = jobs.size();
  if (!shard.empty()) {
    const auto [i, n] = parse_shard(shard);
    jobs = shard_jobs(jobs, i, n);
  }

  std::optional<ResultStore> store;
  if (!store_dir.empty()) {
    store.emplace(store_dir);
    opt.store = &*store;
  }

  std::cerr << "sweep: " << jobs.size() << " jobs"
            << (shard.empty() ? ""
                              : " (shard " + shard + " of " +
                                    std::to_string(full_matrix) + ")")
            << " (" << (opt.workers > 0 ? std::to_string(opt.workers) : "auto")
            << " workers)\n";
  const SweepResults res = run_sweep(jobs, opt);
  if (store) {
    const ResultStore::Stats s = store->stats();
    std::cerr << "sweep: store " << store_dir << ": " << s.hits
              << " store hits, " << (jobs.size() - s.hits) << " simulated";
    if (s.corrupt) std::cerr << " (" << s.corrupt << " rejected entries)";
    std::cerr << "\n";
  }
  if (res.retries() > 0) {
    std::cerr << "sweep: " << res.retries() << " job retries\n";
  }
  if (!res.quarantined().empty()) {
    std::cerr << "sweep: " << res.quarantined().size() << " quarantined:\n";
    for (const QuarantinedJob& q : res.quarantined()) {
      std::cerr << "  job " << q.index << ": " << q.key.app << "/"
                << q.key.sched << "/cores=" << q.key.cores
                << (q.key.tag.empty() ? "" : "/" + q.key.tag) << ": "
                << q.error << "\n";
    }
  }
  const int rc = res.quarantined().empty() ? kExitOk : kExitQuarantined;
  if (!shard.empty()) {
    // Shard output lives in the store; the unsharded rerun assembles it.
    return rc;
  }
  res.to_table().emit(csv);
  if (!json.empty()) {
    res.write_json(json);
    std::cout << "[json written to " << json << "]\n";
  }
  return rc;
}

/// `memory`: deterministic size report (no timing) for the paper-scale
/// footprint question — the trace-arena and task-metadata bytes the built
/// DAG stores, per workload.
int cmd_memory(const CliArgs& args) {
  const double scale = args.get_double("scale", 1.0);
  const int cores = args.get_int("cores", 8);
  const std::vector<std::string> apps =
      split_workload_list(args.get("apps", "mergesort"));
  AppOptions opt;
  opt.scale = scale;
  opt.mergesort_task_ws = args.get_int<uint64_t>("task-ws", 0);
  if (const int rc = args.check_unused()) return rc;
  if (const int rc = check_apps(apps)) return rc;
  CmpConfig cfg;
  try {
    cfg = tech_config("default", cores).scaled(scale);
  } catch (const std::invalid_argument& e) {
    std::cerr << "cachesched_cli: " << e.what() << "\n";
    return kExitUsage;
  }
  Table t({"app", "tasks", "refs", "trace_arena_MB", "task_MB", "edge_MB",
           "group_MB", "total_MB", "B/task", "refs/B"});
  for (const std::string& app : apps) {
    const Workload w = make_workload(app, cfg, opt);
    const TaskDag::MemoryStats m = w.dag.memory_stats();
    const double mb = 1024.0 * 1024.0;
    t.add_row({app, Table::num(w.dag.num_tasks()),
               Table::num(w.dag.total_refs()),
               Table::num(static_cast<double>(m.trace_arena_bytes) / mb, 1),
               Table::num(static_cast<double>(m.task_bytes) / mb, 1),
               Table::num(static_cast<double>(m.edge_bytes) / mb, 1),
               Table::num(static_cast<double>(m.group_bytes) / mb, 1),
               Table::num(static_cast<double>(m.total()) / mb, 1),
               Table::num(static_cast<double>(m.total()) /
                              static_cast<double>(w.dag.num_tasks()), 1),
               Table::num(static_cast<double>(w.dag.total_refs()) /
                              static_cast<double>(m.total()), 1)});
  }
  std::cout << "DAG memory at scale " << scale << " (cores=" << cores
            << "):\n";
  t.emit();
  return 0;
}

int cmd_list(const CliArgs& args) {
  if (const int rc = args.check_unused()) return rc;
  std::cout << "schedulers (spec grammar: name[:key=val,...]):\n";
  Table s({"name", "param", "default", "description"});
  for (const auto& name : known_schedulers()) {  // sorted
    const auto params = scheduler_keys(name);
    if (params.empty()) {
      s.add_row({name, "-", "-", "(no parameters)"});
      continue;
    }
    for (size_t i = 0; i < params.size(); ++i) {
      s.add_row({i == 0 ? name : "", params[i].key, params[i].def,
                 params[i].doc});
    }
  }
  s.emit();
  std::cout << "\nworkloads:\n";
  Table t({"name", "kind"});
  for (const auto& name : known_workloads()) {  // sorted
    const char* kind = GenSpec::is_family(name)
                           ? "generated family (src/gen, see README)"
                           : "seed app";
    t.add_row({name, kind});
  }
  t.emit();
  return 0;
}

int usage() {
  std::cerr << "usage: cachesched_cli {run|list|sweep|memory|paper} "
               "[options]\n"
               "see the header of tools/cachesched_cli.cc for options\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    CliArgs args(argc - 1, argv + 1);
    int rc;
    if (cmd == "run") rc = cmd_run(args);
    else if (cmd == "list") rc = cmd_list(args);
    else if (cmd == "sweep") rc = cmd_sweep(args);
    else if (cmd == "memory") rc = cmd_memory(args);
    else if (cmd == "paper") rc = cmd_paper(args);
    else return usage();
    // Subcommands that already failed (including on their own
    // check_unused) return as-is; re-checking would print twice.
    return rc ? rc : args.check_unused();
  } catch (const std::exception& e) {
    std::cerr << "cachesched_cli: " << e.what() << "\n";
    return kExitRuntime;
  }
}
