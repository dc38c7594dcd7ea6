// cachesched — command-line driver for the library.
//
//   cachesched_cli run   --app=mergesort --cores=16 [--sched=pdf,ws]
//                        [--scale=0.125] [--tech=default|45nm]
//                        [--l2-hit=N] [--mem-latency=N] [--task-ws=BYTES]
//                        [--check=SPEC] [--repro-out=FILE]  # runtime
//                        invariant checking (grammar: src/check/checkspec.h;
//                        also armed by $CACHESCHED_CHECK);
//                        --check=coherence,lru,period=1 runs the reference
//                        cache model in lockstep. A violation writes a
//                        crash reproducer (default crash.repro) and exits 4.
//   cachesched_cli trace --app=hashjoin --cores=8 --out=join.dag
//                        [--scale=0.125]            # collect once...
//   cachesched_cli replay --dag=join.dag --cores=8 [--sched=pdf]
//                        [--scale=0.125]            # ...simulate many
//                        (accepts --check/--repro-out like run)
//   cachesched_cli replay-crash --repro=crash.repro  # re-create the run a
//                        crash reproducer captured, with the same checkers
//                        armed: exits 4 if the violation reproduces, 0 if
//                        the run is clean (format: src/check/reproducer.h)
//   cachesched_cli configs                          # print Tables 2 and 3
//   cachesched_cli list                             # registered schedulers
//                                                   # and workloads
//   cachesched_cli sweep --apps=mergesort,hashjoin,lu [--scheds=pdf,ws]
//                        [--cores=1,2,4,8,16,32|all] [--scales=0.125,...]
//                        [--tech=default|45nm] [--seq] [--jobs=N]
//                        [--csv=path] [--json=path] [--progress]
//                        [--l2-hit=N] [--mem-latency=N] [--banks=N]
//                        [--dispatch=N] [--quantum=N] # parallel job matrix
//   cachesched_cli sweep ... --store=DIR [--resume]   # incremental: load
//                        completed jobs from the content-addressed result
//                        store, simulate + persist only the rest
//   cachesched_cli sweep ... --store=DIR --shard=i/N  # simulate only
//                        shard i of the matrix into the shared store
//   cachesched_cli sweep ... [--check=SPEC] [--repro-out=FILE]  # arm the
//                        invariant checkers on every job; a violation
//                        aborts the sweep (never quarantined), writes a
//                        reproducer for the failing job and exits 4
//   cachesched_cli sweep ... [--job-timeout=MS] [--retries=N]
//                        [--retry-backoff=MS] [--quarantine=BOOL]
//                        [--faults=SPEC]   # fault tolerance: per-job
//                        watchdog, bounded retry of transient errors,
//                        quarantine instead of abort (exit 3 when jobs
//                        were quarantined), deterministic fault injection
//                        (grammar: src/robust/faultinject.h; also armed
//                        by $CACHESCHED_FAULTS). SIGINT/SIGTERM shut the
//                        sweep down gracefully: in-flight jobs drain,
//                        completed store writes are durable, a
//                        --resume-ready command line is printed, exit 130.
//   cachesched_cli sweep merge ... --store=DIR [--csv --json]
//                        [--allow-holes]
//                        # reassemble the full matrix from the store, in
//                        job order — byte-identical to an unsharded run;
//                        missing records abort (listing the holes) unless
//                        --allow-holes emits the partial matrix (exit 3)
//   cachesched_cli memory [--apps=mergesort] [--scale=1.0] [--cores=8]
//                        [--task-ws=BYTES]  # deterministic DAG resident-
//                        size report (trace arena + task metadata)
//   cachesched_cli paper [--only=fig2,...] [--jobs=N] [--csv=DIR]
//                        # regenerate every paper figure and table
//                        (artifact list and CSV names: tools/paper.cc)
//
// Everywhere an app name is accepted (--app, --apps), a synthetic
// generator spec like "dnc:depth=8,fanout=4,ws=64K,share=0.3" works too
// (grammar: src/gen/genspec.h; `list` prints the families). Scheduler
// names (--sched, --scheds) take the same spec-string form, e.g.
// "ws:victims=rand,steal=half,seed=7" (grammar: src/sched/schedspec.h;
// `list` prints each scheduler's keys and defaults).
//
// The timing-override flags (--l2-hit, --mem-latency, --banks,
// --dispatch, --quantum) are parsed once into a ConfigOverrides
// (simarch/config.h) and accepted by run/trace/replay/sweep alike.
//
// Exit codes (util/cli.h ExitCode): 0 success, 1 runtime error, 2 usage
// error (unknown flags/subcommands, malformed flag values including an
// output file whose directory does not exist, bad spec strings), 3 sweep
// completed with quarantined jobs / merge assembled with holes, 4 an
// armed checker caught an invariant violation (a crash reproducer was
// written), 130 interrupted by SIGINT/SIGTERM after a graceful drain.
// Errors go to stderr. Every subcommand rejects these usage errors (exit
// 2) before it builds a workload or writes a file.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/checkspec.h"
#include "check/invariants.h"
#include "check/reproducer.h"
#include "core/dag_io.h"
#include "exp/store.h"
#include "exp/sweep.h"
#include "harness/apps.h"
#include "harness/workload_registry.h"
#include "robust/errors.h"
#include "robust/faultinject.h"
#include "sched/registry.h"
#include "util/cli.h"
#include "util/table.h"

using namespace cachesched;

namespace cachesched {
/// `paper`: regenerates every figure and table (tools/paper.cc).
int cmd_paper(const CliArgs& args);
}  // namespace cachesched

namespace {

/// Set by the SIGINT/SIGTERM handler; polled by run_sweep's cancel
/// callback so an in-flight sweep drains gracefully (completed store
/// writes stay durable) instead of dying mid-rename.
volatile std::sig_atomic_t g_signal = 0;

extern "C" void on_shutdown_signal(int sig) { g_signal = sig; }

/// The full original command line, captured in main() so an interrupted
/// sweep can print a copy-pasteable `--resume` continuation.
std::string g_command_line;

/// Arms the per-subcommand --faults=SPEC clause set (replacing whatever
/// $CACHESCHED_FAULTS armed in main). A bad spec is a usage error, same
/// as a bad scheduler spec: report and exit 2 before any work runs.
int arm_faults_from_cli(const CliArgs& args) {
  const std::string spec = args.get("faults", "");
  if (spec.empty()) return kExitOk;
  try {
    robust::arm_faults(spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "cachesched_cli: " << e.what() << "\n";
    return kExitUsage;
  }
  return kExitOk;
}

/// The one place CLI flags become config-timing overrides; shared by
/// run/trace/replay (via config_from_args) and sweep (via SweepSpec).
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
  if (args.has("quantum")) {
    o.quantum_cycles = args.get_int<uint64_t>("quantum", 0);
  }
  return o;
}

CmpConfig config_from_args(const CliArgs& args) {
  const int cores = args.get_int("cores", 8);
  const std::string tech = args.get("tech", "default");
  CmpConfig cfg = tech == "45nm" ? single_tech_45nm_config(cores)
                                 : default_config(cores);
  const double scale = args.get_double("scale", 0.125);
  cfg = cfg.scaled(scale);
  overrides_from_args(args).apply(cfg);
  return cfg;
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

/// Validates workload specs up front, like check_scheds: an unknown
/// workload name exits 2 with a nearest-name hint before any build.
int check_apps(const std::vector<std::string>& apps) {
  const WorkloadRegistry& reg = WorkloadRegistry::instance();
  for (const auto& spec : apps) {
    if (reg.contains(spec)) continue;
    const std::string name = spec.substr(0, spec.find(':'));
    const std::string hint = nearest_flag(name, reg.names());
    std::cerr << "cachesched_cli: unknown workload: " << name
              << (hint.empty() ? "" : " (did you mean " + hint + "?)") << "\n";
    return kExitUsage;
  }
  return kExitOk;
}

/// The --check/--repro-out vocabulary of run and replay.
struct CheckFlags {
  check::CheckSpec check;
  std::string repro_out = "crash.repro";
};

int check_flags_from_args(const CliArgs& args, CheckFlags* out) {
  const std::string cs = args.get("check", "");
  out->repro_out = args.get_output("repro-out", "crash.repro");
  try {
    if (!cs.empty()) out->check = check::CheckSpec::parse(cs);
  } catch (const std::invalid_argument& e) {
    std::cerr << "cachesched_cli: " << e.what() << "\n";
    return kExitUsage;
  }
  return kExitOk;
}

/// Reports a violation, writes the crash reproducer, and returns
/// kExitVerifyFailed for the caller to return.
int fail_verify(const CheckFlags& cf, const check::CrashRepro& repro) {
  try {
    repro.save(cf.repro_out);
    std::cerr << "cachesched_cli: crash reproducer written to "
              << cf.repro_out << "; replay with:\n  cachesched_cli "
              << "replay-crash --repro=" << cf.repro_out << "\n";
  } catch (const std::exception& e) {
    std::cerr << "cachesched_cli: " << e.what() << "\n";
  }
  return kExitVerifyFailed;
}

/// Runs every scheduler and prints the result table. `cf`/`base` carry
/// the check configuration and the reproducer identity of the run (base's
/// sched/op_index/violation fields are filled in here); an invariant
/// violation writes the reproducer and returns kExitVerifyFailed.
int report(const TaskDag& dag, const CmpConfig& cfg,
           const std::vector<std::string>& scheds,
           std::optional<uint64_t> quantum, const CheckFlags& cf,
           check::CrashRepro base) {
  Table t({"sched", "cycles", "L2miss/1Kinstr", "l1_hits", "l2_hits",
           "l2_misses", "bw_util%", "core_util%", "steals"});
  for (const auto& sched : scheds) {
    CmpSimulator sim(cfg);
    if (quantum) sim.set_quantum_cycles(*quantum);
    if (cf.check.any()) sim.set_check(cf.check);
    auto s = make_scheduler(sched);
    base.sched = sched;
    SimResult r;
    try {
      r = sim.run(dag, *s);
    } catch (const check::CheckViolation& e) {
      std::cerr << "cachesched_cli: " << e.what() << "\n";
      base.op_index = e.op_index();
      base.violation = e.what();
      return fail_verify(cf, base);
    }
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

/// The reproducer identity shared by run and replay: everything needed
/// to re-create the run except the per-scheduler fields report() fills.
check::CrashRepro base_repro(const CliArgs& args, const CheckFlags& cf,
                             const AppOptions& opt) {
  check::CrashRepro r;
  r.tech = args.get("tech", "default");
  r.cores = args.get_int("cores", 8);
  r.scale = opt.scale;
  r.task_ws = opt.mergesort_task_ws;
  r.fine_grained = opt.fine_grained;
  r.seed = opt.seed;
  r.overrides = overrides_from_args(args);
  r.check = cf.check.str();
  return r;
}

int cmd_run(const CliArgs& args) {
  const CmpConfig cfg = config_from_args(args);
  AppOptions opt;
  opt.scale = args.get_double("scale", 0.125);
  opt.mergesort_task_ws = args.get_int<uint64_t>("task-ws", 0);
  opt.fine_grained = args.get_bool("fine-grained", true);
  const std::string app = args.get("app", "mergesort");
  if (const int rc = check_apps({app})) return rc;
  const std::vector<std::string> scheds = sched_list(args);
  if (const int rc = check_scheds(scheds)) return rc;
  CheckFlags cf;
  if (const int rc = check_flags_from_args(args, &cf)) return rc;
  // Every flag has been queried; fail on typos before the workload build.
  if (const int rc = args.check_unused()) return rc;
  const Workload w = make_workload(app, cfg, opt);
  std::cout << w.name << ": " << w.params << " (" << w.dag.num_tasks()
            << " tasks, " << w.dag.total_refs() << " refs)\n";
  check::CrashRepro base = base_repro(args, cf, opt);
  base.workload = app;
  return report(w.dag, cfg, scheds, overrides_from_args(args).quantum_cycles,
                cf, std::move(base));
}

int cmd_trace(const CliArgs& args) {
  const std::string out = args.get_output("out", "");
  if (out.empty()) {
    std::cerr << "trace: --out=FILE required\n";
    return 2;
  }
  const CmpConfig cfg = config_from_args(args);
  AppOptions opt;
  opt.scale = args.get_double("scale", 0.125);
  const std::string app = args.get("app", "mergesort");
  if (const int rc = check_apps({app})) return rc;
  // Fail on typos before the build, and before --out is created.
  if (const int rc = args.check_unused()) return rc;
  const Workload w = make_workload(app, cfg, opt);
  save_dag(w.dag, out);
  std::cout << "wrote " << w.dag.num_tasks() << " tasks / "
            << w.dag.total_refs() << " refs to " << out << "\n";
  return 0;
}

int cmd_replay(const CliArgs& args) {
  const std::string path = args.get("dag", "");
  if (path.empty()) {
    std::cerr << "replay: --dag=FILE required\n";
    return 2;
  }
  const std::vector<std::string> scheds = sched_list(args);
  if (const int rc = check_scheds(scheds)) return rc;
  CheckFlags cf;
  if (const int rc = check_flags_from_args(args, &cf)) return rc;
  const CmpConfig cfg = config_from_args(args);
  AppOptions opt;
  opt.scale = args.get_double("scale", 0.125);
  // Every flag has been queried; fail on typos before loading the DAG.
  if (const int rc = args.check_unused()) return rc;
  const TaskDag dag = load_dag(path);
  std::cout << "loaded " << dag.num_tasks() << " tasks / " << dag.total_refs()
            << " refs from " << path << "\n";
  check::CrashRepro base = base_repro(args, cf, opt);
  // A replayed DAG has no generator spec; replay-crash resolves the
  // "dagfile:" prefix by loading the same file.
  base.workload = "dagfile:" + path;
  return report(dag, cfg, scheds, overrides_from_args(args).quantum_cycles,
                cf, std::move(base));
}

/// `replay-crash`: re-creates the run a crash reproducer captured —
/// same workload, scheduler, configuration and armed checkers — and
/// reports whether the violation reproduces.
int cmd_replay_crash(const CliArgs& args) {
  const std::string path = args.get("repro", "");
  if (path.empty()) {
    std::cerr << "replay-crash: --repro=FILE required\n";
    return kExitUsage;
  }
  if (const int rc = args.check_unused()) return rc;
  const check::CrashRepro r = check::CrashRepro::load(path);
  std::cerr << "replay-crash: " << r.workload << " / " << r.sched
            << " cores=" << r.cores << " scale=" << r.scale
            << (r.check.empty() ? "" : " check=" + r.check) << "\n";
  std::cerr << "replay-crash: recorded violation at op " << r.op_index
            << ": " << r.violation << "\n";

  CmpConfig cfg = r.tech == "45nm" ? single_tech_45nm_config(r.cores)
                                   : default_config(r.cores);
  cfg = cfg.scaled(r.scale);
  r.overrides.apply(cfg);
  std::string sched = r.sched;
  if (sched == kSequentialSched) {  // mirror the sweep's seq-job rewrite
    cfg.cores = 1;
    cfg.name += "-seq";
    sched = "pdf";
  }

  AppOptions opt;
  opt.scale = r.scale;
  opt.mergesort_task_ws = r.task_ws;
  opt.fine_grained = r.fine_grained;
  opt.seed = r.seed;
  std::optional<Workload> built;
  std::optional<TaskDag> loaded;
  const TaskDag* dag;
  if (r.workload.rfind("dagfile:", 0) == 0) {
    loaded.emplace(load_dag(r.workload.substr(8)));
    dag = &*loaded;
  } else {
    built.emplace(make_workload(r.workload, cfg, opt));
    dag = &built->dag;
  }

  CmpSimulator sim(cfg);
  if (r.overrides.quantum_cycles) {
    sim.set_quantum_cycles(*r.overrides.quantum_cycles);
  }
  if (!r.check.empty()) sim.set_check(check::CheckSpec::parse(r.check));
  auto s = make_scheduler(sched);
  try {
    (void)sim.run(*dag, *s);
  } catch (const check::CheckViolation& e) {
    std::cerr << "replay-crash: REPRODUCED: " << e.what() << "\n";
    return kExitVerifyFailed;
  }
  std::cout << "replay-crash: violation did NOT reproduce (clean run)\n";
  return kExitOk;
}

/// The sweep job-matrix flags, shared verbatim by `sweep` and
/// `sweep merge` so a merge reassembles exactly the matrix the sharded
/// runs simulated.
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
  if (const int rc = arm_faults_from_cli(args)) return rc;

  SweepOptions opt;
  opt.workers = args.get_int("jobs", 0);
  opt.job_timeout_ms = args.get_int<uint64_t>("job-timeout", 0);
  opt.job_retries = args.get_int("retries", 0);
  opt.retry_backoff_ms = args.get_int<uint64_t>("retry-backoff", 10);
  // The CLI is sweep-as-a-service: one bad job is reported and skipped
  // (exit 3) rather than aborting the whole matrix. The library default
  // stays fail-fast; pass --quarantine=false to get it back.
  opt.quarantine = args.get_bool("quarantine", true);
  const std::string check_spec = args.get("check", "");
  const std::string repro_out = args.get_output("repro-out", "crash.repro");
  try {
    if (!check_spec.empty()) opt.check = check::CheckSpec::parse(check_spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "cachesched_cli: " << e.what() << "\n";
    return kExitUsage;
  }
  opt.cancel = [] { return g_signal != 0; };
  if (args.get_bool("progress", false)) {
    opt.on_result = [](const SweepRecord& r, size_t done, size_t total) {
      std::fprintf(stderr, "[%zu/%zu] %s/%s cores=%d done\n", done, total,
                   r.job.app.c_str(), r.job.sched.c_str(), r.job.config.cores);
    };
  }
  const std::string csv = args.get_output("csv", "");
  const std::string json = args.get_output("json", "");
  const std::string store_dir = args.get("store", "");
  const bool resume = args.get_bool("resume", false);
  const std::string shard = args.get("shard", "");
  // Every flag has been queried; fail on typos *before* the long run.
  if (const int rc = args.check_unused()) return rc;

  if (resume && store_dir.empty()) {
    std::cerr << "sweep: --resume requires --store=DIR (the store holds the "
                 "records to resume from)\n";
    return kExitUsage;
  }
  if (resume && !std::filesystem::is_directory(store_dir)) {
    std::cerr << "sweep: nothing to resume: " << store_dir
              << " does not exist\n";
    return kExitUsage;
  }
  if (!shard.empty() && store_dir.empty()) {
    std::cerr << "sweep: --shard requires --store=DIR (shard results are "
                 "reassembled from the store by `sweep merge`)\n";
    return kExitUsage;
  }
  if (!shard.empty() && (!csv.empty() || !json.empty())) {
    std::cerr << "sweep: --shard runs emit no CSV/JSON; run `sweep merge` "
                 "with the full matrix flags to assemble output\n";
    return kExitUsage;
  }

  std::vector<SweepJob> jobs = expand(spec);
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
    if (resume && store->salt_mismatch()) {
      std::cerr << "sweep: store " << store_dir
                << " was written by engine salt \"" << store->previous_salt()
                << "\" but this binary is \"" << kStoreEngineSalt
                << "\"; every stored record will be rejected and "
                   "re-simulated (the salt is bumped by any change that "
                   "alters simulation results; see src/exp/store.h)\n";
    }
  }

  // From here on a SIGINT/SIGTERM drains in-flight jobs instead of
  // killing the process mid-store-write.
  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);

  std::cerr << "sweep: " << jobs.size() << " jobs"
            << (shard.empty() ? ""
                              : " (shard " + shard + " of " +
                                    std::to_string(full_matrix) + ")")
            << " (" << (opt.workers > 0 ? std::to_string(opt.workers) : "auto")
            << " workers)\n";
  SweepResults res;
  try {
    res = run_sweep(jobs, opt);
  } catch (const check::CheckViolation& e) {
    std::cerr << "sweep: invariant violation: " << e.what() << "\n";
    const check::CheckViolation::Context& c = e.context();
    if (c.set) {
      check::CrashRepro repro;
      repro.workload = c.app;
      repro.sched = c.sched;
      repro.tech = spec.tech;
      repro.cores = c.cores;
      repro.scale = c.scale;
      repro.task_ws = c.task_ws;
      repro.fine_grained = c.fine_grained;
      repro.seed = c.seed;
      repro.overrides = spec.overrides;
      repro.check = opt.check.any() ? opt.check.str()
                                    : check::default_check_spec().str();
      repro.op_index = e.op_index();
      repro.violation = e.what();
      try {
        repro.save(repro_out);
        std::cerr << "sweep: crash reproducer written to " << repro_out
                  << "; replay with:\n  cachesched_cli replay-crash --repro="
                  << repro_out << "\n";
      } catch (const std::exception& save_err) {
        std::cerr << "sweep: " << save_err.what() << "\n";
      }
    }
    return kExitVerifyFailed;
  } catch (const robust::SweepInterrupted& e) {
    std::cerr << "sweep: interrupted by signal " << static_cast<int>(g_signal)
              << " after " << e.completed() << "/" << e.total()
              << " jobs; in-flight jobs drained\n";
    if (store_dir.empty()) {
      std::cerr << "sweep: completed work was NOT persisted (no --store); "
                   "rerun with --store=DIR to make sweeps resumable\n";
    } else {
      std::cerr << "sweep: completed results are durable in " << store_dir
                << "; to pick up where this run stopped:\n  "
                << g_command_line
                << (g_command_line.find(" --resume") == std::string::npos
                        ? " --resume"
                        : "")
                << "\n";
    }
    return kExitInterrupted;
  }
  if (store) {
    const ResultStore::Stats s = store->stats();
    std::cerr << "sweep: store " << store_dir << ": " << s.hits
              << " store hits, " << (jobs.size() - s.hits) << " simulated";
    if (s.corrupt) std::cerr << " (" << s.corrupt << " rejected entries)";
    std::cerr << "\n";
  }
  if (res.retries() > 0) {
    std::cerr << "sweep: " << res.retries()
              << " job retries (transient errors masked by --retries)\n";
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
  const int rc = res.quarantined().empty() ? kExitOk : kExitQuarantinedHoles;
  if (!shard.empty()) {
    // Shard output lives in the store; `sweep merge` assembles it.
    return rc;
  }
  res.to_table().emit(csv);
  if (!json.empty()) {
    res.write_json(json);
    std::cout << "[json written to " << json << "]\n";
  }
  return rc;
}

/// `sweep merge`: reassembles a sweep entirely from the result store —
/// the merge step after `--shard=i/N` runs, byte-identical (CSV/JSON) to
/// a single-process run of the same matrix.
int cmd_sweep_merge(const CliArgs& args) {
  const SweepSpec spec = spec_from_args(args);
  if (const int rc = check_apps(spec.apps)) return rc;
  if (const int rc = check_scheds(spec.scheds)) return rc;
  if (const int rc = arm_faults_from_cli(args)) return rc;
  const std::string csv = args.get_output("csv", "");
  const std::string json = args.get_output("json", "");
  const std::string store_dir = args.get("store", "");
  const bool allow_holes = args.get_bool("allow-holes", false);
  // Execution-only sweep flags, accepted and ignored so the documented
  // workflow — rerun the exact shard command line with `merge` in front —
  // works verbatim (merge only loads records, it runs nothing).
  args.get_int("jobs", 0);
  args.get_bool("progress", false);
  args.get_int<uint64_t>("job-timeout", 0);
  args.get_int("retries", 0);
  args.get_int<uint64_t>("retry-backoff", 0);
  args.get_bool("quarantine", true);
  args.get("check", "");
  args.get("repro-out", "");
  if (const int rc = args.check_unused()) return rc;
  if (store_dir.empty()) {
    std::cerr << "sweep merge: --store=DIR required\n";
    return kExitUsage;
  }
  const std::vector<SweepJob> jobs = expand(spec);
  if (jobs.empty()) {
    std::cerr << "sweep merge: empty job matrix "
                 "(check --apps/--scheds/--cores)\n";
    return kExitUsage;
  }
  ResultStore store(store_dir);
  // Without --allow-holes this throws, listing the missing jobs — a merge
  // never silently emits a partial matrix.
  std::vector<MergeHole> holes;
  const SweepResults res = load_all(store, jobs, allow_holes, &holes);
  std::cerr << "sweep merge: assembled " << res.size() << " records from "
            << store_dir << "\n";
  if (!holes.empty()) {
    std::cerr << "sweep merge: " << holes.size()
              << " holes (no stored record; quarantined or never run):\n";
    for (const MergeHole& h : holes) {
      std::cerr << "  job " << h.index << ": " << h.key.app << "/"
                << h.key.sched << "/cores=" << h.key.cores
                << (h.key.tag.empty() ? "" : "/" + h.key.tag) << "\n";
    }
  }
  res.to_table().emit(csv);
  if (!json.empty()) {
    res.write_json(json);
    std::cout << "[json written to " << json << "]\n";
  }
  return holes.empty() ? kExitOk : kExitQuarantinedHoles;
}

/// `memory`: deterministic resident-size report (no timing) for the
/// paper-scale footprint question — peak trace-arena and task-metadata
/// bytes of the built DAG, per workload.
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
  const CmpConfig cfg = default_config(cores).scaled(scale);
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
  for (const auto& name : known_schedulers()) {  // sorted by the registry
    const auto params = SchedulerRegistry::instance().params(name);
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
  for (const auto& [name, kind] : WorkloadRegistry::instance().entries()) {
    t.add_row({name, kind});
  }
  t.emit();
  return 0;
}

int cmd_configs(const CliArgs& args) {
  if (const int rc = args.check_unused()) return rc;
  auto print = [](const char* title, const std::vector<CmpConfig>& v) {
    std::cout << "\n" << title << "\n";
    for (const auto& c : v) std::cout << "  " << c.describe() << "\n";
  };
  print("Table 2 (default, scaling technology):", default_configs());
  print("Table 3 (45nm single technology):", single_tech_45nm_configs());
  return 0;
}

int usage() {
  std::cerr << "usage: cachesched_cli "
               "{run|trace|replay|replay-crash|configs|list|sweep|"
               "sweep merge|memory|paper} [options]\n"
               "see the header of tools/cachesched_cli.cc for options\n";
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  for (int i = 0; i < argc; ++i) {
    if (i) g_command_line += ' ';
    g_command_line += argv[i];
  }
  // $CACHESCHED_FAULTS arms fault injection for any subcommand (a
  // per-subcommand --faults= flag replaces it). A malformed spec is a
  // usage error, reported before any work runs.
  try {
    const std::string armed = robust::arm_faults_from_env();
    if (!armed.empty()) {
      std::cerr << "cachesched_cli: fault injection armed: " << armed << "\n";
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "cachesched_cli: $CACHESCHED_FAULTS: " << e.what() << "\n";
    return kExitUsage;
  }
  try {
    // `sweep merge` is the one two-word subcommand; its flags start
    // after the word "merge".
    const bool merge =
        cmd == "sweep" && argc > 2 && std::string(argv[2]) == "merge";
    CliArgs args(merge ? argc - 2 : argc - 1, merge ? argv + 2 : argv + 1);
    int rc;
    if (merge) rc = cmd_sweep_merge(args);
    else if (cmd == "run") rc = cmd_run(args);
    else if (cmd == "trace") rc = cmd_trace(args);
    else if (cmd == "replay") rc = cmd_replay(args);
    else if (cmd == "replay-crash") rc = cmd_replay_crash(args);
    else if (cmd == "configs") rc = cmd_configs(args);
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
