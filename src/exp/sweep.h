// Parallel experiment-sweep engine.
//
// Every figure/table in the paper is a cross product (apps x schedulers x
// configurations x scales) of independent, deterministic simulations.
// Instead of each experiment hand-rolling the same serial nested loop, an
// experiment (a `cachesched_cli paper` artifact, a `sweep` run) declares
// a SweepSpec (or builds an explicit job list), run_sweep expands it into
// a job matrix and executes the jobs on a worker thread pool —
// every CmpSimulator::run is self-contained, so the sweep saturates the
// host while each simulation stays exactly deterministic.
//
// Determinism guarantee: results are stored by job index, so a sweep's
// records — and therefore its table/CSV/JSON output — are byte-identical
// for any worker count (tests/sweep_test.cc enforces this).
//
// Workload sharing: a sweep's jobs are a cross product, so many jobs
// simulate the same workload (every scheduler at one (app, config), plus
// the sequential baseline). run_sweep hash-conses workloads by (spec,
// workload-relevant config signature, AppOptions): each unique workload is
// built exactly once per sweep — in parallel on the worker pool, before
// any simulation starts — and shared read-only across its jobs. Builders
// are deterministic (see WorkloadBuilder) and simulation never mutates the
// DAG, so shared and per-job-built workloads give byte-identical results
// (tests/sweep_test.cc proves it). Jobs with a custom `factory` are never
// shared (a std::function has no identity to key on).
//
// Two consequences of the build-ahead phase worth knowing: (1) every
// unique workload of the sweep is resident at once at the end of the
// build phase (slots free as their last job completes); (2) a workload
// build error fails the sweep before any simulation starts (fail-fast),
// so on_result does not fire for the jobs of other workloads.
//
// Typical use:
//
//   SweepSpec spec;
//   spec.apps = {"mergesort", "hashjoin"};
//   spec.scheds = {"pdf", "ws"};
//   spec.core_counts = {8, 16, 32};
//   spec.sequential_baseline = true;     // adds a "seq" job per config
//   SweepResults res = run_sweep(spec, {.workers = 8});
//   res.to_table().emit("out.csv");
//
// Jobs may also be built directly (custom workloads, per-job overrides):
// records() keeps job order, so callers can pair results positionally or
// via SweepResults::find.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/apps.h"
#include "simarch/config.h"
#include "simarch/engine.h"
#include "util/table.h"
#include "workloads/common.h"

namespace cachesched {

class ResultStore;  // exp/store.h

/// Pseudo-scheduler name for the sequential baseline: the workload on one
/// core of the same configuration under PDF (= 1DF order), the
/// denominator of the paper's speedup plots. A seq job runs
/// simulate_sequential (harness/apps.h).
inline constexpr const char* kSequentialSched = "seq";

/// Builds the workload a job simulates; defaults to make_workload(app, ...).
using WorkloadFactory =
    std::function<Workload(const CmpConfig&, const AppOptions&)>;

/// First-class identity of a sweep point: the (app, sched, cores, tag)
/// tuple that distinguishes records of one sweep. This is the typed form
/// of what used to be ad-hoc string concatenation — SweepResults::find
/// indexes by it, and the result store embeds it in its job key. The
/// string form (str()) is a thin serialization of the struct, not the
/// other way around.
struct JobKey {
  std::string app;
  std::string sched;
  int cores = 0;
  std::string tag;

  bool operator==(const JobKey&) const = default;

  /// Canonical serialization: fields joined with '\x1f' (unit
  /// separator), stable across processes.
  std::string str() const;
};

struct JobKeyHash {
  size_t operator()(const JobKey& k) const;
};

/// One simulation: a workload on a configuration under a scheduler.
struct SweepJob {
  std::string app;    // workload spec for make_workload (a seed app name
                      // or a src/gen spec string), or a label when
                      // `factory` is set
  std::string sched;  // scheduler spec, or kSequentialSched
  std::string tag;    // free-form label distinguishing variants of the
                      // same (app, sched, config), e.g. an ablation axis
  CmpConfig config;   // final configuration (already scaled/overridden)
  AppOptions opt;
  WorkloadFactory factory;  // empty = make_app(app, config, opt)

  /// The job's sweep-point identity (app, sched, cores, tag).
  JobKey key() const { return {app, sched, config.cores, tag}; }
};

/// Declarative cross-product sweep.
struct SweepSpec {
  /// Workload specs: seed app names and/or src/gen generator spec strings
  /// (anything make_workload resolves).
  std::vector<std::string> apps;
  std::vector<std::string> scheds = {"pdf", "ws"};
  /// Core counts selecting configurations from `tech`'s table; empty =
  /// every configuration of the table.
  std::vector<int> core_counts = {1, 2, 4, 8, 16, 32};
  std::vector<double> scales = {0.125};
  std::string tech = "default";  // "default" (Table 2) | "45nm" (Table 3)
  bool sequential_baseline = false;

  // Workload options applied to every job.
  bool fine_grained = true;
  uint64_t mergesort_task_ws = 0;
  uint64_t seed = 42;

  /// Timing overrides applied after scaling; see simarch/config.h.
  ConfigOverrides overrides;

  /// Optional per-(app, config) exclusion, e.g. the paper's "LU only up
  /// to 16 cores" rule. Return true to drop the combination.
  std::function<bool(const std::string& app, const CmpConfig&)> skip;
};

/// Expands the cross product in deterministic order: scale-major, then
/// app, then configuration, with the sequential baseline (if requested)
/// before the scheduler jobs of each (app, configuration).
std::vector<SweepJob> expand(const SweepSpec& spec);

/// The workload-identity key run_sweep hash-conses builds by: the spec
/// string, every AppOptions field, and the capacity/geometry
/// configuration fields of the WorkloadBuilder contract. Two jobs with
/// equal keys simulate the same workload. Exposed so tooling (e.g. the
/// result store, perfbench) groups jobs exactly as the cache does;
/// `factory` jobs are not covered (they are never shared). The wrapped
/// string (str()) is the key's canonical serialization — hash/compare
/// the typed form, persist the string.
struct WorkloadKey {
  std::string repr;

  bool operator==(const WorkloadKey&) const = default;
  const std::string& str() const { return repr; }
};

struct WorkloadKeyHash {
  size_t operator()(const WorkloadKey& k) const {
    return std::hash<std::string>{}(k.repr);
  }
};

WorkloadKey workload_key(const SweepJob& job);

/// A finished job. `result.scheduler` is the engine's name for the run
/// ("pdf" for seq jobs); `job.sched` is the sweep identity.
struct SweepRecord {
  SweepJob job;
  std::string params;       // workload parameter description
  uint64_t num_tasks = 0;
  uint64_t total_refs = 0;
  SimResult result;
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline.
  int workers = 0;
  /// Content-addressed result store (exp/store.h); non-null makes the
  /// sweep incremental: jobs whose full identity has a stored record
  /// load it instead of simulating, and every simulated record is
  /// persisted on completion. Results are byte-identical with or without
  /// a store; the store's stats() report the hit/miss split. Jobs with a
  /// `factory` have no serializable identity and always simulate.
  ResultStore* store = nullptr;
  /// Called after each job finishes (serialized; `completed` counts
  /// finished jobs, not the record's index). Store hits are reported
  /// first, in job order, before any simulation starts.
  std::function<void(const SweepRecord&, size_t completed, size_t total)>
      on_result;
  /// Test/diagnostics hook: called once per unique workload actually
  /// built (serialized), with the spec/label of the job that built it.
  std::function<void(const std::string& app)> on_workload_built;

  /// Bounded retry for TransientError (a store write or rename that
  /// failed): a job's store put, or a workload build, may be retried this
  /// many times, sleeping retry_backoff_ms << attempt between tries; a
  /// retried put reuses the record simulated once. Other exception types
  /// are never retried.
  int job_retries = 0;
  uint64_t retry_backoff_ms = 10;
  /// Record jobs that exhaust their retries in SweepResults::quarantined()
  /// and keep sweeping, instead of failing the whole matrix on the first
  /// bad job. The default, false, is fail-fast.
  bool quarantine = false;
};

/// An operation that may succeed if repeated: ResultStore::put throws it
/// on a real I/O failure (the entry is then simply absent). The sweep
/// retries it per SweepOptions::job_retries and quarantines the job once
/// the retries are spent.
class TransientError : public std::runtime_error {
 public:
  explicit TransientError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A job the sweep gave up on: it exhausted its transient-error retries.
/// Recorded instead of aborting the matrix when SweepOptions::quarantine
/// is set; its record is absent from records().
struct QuarantinedJob {
  size_t index = 0;  // position in the submitted job list
  JobKey key;
  std::string error;
};

class SweepResults {
 public:
  SweepResults() = default;
  SweepResults(std::vector<SweepRecord> records,
               std::vector<QuarantinedJob> quarantined, size_t retries);

  const std::vector<SweepRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }
  const SweepRecord& operator[](size_t i) const { return records_[i]; }

  /// First record whose job matches `key`; nullptr if none. O(1): looks
  /// up a hash index built at construction, so concurrent find() calls
  /// on a const SweepResults are safe.
  const SweepRecord* find(const JobKey& key) const;

  /// Convenience overload building the JobKey from its fields.
  const SweepRecord* find(const std::string& app, const std::string& sched,
                          int cores, const std::string& tag = "") const;

  /// Full result table: one row per record, every metric column. The
  /// table renders both human-readable (emit) and CSV; cells are
  /// deterministic functions of the simulation results.
  Table to_table() const;

  /// JSON array of records (stable field order, no timing fields).
  std::string to_json() const;

  void write_json(const std::string& path) const;

  /// Jobs dropped under SweepOptions::quarantine, in job order. Empty
  /// unless quarantine was enabled and jobs actually failed.
  const std::vector<QuarantinedJob>& quarantined() const {
    return quarantined_;
  }

  /// Transient-error retries performed across the sweep (diagnostic; a
  /// retried job that eventually succeeded is NOT quarantined).
  size_t retries() const { return retries_; }

 private:
  std::vector<SweepRecord> records_;
  std::vector<QuarantinedJob> quarantined_;
  size_t retries_ = 0;
  /// JobKey -> index of the first matching record; built at construction
  /// (the paper artifacts look up every sweep point, which was quadratic
  /// with a linear scan per lookup).
  std::unordered_map<JobKey, size_t, JobKeyHash> find_index_;
};

/// Runs `jobs` on a worker pool; records are in job order regardless of
/// worker count. The first exception thrown by a job (unknown app or
/// scheduler, bad scale, ...) is rethrown after the pool drains — except
/// TransientError, which is retried per job_retries and then quarantined
/// when enabled. A process killed mid-sweep loses only its in-flight
/// jobs: every record already put is durable, and a rerun against the
/// same store simulates only what is missing.
SweepResults run_sweep(std::vector<SweepJob> jobs,
                       const SweepOptions& options = {});

/// expand + run.
SweepResults run_sweep(const SweepSpec& spec, const SweepOptions& options = {});

}  // namespace cachesched
