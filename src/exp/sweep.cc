#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "exp/store.h"
#include "harness/workload_registry.h"
#include "util/json.h"

namespace cachesched {
namespace {

std::vector<CmpConfig> configs_for(const SweepSpec& spec, double scale) {
  std::vector<CmpConfig> bases;
  if (spec.core_counts.empty()) {
    bases = tech_configs(spec.tech);
  } else {
    for (int c : spec.core_counts) bases.push_back(tech_config(spec.tech, c));
  }
  for (CmpConfig& cfg : bases) {
    cfg = cfg.scaled(scale);
    spec.overrides.apply(cfg);
  }
  return bases;
}

Workload build_one(const SweepJob& job) {
  return job.factory ? job.factory(job.config, job.opt)
                     : make_workload(job.app, job.config, job.opt);
}

}  // namespace

std::string JobKey::str() const {
  std::string out;
  out.reserve(app.size() + sched.size() + tag.size() + 16);
  out += app;
  out += '\x1f';
  out += sched;
  out += '\x1f';
  out += std::to_string(cores);
  out += '\x1f';
  out += tag;
  return out;
}

size_t JobKeyHash::operator()(const JobKey& k) const {
  const std::hash<std::string> h;
  size_t seed = h(k.app);
  auto mix = [&seed](size_t v) {
    seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  };
  mix(h(k.sched));
  mix(static_cast<size_t>(k.cores));
  mix(h(k.tag));
  return seed;
}

// The workload-relevant configuration signature is the capacity/geometry
// fields a WorkloadBuilder may shape the workload from (see the contract
// in harness/workload_registry.h). Timing-only fields (hit/latency
// cycles, banking, dispatch cost) are excluded, so e.g. an L2-hit-time
// ablation shares one workload across its points.
WorkloadKey workload_key(const SweepJob& job) {
  std::ostringstream os;
  const AppOptions& o = job.opt;
  const CmpConfig& c = job.config;
  os << job.app << '\x1f' << std::bit_cast<uint64_t>(o.scale) << '\x1f'
     << o.mergesort_task_ws << '\x1f' << o.fine_grained << '\x1f' << o.seed
     << '\x1f' << c.cores << '\x1f' << c.l1_bytes << '\x1f' << c.l1_ways
     << '\x1f' << c.l2_bytes << '\x1f' << c.l2_ways << '\x1f' << c.line_bytes;
  return WorkloadKey{os.str()};
}

namespace {

SweepRecord run_one(const SweepJob& job, const Workload& w) {
  SweepRecord rec;
  rec.job = job;
  rec.job.factory = nullptr;  // don't retain captured workloads in results
  rec.params = w.params;
  rec.num_tasks = w.dag.num_tasks();
  rec.total_refs = w.dag.total_refs();
  rec.result = job.sched == kSequentialSched
                   ? simulate_sequential(w, job.config)
                   : simulate_app(w, job.config, job.sched);
  return rec;
}

/// Shortest decimal that round-trips typical scale factors (0.125 ->
/// "0.125", not "0.125000"); keeps CSV/JSON output stable and readable.
std::string format_scale(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::stod(probe) == v) return probe;
  }
  return buf;
}

}  // namespace

std::vector<SweepJob> expand(const SweepSpec& spec) {
  std::vector<SweepJob> jobs;
  for (double scale : spec.scales) {
    const std::vector<CmpConfig> configs = configs_for(spec, scale);
    for (const std::string& app : spec.apps) {
      for (const CmpConfig& cfg : configs) {
        if (spec.skip && spec.skip(app, cfg)) continue;
        SweepJob job;
        job.app = app;
        job.config = cfg;
        job.opt.scale = scale;
        job.opt.fine_grained = spec.fine_grained;
        job.opt.mergesort_task_ws = spec.mergesort_task_ws;
        job.opt.seed = spec.seed;
        if (spec.sequential_baseline) {
          job.sched = kSequentialSched;
          jobs.push_back(job);
        }
        for (const std::string& sched : spec.scheds) {
          job.sched = sched;
          jobs.push_back(job);
        }
      }
    }
  }
  return jobs;
}

SweepResults run_sweep(std::vector<SweepJob> jobs,
                       const SweepOptions& options) {
  std::vector<SweepRecord> records(jobs.size());
  const size_t total = jobs.size();

  int workers = options.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }

  size_t completed = 0;  // guarded by mu, so callbacks see monotonic counts
  std::mutex mu;         // guards completed, callbacks and first_error
  std::exception_ptr first_error;

  // Store lookup: jobs whose full identity already has a persisted
  // record load it and skip the build/simulate phases entirely. Hits are
  // resolved serially up front (cheap file reads) so the later phases
  // see a fixed pending set; their on_result callbacks fire first, in
  // job order.
  std::vector<std::optional<StoreKey>> keys;
  std::vector<size_t> pending;  // indices of jobs still to simulate
  pending.reserve(total);
  if (options.store) {
    keys.resize(total);
    for (size_t i = 0; i < total; ++i) {
      keys[i] = store_key(jobs[i]);
      SweepRecord rec;
      if (keys[i] && options.store->load(*keys[i], &rec)) {
        rec.job = jobs[i];
        rec.job.factory = nullptr;
        records[i] = std::move(rec);
        ++completed;
        if (options.on_result) options.on_result(records[i], completed, total);
      } else {
        pending.push_back(i);
      }
    }
  } else {
    for (size_t i = 0; i < total; ++i) pending.push_back(i);
  }
  const size_t num_pending = pending.size();

  // Runs body(0..n) on the worker pool; once the pool drains, the first
  // exception a body threw fails the sweep.
  auto parallel_for = [&](size_t n, auto&& body) {
    std::atomic<size_t> next{0};
    auto drain = [&] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    const int w = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(workers), std::max<size_t>(n, 1)));
    if (w <= 1) {
      drain();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(w);
      for (int t = 0; t < w; ++t) pool.emplace_back(drain);
      for (std::thread& t : pool) t.join();
    }
    if (first_error) std::rethrow_exception(first_error);
  };

  // Puts a freshly simulated record (when a store is attached), then
  // reports it. A failed put is counted by the store; the record stays.
  // Factory jobs have no store key and are never put.
  auto finish = [&](size_t i) {
    if (options.store && keys[i]) options.store->put(*keys[i], records[i]);
    std::lock_guard<std::mutex> lock(mu);
    ++completed;
    if (options.on_result) options.on_result(records[i], completed, total);
  };

  // Phase 1 — hash-cons workloads: one build slot per unique workload key
  // (jobs with a factory get private slots), built in parallel before any
  // simulation so every job starts from a finished, immutable workload.
  // Only pending jobs participate — store hits need no workload at all.
  // slot_job points at the first job of each slot.
  std::vector<size_t> slot_of(num_pending);
  std::vector<const SweepJob*> slot_job;
  {
    std::unordered_map<WorkloadKey, size_t, WorkloadKeyHash> by_key;
    by_key.reserve(num_pending);
    for (size_t k = 0; k < num_pending; ++k) {
      const SweepJob& job = jobs[pending[k]];
      if (job.factory) {
        slot_of[k] = slot_job.size();
        slot_job.push_back(&job);
        continue;
      }
      const auto [it, inserted] =
          by_key.emplace(workload_key(job), slot_job.size());
      if (inserted) slot_job.push_back(&job);
      slot_of[k] = it->second;
    }
  }
  const size_t num_slots = slot_job.size();
  std::vector<std::shared_ptr<const Workload>> built(num_slots);
  // Jobs left per slot; the job that takes a slot's count to zero drops
  // the slot's reference so big workloads free as the sweep drains
  // instead of all living until the last job finishes.
  std::unique_ptr<std::atomic<size_t>[]> slot_jobs_left(
      new std::atomic<size_t>[num_slots]);
  for (size_t s = 0; s < num_slots; ++s) slot_jobs_left[s] = 0;
  for (size_t k = 0; k < num_pending; ++k) ++slot_jobs_left[slot_of[k]];

  parallel_for(num_slots, [&](size_t i) {
    built[i] = std::make_shared<const Workload>(build_one(*slot_job[i]));
    if (options.on_workload_built) {
      std::lock_guard<std::mutex> lock(mu);
      options.on_workload_built(slot_job[i]->app);
    }
  });

  // Phase 2 — simulate. run_one never mutates the shared workload (the
  // engine takes const TaskDag&), so jobs of one slot are independent.
  parallel_for(num_pending, [&](size_t k) {
    const size_t i = pending[k];
    const size_t slot = slot_of[k];
    records[i] = run_one(jobs[i], *built[slot]);
    finish(i);
    if (slot_jobs_left[slot].fetch_sub(1) == 1) built[slot].reset();
  });
  return SweepResults(std::move(records));
}

SweepResults run_sweep(const SweepSpec& spec, const SweepOptions& options) {
  return run_sweep(expand(spec), options);
}

SweepResults::SweepResults(std::vector<SweepRecord> records)
    : records_(std::move(records)) {
  find_index_.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    // emplace keeps the first occurrence, matching the original
    // first-match linear-scan semantics.
    find_index_.emplace(records_[i].job.key(), i);
  }
}

const SweepRecord* SweepResults::find(const JobKey& key) const {
  const auto it = find_index_.find(key);
  return it == find_index_.end() ? nullptr : &records_[it->second];
}

const SweepRecord* SweepResults::find(const std::string& app,
                                      const std::string& sched, int cores,
                                      const std::string& tag) const {
  return find(JobKey{app, sched, cores, tag});
}

Table SweepResults::to_table() const {
  Table t({"app", "sched", "tag", "cores", "scale", "tasks", "refs", "cycles",
           "instructions", "l1_hits", "l2_hits", "l2_misses",
           "L2miss/1Kinstr", "bw_util%", "core_util%", "steals"});
  for (const SweepRecord& r : records_) {
    t.add_row({r.job.app, r.job.sched, r.job.tag.empty() ? "-" : r.job.tag,
               Table::num(static_cast<int64_t>(r.job.config.cores)),
               format_scale(r.job.opt.scale), Table::num(r.num_tasks),
               Table::num(r.total_refs), Table::num(r.result.cycles),
               Table::num(r.result.instructions), Table::num(r.result.l1_hits),
               Table::num(r.result.l2_hits), Table::num(r.result.l2_misses),
               Table::num(r.result.l2_misses_per_kilo_instr(), 3),
               Table::num(100.0 * r.result.mem_bandwidth_utilization(), 1),
               Table::num(100.0 * r.result.core_utilization(), 1),
               Table::num(r.result.steals)});
  }
  return t;
}

std::string SweepResults::to_json() const {
  std::ostringstream os;
  os << "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const SweepRecord& r = records_[i];
    os << "  {\"app\": \"" << json_escape(r.job.app) << "\""
       << ", \"sched\": \"" << json_escape(r.job.sched) << "\""
       << ", \"tag\": \"" << json_escape(r.job.tag) << "\""
       << ", \"config\": \"" << json_escape(r.job.config.name) << "\""
       << ", \"cores\": " << r.job.config.cores
       << ", \"scale\": " << format_scale(r.job.opt.scale)
       << ", \"params\": \"" << json_escape(r.params) << "\""
       << ", \"tasks\": " << r.num_tasks
       << ", \"refs\": " << r.total_refs
       << ", \"cycles\": " << r.result.cycles
       << ", \"instructions\": " << r.result.instructions
       << ", \"l1_hits\": " << r.result.l1_hits
       << ", \"l2_hits\": " << r.result.l2_hits
       << ", \"l2_misses\": " << r.result.l2_misses
       << ", \"writebacks\": " << r.result.writebacks
       << ", \"mem_stall_cycles\": " << r.result.mem_stall_cycles
       << ", \"steals\": " << r.result.steals << "}"
       << (i + 1 < records_.size() ? "," : "") << "\n";
  }
  os << "]\n";
  return os.str();
}

void SweepResults::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << to_json();
}

}  // namespace cachesched
