#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "exp/sweep.h"
#include "harness/apps.h"
#include "harness/workload_registry.h"

namespace cachesched {
namespace {

// Small enough to keep the test fast, large enough that scheduling
// differences show up in the results.
constexpr double kScale = 0.0078125;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.apps = {"mergesort", "matmul"};
  spec.scheds = {"pdf", "ws", "fifo"};
  spec.core_counts = {2, 4};
  spec.scales = {kScale};
  return spec;
}

TEST(SweepExpand, CrossProductCountAndOrder) {
  SweepSpec spec = small_spec();
  const auto jobs = expand(spec);
  // 1 scale x 2 apps x 2 configs x 3 scheds.
  ASSERT_EQ(jobs.size(), 12u);
  // Order: app-major, then configuration, then scheduler.
  EXPECT_EQ(jobs[0].app, "mergesort");
  EXPECT_EQ(jobs[0].config.cores, 2);
  EXPECT_EQ(jobs[0].sched, "pdf");
  EXPECT_EQ(jobs[2].sched, "fifo");
  EXPECT_EQ(jobs[3].config.cores, 4);
  EXPECT_EQ(jobs[6].app, "matmul");
}

TEST(SweepExpand, SequentialBaselinePrecedesSchedulerJobs) {
  SweepSpec spec = small_spec();
  spec.sequential_baseline = true;
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 16u);  // (1 seq + 3 scheds) per (app, config)
  EXPECT_EQ(jobs[0].sched, kSequentialSched);
  EXPECT_EQ(jobs[1].sched, "pdf");
}

TEST(SweepExpand, SkipPredicateDropsCombinations) {
  SweepSpec spec = small_spec();
  spec.skip = [](const std::string& app, const CmpConfig& cfg) {
    return app == "matmul" && cfg.cores > 2;
  };
  const auto jobs = expand(spec);
  EXPECT_EQ(jobs.size(), 9u);
  for (const auto& j : jobs) {
    EXPECT_FALSE(j.app == "matmul" && j.config.cores > 2);
  }
}

TEST(SweepExpand, EmptyCoreCountsMeansWholeTechTable) {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul"};
  spec.scheds = {"pdf"};
  spec.tech = "45nm";
  spec.core_counts.clear();
  EXPECT_EQ(expand(spec).size(), single_tech_45nm_configs().size());
}

TEST(SweepExpand, UnknownTechThrows) {
  SweepSpec spec = small_spec();
  spec.tech = "7nm";
  EXPECT_THROW(expand(spec), std::invalid_argument);
}

// The acceptance property of the engine: a multi-worker sweep produces
// byte-identical output to the same sweep with one worker.
TEST(SweepRun, MultiThreadedMatchesSingleThreadedByteForByte) {
  SweepSpec spec = small_spec();
  spec.sequential_baseline = true;
  const SweepResults serial = run_sweep(spec, {.workers = 1});
  const SweepResults parallel = run_sweep(spec, {.workers = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.to_table().to_csv(), parallel.to_table().to_csv());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(SweepRun, RecordsKeepJobOrder) {
  SweepSpec spec = small_spec();
  const auto jobs = expand(spec);
  const SweepResults res = run_sweep(jobs, {.workers = 4});
  ASSERT_EQ(res.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(res[i].job.app, jobs[i].app);
    EXPECT_EQ(res[i].job.sched, jobs[i].sched);
    EXPECT_EQ(res[i].job.config.cores, jobs[i].config.cores);
    EXPECT_GT(res[i].result.cycles, 0u);
    EXPECT_EQ(res[i].result.scheduler, jobs[i].sched);
  }
}

TEST(SweepRun, SequentialBaselineMatchesHarnessHelper) {
  const CmpConfig cfg = default_config(4).scaled(kScale);
  AppOptions opt;
  opt.scale = kScale;
  const Workload w = make_app("mergesort", cfg, opt);
  const SimResult direct = simulate_sequential(w, cfg);

  SweepJob job;
  job.app = "mergesort";
  job.sched = kSequentialSched;
  job.config = cfg;
  job.opt = opt;
  const SweepResults res = run_sweep(std::vector<SweepJob>{job});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].result.cycles, direct.cycles);
  EXPECT_EQ(res[0].result.l2_misses, direct.l2_misses);
}

TEST(SweepRun, FindMatchesAppSchedCoresAndTag) {
  SweepSpec spec = small_spec();
  const SweepResults res = run_sweep(spec, {.workers = 2});
  const SweepRecord* r = res.find("matmul", "ws", 4);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->job.app, "matmul");
  EXPECT_EQ(r->job.sched, "ws");
  EXPECT_EQ(r->job.config.cores, 4);
  EXPECT_EQ(res.find("matmul", "ws", 16), nullptr);
  EXPECT_EQ(res.find("matmul", "ws", 4, "no-such-tag"), nullptr);

  // Typed overload: the string form is a thin serialization of JobKey,
  // so looking up a record's own key() finds that record.
  const SweepRecord* typed = res.find(JobKey{"matmul", "ws", 4, ""});
  EXPECT_EQ(typed, r);
  EXPECT_EQ(res.find(r->job.key()), r);
  EXPECT_EQ(res.find(JobKey{"matmul", "ws", 16, ""}), nullptr);
}

TEST(SweepRun, JobKeyEqualityHashAndSerialization) {
  const JobKey a{"lu", "pdf", 8, ""};
  const JobKey b{"lu", "pdf", 8, ""};
  EXPECT_EQ(a, b);
  EXPECT_EQ(JobKeyHash{}(a), JobKeyHash{}(b));
  EXPECT_EQ(a.str(), b.str());
  // Fields can't bleed into each other through the serialization.
  const JobKey c{"lu", "pdf", 8, "x"};
  const JobKey d{"lu", "pdfx", 8, ""};
  EXPECT_NE(c, d);
  EXPECT_NE(c.str(), d.str());
}

TEST(SweepRun, CustomFactory) {
  const CmpConfig cfg = default_config(2).scaled(kScale);
  AppOptions opt;
  opt.scale = kScale;
  std::atomic<int> factory_calls{0};
  SweepJob job;
  job.app = "custom";
  job.sched = "pdf";
  job.config = cfg;
  job.opt = opt;
  job.factory = [&factory_calls, &cfg](const CmpConfig&, const AppOptions& o) {
    ++factory_calls;
    return make_app("matmul", cfg, o);
  };
  const SweepResults res = run_sweep(std::vector<SweepJob>{job});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(factory_calls.load(), 1);
  EXPECT_EQ(res[0].job.app, "custom");
  EXPECT_GT(res[0].result.cycles, 0u);
}

TEST(SweepRun, GeneratedSpecsMixWithSeedApps) {
  // Seed apps and src/gen spec strings share one job matrix, and the
  // byte-identical guarantee holds across worker counts for both.
  const std::string gen_spec = "dnc:depth=3,fanout=2,ws=4K,share=0.2,seed=7";
  SweepSpec spec;
  spec.apps = {"matmul", gen_spec};
  spec.scheds = {"pdf", "ws"};
  spec.core_counts = {2};
  spec.scales = {kScale};
  const SweepResults serial = run_sweep(spec, {.workers = 1});
  const SweepResults parallel = run_sweep(spec, {.workers = 4});
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial.to_table().to_csv(), parallel.to_table().to_csv());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  const SweepRecord* r = serial.find(gen_spec, "pdf", 2);
  ASSERT_NE(r, nullptr);
  EXPECT_GT(r->result.cycles, 0u);
  EXPECT_GT(r->num_tasks, 0u);
}

// The workload cache must be invisible in the results: a sweep that
// builds each unique workload once and shares it across jobs emits
// byte-identical CSV/JSON to running each job in its own sweep (its own
// build), at any worker count.
TEST(SweepCache, SharedMatchesFreshBuildByteForByte) {
  SweepSpec spec = small_spec();
  spec.sequential_baseline = true;
  std::vector<SweepRecord> fresh;
  for (const SweepJob& job : expand(spec)) {
    fresh.push_back(run_sweep({job}, {.workers = 1})[0]);
  }
  const SweepResults baseline(std::move(fresh), {}, 0);
  for (int workers : {1, 4}) {
    SweepOptions opt;
    opt.workers = workers;
    const SweepResults res = run_sweep(spec, opt);
    ASSERT_EQ(res.size(), baseline.size());
    EXPECT_EQ(res.to_table().to_csv(), baseline.to_table().to_csv())
        << "workers=" << workers;
    EXPECT_EQ(res.to_json(), baseline.to_json()) << "workers=" << workers;
  }
}

TEST(SweepCache, BuildsEachUniqueWorkloadOnce) {
  // 2 apps x 2 configs with (seq + 3 scheds) jobs each: 16 jobs but only
  // 4 distinct workloads; the cache must build exactly those 4.
  SweepSpec spec = small_spec();
  spec.sequential_baseline = true;
  std::atomic<int> builds{0};
  SweepOptions opt;
  opt.workers = 4;
  opt.on_workload_built = [&](const std::string&) { ++builds; };
  const SweepResults res = run_sweep(spec, opt);
  ASSERT_EQ(res.size(), 16u);
  EXPECT_EQ(builds.load(), 4);
}

TEST(SweepCache, FactoryJobsAreNeverShared) {
  const CmpConfig cfg = default_config(2).scaled(kScale);
  AppOptions opt;
  opt.scale = kScale;
  std::atomic<int> factory_calls{0};
  SweepJob job;
  job.app = "custom";
  job.sched = "pdf";
  job.config = cfg;
  job.opt = opt;
  job.factory = [&factory_calls, &cfg](const CmpConfig&, const AppOptions& o) {
    ++factory_calls;
    return make_app("matmul", cfg, o);
  };
  // Two identical factory jobs: a std::function has no identity to key
  // on, so each must get its own build.
  const SweepResults res = run_sweep(std::vector<SweepJob>{job, job});
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(factory_calls.load(), 2);
  EXPECT_EQ(res[0].result.cycles, res[1].result.cycles);
}

TEST(SweepRun, WorkerErrorsPropagate) {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul", "no-such-app"};
  EXPECT_THROW(run_sweep(spec, {.workers = 4}), std::invalid_argument);
}

TEST(SweepRun, OnResultSeesEveryJobExactlyOnce) {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul"};
  std::atomic<size_t> calls{0};
  size_t last_total = 0;
  SweepOptions opt;
  opt.workers = 3;
  opt.on_result = [&](const SweepRecord&, size_t completed, size_t total) {
    ++calls;
    EXPECT_LE(completed, total);
    last_total = total;
  };
  const SweepResults res = run_sweep(spec, opt);
  EXPECT_EQ(calls.load(), res.size());
  EXPECT_EQ(last_total, res.size());
}

// ------------------------------------------------------------ retries

SweepSpec retry_spec() {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul", "mergesort"};
  spec.scheds = {"pdf"};
  return spec;
}

/// `jobs` with a factory that throws TransientError on its job's first
/// `failures` builds and then builds the job's own workload, so a sweep
/// that retries past the failures emits exactly the plain sweep's records.
std::vector<SweepJob> flaky(std::vector<SweepJob> jobs, int failures) {
  for (SweepJob& job : jobs) {
    auto left = std::make_shared<std::atomic<int>>(failures);
    job.factory = [app = job.app, left](const CmpConfig& cfg,
                                        const AppOptions& o) {
      if (left->fetch_sub(1) > 0) {
        throw TransientError("flaky build of " + app);
      }
      return make_workload(app, cfg, o);
    };
  }
  return jobs;
}

TEST(SweepRetry, RetriesMaskTransientErrorsByteIdentically) {
  const auto jobs = expand(retry_spec());
  const SweepResults plain = run_sweep(jobs, {.workers = 1});
  SweepOptions opt;
  opt.workers = 2;
  opt.job_retries = 2;
  opt.retry_backoff_ms = 1;
  opt.quarantine = true;
  const SweepResults res = run_sweep(flaky(jobs, 2), opt);
  EXPECT_TRUE(res.quarantined().empty());
  EXPECT_EQ(res.retries(), 2 * jobs.size());
  EXPECT_EQ(res.to_table().to_csv(), plain.to_table().to_csv());
  EXPECT_EQ(res.to_json(), plain.to_json());
}

TEST(SweepRetry, ExhaustedRetriesQuarantineTheJob) {
  auto jobs = expand(retry_spec());
  const size_t bad = 1;
  jobs[bad] = flaky({jobs[bad]}, 1000)[0];
  SweepOptions opt;
  opt.workers = 2;
  opt.job_retries = 2;
  opt.retry_backoff_ms = 1;
  opt.quarantine = true;
  const SweepResults res = run_sweep(jobs, opt);
  ASSERT_EQ(res.quarantined().size(), 1u);
  const QuarantinedJob& q = res.quarantined()[0];
  EXPECT_EQ(q.index, bad);
  EXPECT_EQ(q.key, jobs[bad].key());
  EXPECT_EQ(q.error, "flaky build of " + jobs[bad].app);
  EXPECT_EQ(res.retries(), 2u);
  ASSERT_EQ(res.size(), jobs.size() - 1);
  EXPECT_EQ(res.find(jobs[bad].key()), nullptr);
}

TEST(SweepRetry, ExhaustedRetriesFailFastWithoutQuarantine) {
  SweepOptions opt;
  opt.workers = 1;
  opt.job_retries = 1;
  opt.retry_backoff_ms = 1;
  opt.quarantine = false;  // the library default: the first failure aborts
  EXPECT_THROW(run_sweep(flaky(expand(retry_spec()), 1000), opt),
               TransientError);
}

TEST(SweepResultsOutput, TableAndJsonContainEveryRecord) {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul"};
  spec.scheds = {"pdf"};
  const SweepResults res = run_sweep(spec);
  const std::string csv = res.to_table().to_csv();
  const std::string json = res.to_json();
  // Header + one line per record.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<long>(res.size()) + 1);
  EXPECT_NE(csv.find("matmul,pdf"), std::string::npos);
  EXPECT_NE(json.find("\"app\": \"matmul\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles\": "), std::string::npos);
}

}  // namespace
}  // namespace cachesched
