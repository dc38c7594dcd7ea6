// Fault injection and fault tolerance (src/robust/), end to end:
// spec-grammar strictness, deterministic fire schedules, the sweep
// engine's retry/quarantine/watchdog/cancel policies, merge-with-holes,
// and, for every fault site, that a faulted sweep never leaks an altered
// result into the store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/store.h"
#include "exp/sweep.h"
#include "robust/errors.h"
#include "robust/faultinject.h"
#include "robust/guard.h"
#include "simarch/engine.h"

namespace cachesched {
namespace {

namespace fs = std::filesystem;

/// Disarms fault injection on scope exit so one test's schedule can never
/// leak into the next.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) { robust::arm_faults(spec); }
  ~FaultGuard() { robust::disarm_faults(); }
};

// Whole-result equality, per-core and per-task vectors included.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_TRUE(a == b) << "cycles " << a.cycles << " vs " << b.cycles
                      << ", steals " << a.steals << " vs " << b.steals;
}

// ------------------------------------------------------------- grammar

TEST(FaultSpec, ParsesSitesAndParameters) {
  const auto bare = robust::parse_fault_spec("store.write.short");
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_EQ(bare[0].site, robust::FaultSite::kStoreWriteShort);
  EXPECT_EQ(bare[0].every, 1u);
  EXPECT_FALSE(bare[0].seeded);

  const auto multi = robust::parse_fault_spec(
      "store.rename.fail:every=5,seed=3,max=2;engine.stall:ms=10,every=4");
  ASSERT_EQ(multi.size(), 2u);
  EXPECT_EQ(multi[0].site, robust::FaultSite::kStoreRenameFail);
  EXPECT_EQ(multi[0].every, 5u);
  EXPECT_TRUE(multi[0].seeded);
  EXPECT_EQ(multi[0].seed, 3u);
  EXPECT_EQ(multi[0].max_fires, 2u);
  EXPECT_EQ(multi[1].site, robust::FaultSite::kEngineStall);
  EXPECT_EQ(multi[1].stall_ms, 10u);
  EXPECT_EQ(multi[1].every, 4u);
}

TEST(FaultSpec, RejectsEveryGrammarViolationLoudly) {
  const char* bad[] = {
      "",                                  // empty spec
      "store.write.shortt",                // unknown site
      "store.write.short:",                // ':' but no parameters
      "store.write.short:every",           // not key=value
      "store.write.short:every=",          // empty value
      "store.write.short:every=0",         // below range
      "store.write.short:every=x",         // not an integer
      "store.write.short:every=-3",        // signed
      "store.write.short:every=3,",        // stray comma
      "store.write.short:every=3,,max=1",  // empty parameter
      "store.write.short:every=3,every=4", // duplicate key
      "store.write.short:bogus=1",         // unknown key
      "store.write.short:ms=5",            // ms on a non-stall site
      "engine.stall:every=2",              // stall without ms
      "engine.stall:ms=0",                 // ms below range
      "engine.stall:ms=999999",            // ms above range
      ";store.write.short",                // stray semicolon
      "store.write.short;",                // trailing semicolon
      "store.write.short;store.write.short",  // duplicate site
  };
  for (const char* spec : bad) {
    try {
      robust::parse_fault_spec(spec);
      FAIL() << "accepted: " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("bad fault spec"),
                std::string::npos)
          << spec << " -> " << e.what();
    }
  }
  // An unknown site names the valid vocabulary.
  try {
    robust::parse_fault_spec("nope");
    FAIL();
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("store.write.short"),
              std::string::npos);
  }
}

TEST(FaultSpec, BadSpecArmsNothing) {
  robust::disarm_faults();
  EXPECT_THROW(robust::arm_faults("store.write.short:every=0"),
               std::invalid_argument);
  EXPECT_FALSE(robust::faults_armed());
  EXPECT_FALSE(robust::fault_point(robust::FaultSite::kStoreWriteShort));
}

// ----------------------------------------------------------- schedules

std::vector<bool> fire_pattern(robust::FaultSite site, int n) {
  std::vector<bool> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(robust::fault_point(site));
  return out;
}

TEST(FaultSchedule, PeriodicFiresEveryNthHit) {
  FaultGuard faults("store.write.short:every=3");
  const auto pat = fire_pattern(robust::FaultSite::kStoreWriteShort, 9);
  const std::vector<bool> want = {false, false, true, false, false,
                                  true,  false, false, true};
  EXPECT_EQ(pat, want);
  const auto st = robust::fault_stats();
  const int i = static_cast<int>(robust::FaultSite::kStoreWriteShort);
  EXPECT_EQ(st.hits[i], 9u);
  EXPECT_EQ(st.fires[i], 3u);
  EXPECT_EQ(robust::total_fault_fires(), 3u);
  // An unarmed site never fires even while others are armed.
  EXPECT_FALSE(robust::fault_point(robust::FaultSite::kStoreRenameFail));
}

TEST(FaultSchedule, SeededScheduleIsDeterministicAcrossArms) {
  std::vector<bool> first;
  {
    FaultGuard faults("store.rename.fail:every=4,seed=7");
    first = fire_pattern(robust::FaultSite::kStoreRenameFail, 400);
  }
  {
    FaultGuard faults("store.rename.fail:every=4,seed=7");
    EXPECT_EQ(fire_pattern(robust::FaultSite::kStoreRenameFail, 400), first);
  }
  // ~1/4 fire rate, and actually pseudo-random (not the periodic comb).
  const size_t fires = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fires, 50u);
  EXPECT_LT(fires, 150u);
  std::vector<bool> different;
  {
    FaultGuard faults("store.rename.fail:every=4,seed=8");
    different = fire_pattern(robust::FaultSite::kStoreRenameFail, 400);
  }
  EXPECT_NE(different, first);
}

TEST(FaultSchedule, MaxCapsTotalFires) {
  FaultGuard faults("store.write.short:every=2,max=3");
  int fires = 0;
  for (int i = 0; i < 100; ++i) {
    if (robust::fault_point(robust::FaultSite::kStoreWriteShort)) ++fires;
  }
  EXPECT_EQ(fires, 3);
}

TEST(FaultSchedule, EnvVarArmsAndReportsTheSpec) {
  ::setenv("CACHESCHED_FAULTS", "engine.stall:ms=5", 1);
  EXPECT_EQ(robust::arm_faults_from_env(), "engine.stall:ms=5");
  EXPECT_TRUE(robust::faults_armed());
  EXPECT_EQ(robust::fault_stall_ms(), 5u);
  ::unsetenv("CACHESCHED_FAULTS");
  robust::disarm_faults();
  EXPECT_EQ(robust::arm_faults_from_env(), "");
  EXPECT_FALSE(robust::faults_armed());
}

// ----------------------------------------------------------- run guard

TEST(RunGuard, PollRaisesTimeoutAndInterrupt) {
  robust::RunGuard ok(0, {});
  EXPECT_NO_THROW(ok.poll());

  robust::RunGuard deadline(1, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_THROW(deadline.poll(), robust::JobTimeoutError);
  deadline.start();  // restarting the budget clears the expiry
  EXPECT_NO_THROW(deadline.poll());

  bool stop = false;
  robust::RunGuard cancel(0, [&stop] { return stop; });
  EXPECT_NO_THROW(cancel.poll());
  stop = true;
  EXPECT_THROW(cancel.poll(), robust::InterruptedError);
}

// ----------------------------------------------- sweep fault tolerance

constexpr double kScale = 0.0078125;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.apps = {"matmul", "mergesort"};
  spec.scheds = {"pdf"};
  spec.core_counts = {2, 4};
  spec.scales = {kScale};
  return spec;
}

/// Fresh per-test store directory under the gtest temp dir.
fs::path test_dir() {
  // Parameterized test names contain '/'; keep the directory flat.
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(name.begin(), name.end(), '/', '_');
  const fs::path d =
      fs::path(::testing::TempDir()) / ("cachesched_robust_" + name);
  fs::remove_all(d);
  return d;
}

std::vector<size_t> quarantined_indices(const SweepResults& res) {
  std::vector<size_t> out;
  for (const QuarantinedJob& q : res.quarantined()) out.push_back(q.index);
  return out;
}

TEST(SweepFaults, RetriesMaskTransientFaultsByteIdentically) {
  const auto jobs = expand(small_spec());
  const SweepResults plain = run_sweep(jobs, {.workers = 1});

  FaultGuard faults("alloc.workload_build:every=2");
  SweepOptions opt;
  opt.workers = 1;
  opt.job_retries = 3;
  opt.retry_backoff_ms = 1;
  opt.quarantine = true;
  const SweepResults res = run_sweep(jobs, opt);
  EXPECT_TRUE(res.quarantined().empty());
  EXPECT_GT(res.retries(), 0u);
  EXPECT_EQ(res.to_table().to_csv(), plain.to_table().to_csv());
  EXPECT_EQ(res.to_json(), plain.to_json());
}

TEST(SweepFaults, SameSeedQuarantinesTheSameJobSetTwice) {
  const auto jobs = expand(small_spec());
  SweepOptions opt;
  opt.workers = 1;  // fixed hit order -> the schedule maps to fixed jobs
  opt.quarantine = true;  // no retries: every fire quarantines its job
  std::vector<size_t> first;
  {
    FaultGuard faults("alloc.workload_build:every=2,seed=11");
    first = quarantined_indices(run_sweep(jobs, opt));
  }
  {
    FaultGuard faults("alloc.workload_build:every=2,seed=11");
    EXPECT_EQ(quarantined_indices(run_sweep(jobs, opt)), first);
  }
  EXPECT_FALSE(first.empty());
  // ...and a quarantined job keeps its identity attached.
  FaultGuard faults("alloc.workload_build:every=2,seed=11");
  const SweepResults res = run_sweep(jobs, opt);
  ASSERT_FALSE(res.quarantined().empty());
  const QuarantinedJob& q = res.quarantined()[0];
  EXPECT_EQ(q.key, jobs[q.index].key());
  EXPECT_NE(q.error.find("injected workload-build"), std::string::npos);
  EXPECT_EQ(res.size() + res.quarantined().size(), jobs.size());
}

TEST(SweepFaults, ExhaustedRetriesFailFastWithoutQuarantine) {
  const auto jobs = expand(small_spec());
  FaultGuard faults("alloc.workload_build:every=1");  // every build fails
  SweepOptions opt;
  opt.workers = 1;
  opt.job_retries = 1;
  opt.retry_backoff_ms = 1;
  opt.quarantine = false;  // the library's historical fail-fast contract
  EXPECT_THROW(run_sweep(jobs, opt), robust::TransientError);
}

TEST(SweepFaults, WatchdogQuarantinesAStalledJob) {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul"};
  spec.core_counts = {2};
  const auto jobs = expand(spec);
  ASSERT_EQ(jobs.size(), 1u);
  // The stall site dilates every engine guard poll by 60ms while the
  // watchdog budget is 50ms: the first poll blows the deadline,
  // deterministically, without depending on host speed.
  FaultGuard faults("engine.stall:every=1,ms=60");
  SweepOptions opt;
  opt.workers = 1;
  opt.job_timeout_ms = 50;
  opt.job_retries = 5;  // timeouts must NOT be retried despite retries
  opt.retry_backoff_ms = 1;
  opt.quarantine = true;
  const SweepResults res = run_sweep(jobs, opt);
  EXPECT_EQ(res.size(), 0u);
  ASSERT_EQ(res.quarantined().size(), 1u);
  EXPECT_NE(res.quarantined()[0].error.find("watchdog"), std::string::npos);
  EXPECT_EQ(res.retries(), 0u);
}

TEST(SweepFaults, WatchdogFailsFastWithoutQuarantine) {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul"};
  spec.core_counts = {2};
  FaultGuard faults("engine.stall:every=1,ms=60");
  SweepOptions opt;
  opt.workers = 1;
  opt.job_timeout_ms = 50;
  EXPECT_THROW(run_sweep(expand(spec), opt), robust::JobTimeoutError);
}

TEST(SweepFaults, CancelDrainsAndReportsProgress) {
  const auto jobs = expand(small_spec());
  std::atomic<size_t> done{0};
  SweepOptions opt;
  opt.workers = 1;
  opt.cancel = [&done] { return done.load() >= 1; };
  opt.on_result = [&done](const SweepRecord&, size_t, size_t) { ++done; };
  try {
    run_sweep(jobs, opt);
    FAIL() << "expected SweepInterrupted";
  } catch (const robust::SweepInterrupted& e) {
    EXPECT_EQ(e.completed(), 1u);
    EXPECT_EQ(e.total(), jobs.size());
  }
}

TEST(SweepFaults, QuarantineWithStoreMergesWithHolesThenResumesClean) {
  const fs::path dir = test_dir();
  const auto jobs = expand(small_spec());
  const SweepResults plain = run_sweep(jobs, {.workers = 1});

  std::vector<size_t> holes_expected;
  {
    FaultGuard faults("alloc.workload_build:every=2,seed=11");
    ResultStore store(dir.string());
    SweepOptions opt;
    opt.workers = 1;
      opt.quarantine = true;
    opt.store = &store;
    const SweepResults res = run_sweep(jobs, opt);
    holes_expected = quarantined_indices(res);
    ASSERT_FALSE(holes_expected.empty());
    ASSERT_LT(holes_expected.size(), jobs.size());
  }
  // Strict merge refuses the holes, naming them; --allow-holes surfaces
  // exactly the quarantined set.
  {
    ResultStore store(dir.string());
    EXPECT_THROW(load_all(store, jobs), std::runtime_error);
    std::vector<MergeHole> holes;
    const SweepResults partial =
        load_all(store, jobs, /*allow_holes=*/true, &holes);
    std::vector<size_t> hole_indices;
    for (const MergeHole& h : holes) hole_indices.push_back(h.index);
    EXPECT_EQ(hole_indices, holes_expected);
    EXPECT_EQ(partial.size() + holes.size(), jobs.size());
  }
  // Resuming fault-free fills the holes; the merged matrix is
  // byte-identical to a never-faulted sweep.
  {
    ResultStore store(dir.string());
    SweepOptions opt;
    opt.workers = 1;
    opt.store = &store;
    run_sweep(jobs, opt);
    EXPECT_EQ(store.stats().puts, holes_expected.size());
  }
  ResultStore store(dir.string());
  const SweepResults merged = load_all(store, jobs);
  EXPECT_EQ(merged.to_table().to_csv(), plain.to_table().to_csv());
  EXPECT_EQ(merged.to_json(), plain.to_json());
  fs::remove_all(dir);
}

TEST(SweepFaults, StoreFaultsUnderRetryYieldByteIdenticalResults) {
  const fs::path dir = test_dir();
  const auto jobs = expand(small_spec());
  const SweepResults plain = run_sweep(jobs, {.workers = 1});
  {
    // Both store-write sites armed: puts tear and renames fail, and the
    // simulate+persist unit retries until the put lands.
    FaultGuard faults(
        "store.write.short:every=3;store.rename.fail:every=4,seed=9");
    ResultStore store(dir.string());
    SweepOptions opt;
    opt.workers = 1;
      opt.job_retries = 6;
    opt.retry_backoff_ms = 1;
    opt.quarantine = true;
    opt.store = &store;
    const SweepResults res = run_sweep(jobs, opt);
    EXPECT_TRUE(res.quarantined().empty());
    EXPECT_GT(res.retries(), 0u);
    EXPECT_EQ(res.to_table().to_csv(), plain.to_table().to_csv());
  }
  // Every record landed durably despite the fault schedule.
  ResultStore store(dir.string());
  const SweepResults merged = load_all(store, jobs);
  EXPECT_EQ(merged.to_table().to_csv(), plain.to_table().to_csv());
  EXPECT_EQ(merged.to_json(), plain.to_json());
  fs::remove_all(dir);
}

// ------------------------------------ every site: faulted store, resume

/// The clause a site is armed with below: every other hit fires; the
/// stall site sleeps 1 ms a bounded number of times.
std::string every_other_hit(robust::FaultSite site) {
  const std::string name = robust::fault_site_name(site);
  const bool stall = site == robust::FaultSite::kEngineStall;
  return name + (stall ? ":every=2,ms=1,max=8" : ":every=2");
}

class EverySite : public ::testing::TestWithParam<int> {};

// No fault may leak an altered result into the result store. For every
// site: a faulted sweep into a store (retries masking the failures),
// then a faulted resume that reads every entry back, then a fault-free
// resume that must serve every job from the store, byte-identical to a
// sweep that never saw a fault. A stealing scheduler is in the matrix so
// engine.stall also fires while a stealing run is in flight.
TEST_P(EverySite, FaultedStoreResumesByteIdentically) {
  const auto site = static_cast<robust::FaultSite>(GetParam());
  const fs::path dir = test_dir();
  SweepSpec spec = small_spec();
  spec.scheds = {"pdf", "ws:steal=half"};
  const auto jobs = expand(spec);
  const SweepResults plain = run_sweep(jobs, {.workers = 1});
  const std::string want_csv = plain.to_table().to_csv();
  {
    FaultGuard faults(every_other_hit(site));
    ResultStore store(dir.string());
    SweepOptions opt;
    opt.workers = 1;
    opt.job_retries = 4;
    opt.retry_backoff_ms = 1;
    opt.store = &store;
    for (int pass = 0; pass < 2; ++pass) {  // cold, then resume
      EXPECT_EQ(run_sweep(jobs, opt).to_table().to_csv(), want_csv)
          << "faulted pass " << pass;
    }
    EXPECT_GT(robust::fault_stats().fires[GetParam()], 0u)
        << every_other_hit(site) << " never fired";
  }
  ResultStore store(dir.string());
  SweepOptions opt;
  opt.workers = 1;
  opt.store = &store;
  const SweepResults resumed = run_sweep(jobs, opt);
  EXPECT_EQ(store.stats().hits, jobs.size());
  EXPECT_EQ(resumed.to_table().to_csv(), want_csv);
  EXPECT_EQ(resumed.to_json(), plain.to_json());
  ASSERT_EQ(resumed.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    expect_identical(resumed[i].result, plain[i].result);
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, EverySite, ::testing::Range(0, robust::kNumFaultSites),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name =
          robust::fault_site_name(static_cast<robust::FaultSite>(info.param));
      std::replace(name.begin(), name.end(), '.', '_');
      return name;
    });

}  // namespace
}  // namespace cachesched
