#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/store.h"
#include "exp/sweep.h"

namespace cachesched {
namespace {

namespace fs = std::filesystem;

constexpr double kScale = 0.0078125;

SweepSpec small_spec() {
  SweepSpec spec;
  spec.apps = {"mergesort", "matmul"};
  spec.scheds = {"pdf", "ws"};
  spec.core_counts = {2, 4};
  spec.scales = {kScale};
  return spec;
}

/// Fresh per-test store directory under the gtest temp dir.
class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("cachesched_store_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  fs::path dir_;
};

std::vector<fs::path> entry_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".rec") {
      out.push_back(e.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_file(const fs::path& p, const std::string& text) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f << text;
}

TEST(StoreKeyTest, DeterministicAndSensitiveToIdentity) {
  const auto jobs = expand(small_spec());
  ASSERT_FALSE(jobs.empty());
  const SweepJob& base = jobs[0];
  const auto k1 = store_key(base);
  const auto k2 = store_key(base);
  ASSERT_TRUE(k1 && k2);
  EXPECT_EQ(*k1, *k2);
  EXPECT_EQ(k1->hex().size(), 16u);

  SweepJob j = base;
  j.sched = "ws";
  EXPECT_NE(store_key(j)->repr, k1->repr);
  j = base;
  j.tag = "variant";
  EXPECT_NE(store_key(j)->repr, k1->repr);
  j = base;
  j.config.l2_hit_cycles += 2;
  EXPECT_NE(store_key(j)->repr, k1->repr);
  j = base;
  j.config.mem_latency_cycles += 100;
  EXPECT_NE(store_key(j)->repr, k1->repr);
  j = base;
  j.config.task_dispatch_cycles += 1;
  EXPECT_NE(store_key(j)->repr, k1->repr);
  j = base;
  j.opt.seed += 1;
  EXPECT_NE(store_key(j)->repr, k1->repr);
}

TEST(StoreKeyTest, SchedulerSpecParametersAreDistinctIdentities) {
  // A parameterized scheduler spec is part of the job identity exactly
  // like a workload spec: `--store` must never conflate ws:steal=one
  // with ws:steal=half, or a spec with its own default-equivalent bare
  // name (the key is the string, not the policy it denotes).
  SweepJob job = expand(small_spec())[0];
  job.sched = "ws:steal=one";
  const auto one = store_key(job);
  job.sched = "ws:steal=half";
  const auto half = store_key(job);
  job.sched = "ws";
  const auto bare = store_key(job);
  ASSERT_TRUE(one && half && bare);
  EXPECT_NE(one->repr, half->repr);
  EXPECT_NE(one->repr, bare->repr);
  EXPECT_NE(half->repr, bare->repr);
  job.sched = "ws:steal=half";
  EXPECT_EQ(store_key(job)->repr, half->repr);  // stable for equal specs
}

TEST(StoreKeyTest, FactoryJobsHaveNoIdentity) {
  SweepJob job = expand(small_spec())[0];
  job.factory = [](const CmpConfig& cfg, const AppOptions& o) {
    return make_app("matmul", cfg, o);
  };
  EXPECT_EQ(store_key(job), std::nullopt);
}

TEST_F(StoreTest, PutThenLoadRoundTripsTheRecord) {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul"};
  spec.scheds = {"pdf"};
  spec.core_counts = {2};
  const auto jobs = expand(spec);
  const SweepResults res = run_sweep(jobs, {.workers = 1});
  ASSERT_EQ(res.size(), 1u);

  ResultStore store(dir());
  const auto key = store_key(jobs[0]);
  ASSERT_TRUE(key);
  SweepRecord missing;
  EXPECT_FALSE(store.load(*key, &missing));
  store.put(*key, res[0]);
  EXPECT_TRUE(fs::exists(store.path_for(*key)));

  SweepRecord rec;
  ASSERT_TRUE(store.load(*key, &rec));
  EXPECT_EQ(rec.params, res[0].params);
  EXPECT_EQ(rec.num_tasks, res[0].num_tasks);
  EXPECT_EQ(rec.total_refs, res[0].total_refs);
  const SimResult &a = rec.result, &b = res[0].result;
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.cores, b.cores);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l2_hits, b.l2_hits);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles);
  EXPECT_EQ(a.mem_queue_cycles, b.mem_queue_cycles);
  EXPECT_EQ(a.mem_busy_cycles, b.mem_busy_cycles);
  EXPECT_EQ(a.steals, b.steals);
  EXPECT_EQ(a.core_busy_cycles, b.core_busy_cycles);
  EXPECT_EQ(a.task_l2_misses, b.task_l2_misses);
  EXPECT_EQ(a.task_refs, b.task_refs);

  const ResultStore::Stats s = store.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.puts, 1u);
  EXPECT_EQ(s.corrupt, 0u);
}

// The acceptance property: a second identical sweep against the same
// store simulates zero jobs and emits byte-identical CSV/JSON.
TEST_F(StoreTest, SecondRunIsAllHitsAndByteIdentical) {
  const auto jobs = expand(small_spec());
  const SweepResults plain = run_sweep(jobs, {.workers = 1});

  ResultStore cold(dir());
  SweepOptions copt;
  copt.workers = 2;
  copt.store = &cold;
  const SweepResults first = run_sweep(jobs, copt);
  EXPECT_EQ(cold.stats().hits, 0u);
  EXPECT_EQ(cold.stats().puts, jobs.size());

  ResultStore warm(dir());
  SweepOptions wopt;
  wopt.workers = 2;
  wopt.store = &warm;
  const SweepResults second = run_sweep(jobs, wopt);
  EXPECT_EQ(warm.stats().hits, jobs.size());
  EXPECT_EQ(warm.stats().puts, 0u);  // zero jobs re-simulated

  EXPECT_EQ(plain.to_table().to_csv(), first.to_table().to_csv());
  EXPECT_EQ(plain.to_table().to_csv(), second.to_table().to_csv());
  EXPECT_EQ(plain.to_json(), first.to_json());
  EXPECT_EQ(plain.to_json(), second.to_json());
}

// A sweep killed mid-run leaves a partial store; re-running the full
// matrix resumes from it and the final output is byte-identical to an
// uninterrupted run.
TEST_F(StoreTest, ResumeAfterPartialSweepIsByteIdentical) {
  const auto jobs = expand(small_spec());
  ASSERT_GE(jobs.size(), 4u);
  const SweepResults plain = run_sweep(jobs, {.workers = 1});

  // "Kill" after the first half: only those jobs reach the store.
  const std::vector<SweepJob> half(jobs.begin(),
                                   jobs.begin() + jobs.size() / 2);
  {
    ResultStore store(dir());
    SweepOptions opt;
    opt.workers = 1;
    opt.store = &store;
    run_sweep(half, opt);
    EXPECT_EQ(store.stats().puts, half.size());
  }

  ResultStore store(dir());
  SweepOptions opt;
  opt.workers = 2;
  opt.store = &store;
  const SweepResults resumed = run_sweep(jobs, opt);
  EXPECT_EQ(store.stats().hits, half.size());
  EXPECT_EQ(store.stats().puts, jobs.size() - half.size());
  EXPECT_EQ(plain.to_table().to_csv(), resumed.to_table().to_csv());
  EXPECT_EQ(plain.to_json(), resumed.to_json());
}

TEST_F(StoreTest, CorruptedTruncatedAndWrongSaltEntriesAreResimulated) {
  const auto jobs = expand(small_spec());
  const SweepResults plain = run_sweep(jobs, {.workers = 1});
  {
    ResultStore store(dir());
    SweepOptions opt;
    opt.workers = 1;
    opt.store = &store;
    run_sweep(jobs, opt);
  }
  auto files = entry_files(dir_);
  ASSERT_GE(files.size(), 3u);

  // Flip a payload byte (checksum mismatch), truncate an entry, and
  // rewrite one under a stale engine salt with a *valid* checksum (the
  // salt check itself must reject it).
  {
    std::string text = read_file(files[0]);
    text[text.size() / 2] ^= 0x20;
    write_file(files[0], text);
  }
  write_file(files[1], read_file(files[1]).substr(0, 10));
  {
    std::string text = read_file(files[2]);
    const std::string salt = kStoreEngineSalt;
    const size_t pos = text.find(salt);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, salt.size(), "stale-salt-v0");
    const size_t sum = text.rfind("checksum ");
    ASSERT_NE(sum, std::string::npos);
    std::string payload = text.substr(0, sum);
    char line[32];
    std::snprintf(line, sizeof(line), "checksum %016llx\n",
                  static_cast<unsigned long long>(fnv1a64(payload)));
    write_file(files[2], payload + line);
  }

  ResultStore store(dir());
  SweepOptions opt;
  opt.workers = 1;
  opt.store = &store;
  const SweepResults res = run_sweep(jobs, opt);
  const ResultStore::Stats s = store.stats();
  EXPECT_EQ(s.corrupt, 3u);
  EXPECT_EQ(s.hits, jobs.size() - 3);
  EXPECT_EQ(s.puts, 3u);  // rejected entries transparently re-simulated
  EXPECT_EQ(plain.to_table().to_csv(), res.to_table().to_csv());
  EXPECT_EQ(plain.to_json(), res.to_json());

  // ...and rewritten: a further run is all hits again.
  ResultStore again(dir());
  opt.store = &again;
  run_sweep(jobs, opt);
  EXPECT_EQ(again.stats().hits, jobs.size());
  EXPECT_EQ(again.stats().corrupt, 0u);
}

// Assembly after sharded runs is one more sweep on the store: every job
// loads (all hits, no puts), and the output is byte-identical to a
// sweep run without a store.
TEST_F(StoreTest, ShardedRunsMergeByteIdenticalToUnsharded) {
  const auto jobs = expand(small_spec());
  const SweepResults plain = run_sweep(jobs, {.workers = 1});

  for (size_t i = 0; i < 2; ++i) {
    ResultStore store(dir());
    SweepOptions opt;
    opt.workers = 2;
    opt.store = &store;
    run_sweep(shard_jobs(jobs, i, 2), opt);
  }
  ResultStore store(dir());
  SweepOptions opt;
  opt.workers = 2;
  opt.store = &store;
  const SweepResults merged = run_sweep(jobs, opt);
  EXPECT_EQ(store.stats().hits, jobs.size());
  EXPECT_EQ(store.stats().puts, 0u);
  ASSERT_EQ(merged.size(), jobs.size());
  EXPECT_EQ(plain.to_table().to_csv(), merged.to_table().to_csv());
  EXPECT_EQ(plain.to_json(), merged.to_json());
}

/// One simulated record and its key, to feed the put/load cases below.
SweepRecord one_record(std::optional<StoreKey>* key) {
  SweepSpec spec = small_spec();
  spec.apps = {"matmul"};
  spec.scheds = {"pdf"};
  spec.core_counts = {2};
  const auto jobs = expand(spec);
  *key = store_key(jobs[0]);
  const SweepResults res = run_sweep(jobs, {.workers = 1});
  return res[0];
}

/// Files under `dir` whose name starts with "tmp-": put()'s temp files.
size_t tmp_files(const fs::path& dir) {
  size_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.path().filename().string().rfind("tmp-", 0) == 0) ++n;
  }
  return n;
}

/// The fanout directory DIR/<hh> that holds `key`'s entry.
fs::path fanout_of(const ResultStore& store, const StoreKey& key) {
  return fs::path(store.path_for(key)).parent_path();
}

// A regular file where the fanout directory belongs is a real I/O
// failure no permission bit can undo (tests may run as root): put()
// throws TransientError and writes no entry, and the put lands once the
// obstacle is gone.
TEST_F(StoreTest, PutIntoABlockedFanoutIsTransientAndRetriable) {
  std::optional<StoreKey> key;
  const SweepRecord rec = one_record(&key);
  ASSERT_TRUE(key);
  ResultStore store(dir());
  write_file(fanout_of(store, *key), "not a directory");
  EXPECT_THROW(store.put(*key, rec), TransientError);
  EXPECT_FALSE(fs::exists(store.path_for(*key)));
  EXPECT_TRUE(entry_files(dir_).empty());
  EXPECT_EQ(store.stats().puts, 0u);

  fs::remove(fanout_of(store, *key));
  store.put(*key, rec);
  SweepRecord out;
  ASSERT_TRUE(store.load(*key, &out));
  EXPECT_EQ(out.result, rec.result);
}

// A directory under the entry's final name makes the rename fail after
// the temp file is written and synced: put() throws TransientError and
// removes its temp file, so a failed put leaves nothing behind.
TEST_F(StoreTest, FailedRenameIsTransientAndLeavesNoTempFile) {
  std::optional<StoreKey> key;
  const SweepRecord rec = one_record(&key);
  ASSERT_TRUE(key);
  ResultStore store(dir());
  const fs::path final_path = store.path_for(*key);
  fs::create_directories(final_path);
  EXPECT_THROW(store.put(*key, rec), TransientError);
  EXPECT_EQ(tmp_files(dir_), 0u);
  EXPECT_TRUE(fs::is_directory(final_path));
  EXPECT_EQ(store.stats().puts, 0u);

  fs::remove(final_path);
  store.put(*key, rec);
  EXPECT_EQ(tmp_files(dir_), 0u);
  SweepRecord out;
  ASSERT_TRUE(store.load(*key, &out));
  EXPECT_EQ(out.result, rec.result);
}

// What a process killed mid-put leaves: a partial temp file and no
// entry. Loads read final names only, so the key is a plain miss — not a
// rejected entry — and a resumed sweep simulates and puts it.
TEST_F(StoreTest, TornTempFileIsNeverAnEntry) {
  std::optional<StoreKey> key;
  const SweepRecord rec = one_record(&key);
  ASSERT_TRUE(key);
  {
    // Half of a complete entry, under a temp name, and no entry.
    ResultStore store(dir());
    store.put(*key, rec);
    const std::string entry = read_file(store.path_for(*key));
    fs::remove(store.path_for(*key));
    write_file(dir_ / ("tmp-1-0-" + key->hex()),
               entry.substr(0, entry.size() / 2));
  }
  ASSERT_EQ(tmp_files(dir_), 1u);
  ResultStore store(dir());

  SweepRecord out;
  EXPECT_FALSE(store.load(*key, &out));
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().corrupt, 0u);

  SweepSpec spec = small_spec();
  spec.apps = {"matmul"};
  spec.scheds = {"pdf"};
  spec.core_counts = {2};
  SweepOptions opt;
  opt.workers = 1;
  opt.store = &store;
  const SweepResults res = run_sweep(expand(spec), opt);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].result, rec.result);
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().corrupt, 0u);
  ASSERT_TRUE(store.load(*key, &out));
  EXPECT_EQ(out.result, rec.result);
}

// The failure model end to end: puts that fail on I/O exhaust their
// retries and quarantine exactly their jobs, which quarantined() names;
// and a resume once the obstacle is gone simulates only those jobs,
// ending byte-identical to a sweep that never failed. Two workers, so
// TSan sees the pool.
TEST_F(StoreTest, FailedPutsQuarantineThenResumeFillsTheHoles) {
  const auto jobs = expand(small_spec());
  const SweepResults plain = run_sweep(jobs, {.workers = 1});

  fs::path blocked;
  std::vector<size_t> blocked_jobs;
  {
    // Block the fanout directory of job 0; every job hashed under it
    // fails its put.
    ResultStore store(dir());
    blocked = fanout_of(store, *store_key(jobs[0]));
    for (size_t i = 0; i < jobs.size(); ++i) {
      if (fanout_of(store, *store_key(jobs[i])) == blocked) {
        blocked_jobs.push_back(i);
      }
    }
    ASSERT_LT(blocked_jobs.size(), jobs.size());
    write_file(blocked, "not a directory");
    SweepOptions opt;
    opt.workers = 2;
    opt.job_retries = 1;
    opt.retry_backoff_ms = 1;
    opt.quarantine = true;
    opt.store = &store;
    const SweepResults res = run_sweep(jobs, opt);
    std::vector<size_t> quarantined;
    for (const QuarantinedJob& q : res.quarantined()) {
      quarantined.push_back(q.index);
      EXPECT_EQ(q.key, jobs[q.index].key());
      EXPECT_NE(q.error.find("result store: cannot create"), std::string::npos)
          << q.error;
    }
    EXPECT_EQ(quarantined, blocked_jobs);
    EXPECT_EQ(res.retries(), blocked_jobs.size());
    EXPECT_EQ(res.size(), jobs.size() - blocked_jobs.size());
    EXPECT_EQ(store.stats().puts, jobs.size() - blocked_jobs.size());
  }
  fs::remove(blocked);
  ResultStore store(dir());
  SweepOptions opt;
  opt.workers = 2;
  opt.store = &store;
  const SweepResults resumed = run_sweep(jobs, opt);
  EXPECT_EQ(store.stats().hits, jobs.size() - blocked_jobs.size());
  EXPECT_EQ(store.stats().puts, blocked_jobs.size());
  EXPECT_EQ(store.stats().corrupt, 0u);
  EXPECT_TRUE(resumed.quarantined().empty());
  EXPECT_EQ(resumed.to_table().to_csv(), plain.to_table().to_csv());
  EXPECT_EQ(resumed.to_json(), plain.to_json());
}

TEST(ShardTest, ParseShardAcceptsValidRejectsInvalid) {
  EXPECT_EQ(parse_shard("0/2"), (std::pair<size_t, size_t>{0, 2}));
  EXPECT_EQ(parse_shard("3/4"), (std::pair<size_t, size_t>{3, 4}));
  for (const char* bad :
       {"", "/", "1/", "/2", "2/2", "3/2", "a/2", "1/b", "1/2/3", "-1/2"}) {
    EXPECT_THROW(parse_shard(bad), std::invalid_argument) << bad;
  }
}

TEST(ShardTest, ShardPartitionIsDisjointAndComplete) {
  const auto jobs = expand(small_spec());
  const size_t n = 3;
  size_t seen = 0;
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; ++i) {
    for (const SweepJob& j : shard_jobs(jobs, i, n)) {
      ++seen;
      keys.push_back(store_key(j)->repr);
    }
  }
  EXPECT_EQ(seen, jobs.size());
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
      << "shards overlap";
}

TEST(ShardTest, RoundRobinKeepsJobOrderWithinShard) {
  const auto jobs = expand(small_spec());
  const auto s0 = shard_jobs(jobs, 0, 2);
  ASSERT_FALSE(s0.empty());
  EXPECT_EQ(s0[0].key(), jobs[0].key());
  if (s0.size() > 1) EXPECT_EQ(s0[1].key(), jobs[2].key());
}

}  // namespace
}  // namespace cachesched
