#include "exp/store.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "simarch/config.h"

namespace cachesched {
namespace fs = std::filesystem;

uint64_t fnv1a64(const std::string& data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string StoreKey::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

// Key anatomy (fields joined with '\x1e', the record separator):
//   salt \x1e workload key \x1e job key (app/sched/cores/tag)
//        \x1e the four override-able timing fields, e.g.
//              "l2_hit=13,mem_latency=300,banks=0,dispatch=100"
//        \x1e the remaining timing fields + config name
// The workload key covers spec, AppOptions and capacity/geometry; the
// two timing sections cover every remaining result-affecting CmpConfig
// field, so two jobs with equal keys are guaranteed to produce equal
// records.
std::optional<StoreKey> store_key(const SweepJob& job) {
  if (job.factory) return std::nullopt;  // no serializable identity
  const CmpConfig& c = job.config;
  std::ostringstream os;
  os << kStoreEngineSalt << '\x1e' << workload_key(job).str() << '\x1e'
     << job.key().str() << '\x1e' << "l2_hit=" << c.l2_hit_cycles
     << ",mem_latency=" << c.mem_latency_cycles << ",banks=" << c.l2_banks
     << ",dispatch=" << c.task_dispatch_cycles << '\x1e' << c.name << '\x1f'
     << c.l2_local_hit_cycles << '\x1f' << c.bank_hop_cycles << '\x1f'
     << c.mem_service_cycles;
  StoreKey key;
  key.repr = os.str();
  key.hash = fnv1a64(key.repr);
  return key;
}

namespace {

constexpr const char* kMagic = "cachesched-store";
constexpr int kFormatVersion = 1;

void put_u64s(std::ostringstream& os, const char* name,
              const std::vector<uint64_t>& v) {
  os << name << ' ' << v.size();
  for (const uint64_t x : v) os << ' ' << x;
  os << '\n';
}

void put_u32s(std::ostringstream& os, const char* name,
              const std::vector<uint32_t>& v) {
  os << name << ' ' << v.size();
  for (const uint32_t x : v) os << ' ' << x;
  os << '\n';
}

/// Serializes the payload the store round-trips: everything to_table /
/// to_json / downstream consumers read from a record *except* the job
/// itself, which the loader re-attaches from the in-memory matrix (it is
/// part of the key, so it is identical by construction).
std::string serialize_entry(const StoreKey& key, const SweepRecord& rec) {
  std::ostringstream os;
  os << kMagic << ' ' << kFormatVersion << ' ' << kStoreEngineSalt << '\n';
  os << "key " << key.repr << '\n';
  const SimResult& r = rec.result;
  os << "scheduler " << r.scheduler << '\n';
  os << "config " << r.config << '\n';
  os << "params " << rec.params << '\n';
  os << "num_tasks " << rec.num_tasks << '\n';
  os << "total_refs " << rec.total_refs << '\n';
  os << "cores " << r.cores << '\n';
  os << "cycles " << r.cycles << '\n';
  os << "instructions " << r.instructions << '\n';
  os << "tasks_executed " << r.tasks_executed << '\n';
  os << "l1_hits " << r.l1_hits << '\n';
  os << "l2_hits " << r.l2_hits << '\n';
  os << "l2_misses " << r.l2_misses << '\n';
  os << "writebacks " << r.writebacks << '\n';
  os << "invalidations " << r.invalidations << '\n';
  os << "mem_stall_cycles " << r.mem_stall_cycles << '\n';
  os << "mem_queue_cycles " << r.mem_queue_cycles << '\n';
  os << "mem_busy_cycles " << r.mem_busy_cycles << '\n';
  os << "steals " << r.steals << '\n';
  put_u64s(os, "core_busy_cycles", r.core_busy_cycles);
  put_u32s(os, "task_l2_misses", r.task_l2_misses);
  put_u32s(os, "task_refs", r.task_refs);
  std::string payload = os.str();
  char sum[32];
  std::snprintf(sum, sizeof(sum), "checksum %016llx\n",
                static_cast<unsigned long long>(fnv1a64(payload)));
  payload += sum;
  return payload;
}

/// Line-oriented reader for parse_entry: every accessor fails soft
/// (sets ok = false) so a malformed entry is rejected as a whole rather
/// than half-parsed.
struct EntryReader {
  std::istringstream in;
  bool ok = true;

  explicit EntryReader(const std::string& text) : in(text) {}

  /// Reads "<field> <rest-of-line>"; the value may contain spaces.
  std::string str(const char* field) {
    std::string line;
    if (!std::getline(in, line)) {
      ok = false;
      return "";
    }
    const std::string prefix = std::string(field) + ' ';
    if (line.size() < prefix.size() ||
        line.compare(0, prefix.size(), prefix) != 0) {
      // A field with an empty value serializes as "<field> " — getline
      // keeps the trailing space — or as "<field>" if the stream
      // stripped it; accept the bare-name form too.
      if (line == field) return "";
      ok = false;
      return "";
    }
    return line.substr(prefix.size());
  }

  uint64_t u64(const char* field) {
    const std::string v = str(field);
    if (!ok) return 0;
    try {
      size_t pos = 0;
      const uint64_t x = std::stoull(v, &pos);
      if (pos != v.size()) ok = false;
      return x;
    } catch (...) {
      ok = false;
      return 0;
    }
  }

  template <typename T>
  std::vector<T> nums(const char* field) {
    std::vector<T> out;
    const std::string v = str(field);
    if (!ok) return out;
    std::istringstream is(v);
    uint64_t n = 0;
    if (!(is >> n)) {
      ok = false;
      return out;
    }
    out.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t x = 0;
      if (!(is >> x)) {
        ok = false;
        return {};
      }
      out.push_back(static_cast<T>(x));
    }
    std::string trail;
    if (is >> trail) ok = false;  // more values than the declared count
    return out;
  }
};

/// Validates and parses an entry. Returns false (leaving *rec
/// unspecified) on any structural problem: bad checksum, wrong
/// version/salt, or a key that does not match `key` (hash collision).
bool parse_entry(const std::string& text, const StoreKey& key,
                 SweepRecord* rec, std::string* why) {
  // Checksum first: everything after it is known-intact.
  const size_t sum_pos = text.rfind("checksum ");
  if (sum_pos == std::string::npos || sum_pos == 0 ||
      text[sum_pos - 1] != '\n') {
    *why = "missing checksum";
    return false;
  }
  const std::string payload = text.substr(0, sum_pos);
  const std::string sum_line = text.substr(sum_pos);
  char expect[32];
  std::snprintf(expect, sizeof(expect), "checksum %016llx\n",
                static_cast<unsigned long long>(fnv1a64(payload)));
  if (sum_line != expect) {
    *why = "checksum mismatch";
    return false;
  }

  EntryReader in(payload);
  std::string magic, salt;
  int version = 0;
  {
    std::string header;
    if (!std::getline(in.in, header)) {
      *why = "empty entry";
      return false;
    }
    std::istringstream hs(header);
    if (!(hs >> magic >> version >> salt) || magic != kMagic) {
      *why = "bad header";
      return false;
    }
    if (version != kFormatVersion || salt != kStoreEngineSalt) {
      *why = "version/salt mismatch (" + header + ")";
      return false;
    }
  }
  if (in.str("key") != key.repr) {
    *why = "key mismatch (hash collision or foreign entry)";
    return false;
  }

  SweepRecord out;
  SimResult& r = out.result;
  r.scheduler = in.str("scheduler");
  r.config = in.str("config");
  out.params = in.str("params");
  out.num_tasks = in.u64("num_tasks");
  out.total_refs = in.u64("total_refs");
  r.cores = static_cast<int>(in.u64("cores"));
  r.cycles = in.u64("cycles");
  r.instructions = in.u64("instructions");
  r.tasks_executed = in.u64("tasks_executed");
  r.l1_hits = in.u64("l1_hits");
  r.l2_hits = in.u64("l2_hits");
  r.l2_misses = in.u64("l2_misses");
  r.writebacks = in.u64("writebacks");
  r.invalidations = in.u64("invalidations");
  r.mem_stall_cycles = in.u64("mem_stall_cycles");
  r.mem_queue_cycles = in.u64("mem_queue_cycles");
  r.mem_busy_cycles = in.u64("mem_busy_cycles");
  r.steals = in.u64("steals");
  r.core_busy_cycles = in.nums<uint64_t>("core_busy_cycles");
  r.task_l2_misses = in.nums<uint32_t>("task_l2_misses");
  r.task_refs = in.nums<uint32_t>("task_refs");
  if (!in.ok) {
    *why = "malformed payload";
    return false;
  }
  *rec = std::move(out);
  return true;
}

}  // namespace

struct ResultStore::Impl {
  std::mutex mu;  // guards stats
  Stats stats;
  std::atomic<uint64_t> tmp_seq{0};
};

ResultStore::ResultStore(std::string dir)
    : dir_(std::move(dir)), impl_(std::make_shared<Impl>()) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("result store: cannot create directory " + dir_ +
                             (ec ? ": " + ec.message() : ""));
  }
}

std::string ResultStore::path_for(const StoreKey& key) const {
  const std::string hex = key.hex();
  return (fs::path(dir_) / hex.substr(0, 2) / (hex.substr(2) + ".rec"))
      .string();
}

bool ResultStore::load(const StoreKey& key, SweepRecord* rec) {
  const std::string path = path_for(key);
  std::string text;
  {
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::lock_guard<std::mutex> lock(impl_->mu);
      ++impl_->stats.misses;
      return false;
    }
    std::ostringstream os;
    os << f.rdbuf();
    text = os.str();
  }
  std::string why;
  if (!parse_entry(text, key, rec, &why)) {
    std::fprintf(stderr,
                 "result store: rejecting %s (%s); will re-simulate\n",
                 path.c_str(), why.c_str());
    std::lock_guard<std::mutex> lock(impl_->mu);
    ++impl_->stats.misses;
    ++impl_->stats.corrupt;
    return false;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->stats.hits;
  return true;
}

namespace {

/// Writes `text` to `path` and fsyncs it — the durable half of the
/// atomic tmp+fsync+rename protocol. A failure returns false with the
/// reason in *why and may leave a partial temp file behind; loads never
/// read temp names, and it is never renamed into place.
bool write_tmp_durable(const std::string& path, const std::string& text,
                       std::string* why) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    *why = "cannot open " + path;
    return false;
  }
  size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      ::close(fd);
      *why = "cannot write " + path;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    *why = "fsync failed on " + path;
    return false;
  }
  ::close(fd);
  return true;
}

/// Makes the rename of an entry into `dir` durable. Best-effort: some
/// filesystems refuse directory fsync; the entry data itself is already
/// synced, so a failure here only risks losing the *name*, which the
/// sweep recovers from as a miss.
void fsync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool ResultStore::put(const StoreKey& key, const SweepRecord& rec) {
  auto fail = [this](const std::string& why) {
    std::fprintf(stderr, "result store: %s; not stored, will re-simulate\n",
                 why.c_str());
    std::lock_guard<std::mutex> lock(impl_->mu);
    ++impl_->stats.failed_puts;
    return false;
  };
  const std::string text = serialize_entry(key, rec);
  const fs::path final_path = path_for(key);
  std::error_code ec;
  fs::create_directories(final_path.parent_path(), ec);
  if (ec) {
    return fail("cannot create " + final_path.parent_path().string() + ": " +
                ec.message());
  }
  // Unique temp name: the (store address, sequence) pair distinguishes
  // writes within a process, and the key hex distinguishes concurrent
  // processes (shards share a store but never write the same key).
  // rename() is atomic within a filesystem, so readers only ever see
  // complete entries under final names.
  std::ostringstream tmp_name;
  tmp_name << "tmp-" << reinterpret_cast<uintptr_t>(impl_.get()) << '-'
           << impl_->tmp_seq.fetch_add(1) << '-' << key.hex();
  const fs::path tmp_path = fs::path(dir_) / tmp_name.str();
  std::string why;
  if (!write_tmp_durable(tmp_path.string(), text, &why)) return fail(why);
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    why = "cannot rename into " + final_path.string() + ": " + ec.message();
    fs::remove(tmp_path, ec);
    return fail(why);
  }
  fsync_dir(final_path.parent_path());
  std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->stats.puts;
  return true;
}

ResultStore::Stats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

std::pair<size_t, size_t> parse_shard(const std::string& s) {
  const size_t slash = s.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= s.size()) {
    throw std::invalid_argument("bad shard spec '" + s +
                                "' (expected i/N, e.g. 0/2)");
  }
  size_t i = 0, n = 0;
  try {
    size_t pos = 0;
    i = std::stoull(s.substr(0, slash), &pos);
    if (pos != slash) throw std::invalid_argument(s);
    n = std::stoull(s.substr(slash + 1), &pos);
    if (pos != s.size() - slash - 1) throw std::invalid_argument(s);
  } catch (...) {
    throw std::invalid_argument("bad shard spec '" + s +
                                "' (expected i/N, e.g. 0/2)");
  }
  if (n == 0 || i >= n) {
    throw std::invalid_argument("bad shard spec '" + s +
                                "' (need 0 <= i < N)");
  }
  return {i, n};
}

std::vector<SweepJob> shard_jobs(const std::vector<SweepJob>& jobs, size_t i,
                                 size_t n) {
  if (n == 0 || i >= n) {
    throw std::invalid_argument("shard_jobs: need 0 <= i < n");
  }
  std::vector<SweepJob> out;
  out.reserve((jobs.size() + n - 1) / n);
  for (size_t j = i; j < jobs.size(); j += n) out.push_back(jobs[j]);
  return out;
}

}  // namespace cachesched
