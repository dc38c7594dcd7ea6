#include "robust/faultinject.h"

#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

namespace cachesched {
namespace robust {
namespace {

[[noreturn]] void fail(const std::string& spec, const std::string& what) {
  throw std::invalid_argument("bad fault spec \"" + spec + "\": " + what);
}

uint64_t parse_u64(const std::string& spec, const std::string& key,
                   const std::string& val, uint64_t lo, uint64_t hi) {
  if (val.empty()) fail(spec, key + " has no value");
  if (val[0] == '-' || val[0] == '+') {
    fail(spec, key + "=" + val + " is not a valid unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long raw = std::strtoull(val.c_str(), &end, 10);
  if (errno == ERANGE) fail(spec, key + "=" + val + " overflows");
  if (!end || *end != '\0' || end == val.c_str()) {
    fail(spec, key + "=" + val + " is not a valid integer");
  }
  const uint64_t v = raw;
  if (v < lo || v > hi) {
    fail(spec, key + "=" + val + " out of range [" + std::to_string(lo) +
                   ", " + std::to_string(hi) + "]");
  }
  return v;
}

/// Splits "k1=v1,k2=v2" rejecting empty params, missing '=' and
/// duplicate keys (genspec idiom).
std::vector<std::pair<std::string, std::string>> split_params(
    const std::string& spec, const std::string& params) {
  std::vector<std::pair<std::string, std::string>> out;
  std::set<std::string> seen;
  std::stringstream ss(params);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) fail(spec, "empty parameter (stray comma)");
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail(spec, "parameter \"" + item + "\" is not key=value");
    }
    const std::string key = item.substr(0, eq);
    if (!seen.insert(key).second) fail(spec, "duplicate key " + key);
    out.emplace_back(key, item.substr(eq + 1));
  }
  if (!params.empty() && params.back() == ',') {
    fail(spec, "empty parameter (stray comma)");
  }
  return out;
}

constexpr const char* kSiteNames[kNumFaultSites] = {
    "store.write.short",  "store.rename.fail",
    "store.read.torrent", "alloc.workload_build",
    "engine.stall",       "sched.dispatch.stall",
};

bool is_stall_site(FaultSite s) {
  return s == FaultSite::kEngineStall || s == FaultSite::kSchedDispatchStall;
}

std::string known_sites() {
  std::string s;
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (i) s += ' ';
    s += kSiteNames[i];
  }
  return s;
}

FaultSite parse_site(const std::string& spec, const std::string& name) {
  for (int i = 0; i < kNumFaultSites; ++i) {
    if (name == kSiteNames[i]) return static_cast<FaultSite>(i);
  }
  fail(spec, "unknown site \"" + name + "\" (known: " + known_sites() + ")");
}

/// splitmix64: the per-site deterministic stream for seeded schedules.
uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The armed schedule. Counters are atomic (store sites fire from sweep
// worker threads); the clause array itself is written only while
// disarmed, so reads need no lock.
struct SiteState {
  bool armed = false;
  FaultClause clause;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fires{0};
};

SiteState g_sites[kNumFaultSites];

void reset_sites() {
  for (auto& s : g_sites) {
    s.armed = false;
    s.clause = FaultClause{};
    s.hits.store(0, std::memory_order_relaxed);
    s.fires.store(0, std::memory_order_relaxed);
  }
}

}  // namespace

namespace detail {
bool g_any_armed = false;

bool fault_point_slow(FaultSite site) {
  SiteState& s = g_sites[static_cast<int>(site)];
  if (!s.armed) return false;
  const uint64_t k = s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  const FaultClause& c = s.clause;
  bool fire;
  if (c.seeded) {
    fire = splitmix64(c.seed ^ (k * 0x9E3779B97F4A7C15ull)) % c.every == 0;
  } else {
    fire = k % c.every == 0;
  }
  if (!fire) return false;
  const uint64_t n = s.fires.fetch_add(1, std::memory_order_relaxed) + 1;
  if (c.max_fires != 0 && n > c.max_fires) {
    s.fires.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}
}  // namespace detail

const char* fault_site_name(FaultSite site) {
  const int i = static_cast<int>(site);
  return (i >= 0 && i < kNumFaultSites) ? kSiteNames[i] : "?";
}

std::vector<FaultClause> parse_fault_spec(const std::string& spec) {
  if (spec.empty()) fail(spec, "empty spec");
  std::vector<FaultClause> out;
  std::set<FaultSite> seen;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ';')) {
    if (item.empty()) fail(spec, "empty site clause (stray semicolon)");
    const size_t colon = item.find(':');
    const std::string name =
        colon == std::string::npos ? item : item.substr(0, colon);
    FaultClause c;
    c.site = parse_site(spec, name);
    if (!seen.insert(c.site).second) fail(spec, "duplicate site " + name);
    if (colon != std::string::npos) {
      const std::string params = item.substr(colon + 1);
      if (params.empty()) fail(spec, name + " has ':' but no parameters");
      for (const auto& [key, val] : split_params(spec, params)) {
        if (key == "every") {
          c.every = parse_u64(spec, key, val, 1, UINT64_MAX);
        } else if (key == "seed") {
          c.seed = parse_u64(spec, key, val, 0, UINT64_MAX);
          c.seeded = true;
        } else if (key == "max") {
          c.max_fires = parse_u64(spec, key, val, 0, UINT64_MAX);
        } else if (key == "ms") {
          if (!is_stall_site(c.site)) {
            fail(spec,
                 "ms is only valid for engine.stall and "
                 "sched.dispatch.stall");
          }
          c.stall_ms = parse_u64(spec, key, val, 1, 60000);
        } else {
          fail(spec, "unknown key \"" + key +
                         "\" (known: every seed max ms)");
        }
      }
    }
    if (is_stall_site(c.site) && c.stall_ms == 0) {
      fail(spec, name + " requires ms=");
    }
    out.push_back(c);
  }
  if (!spec.empty() && spec.back() == ';') {
    fail(spec, "empty site clause (stray semicolon)");
  }
  return out;
}

void arm_faults(const std::string& spec) {
  const auto clauses = parse_fault_spec(spec);  // may throw; arm nothing
  detail::g_any_armed = false;
  reset_sites();
  for (const auto& c : clauses) {
    SiteState& s = g_sites[static_cast<int>(c.site)];
    s.armed = true;
    s.clause = c;
  }
  detail::g_any_armed = true;
}

std::string arm_faults_from_env() {
  const char* env = std::getenv("CACHESCHED_FAULTS");
  if (!env || !*env) return "";
  arm_faults(env);
  return env;
}

void disarm_faults() {
  detail::g_any_armed = false;
  reset_sites();
}

bool faults_armed() { return detail::g_any_armed; }

uint64_t fault_stall_ms(FaultSite site) {
  const SiteState& s = g_sites[static_cast<int>(site)];
  return s.armed ? s.clause.stall_ms : 0;
}

FaultStats fault_stats() {
  FaultStats st;
  for (int i = 0; i < kNumFaultSites; ++i) {
    st.hits[i] = g_sites[i].hits.load(std::memory_order_relaxed);
    st.fires[i] = g_sites[i].fires.load(std::memory_order_relaxed);
  }
  return st;
}

uint64_t total_fault_fires() {
  uint64_t n = 0;
  for (int i = 0; i < kNumFaultSites; ++i) {
    n += g_sites[i].fires.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace robust
}  // namespace cachesched
