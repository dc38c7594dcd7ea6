// Deterministic fault injection (DESIGN: src/robust/).
//
// Production code declares named *injection sites* at the exact points
// where real-world failures strike — a store write that tears, a rename
// that fails, a read that observes a torn entry, an allocation that
// throws, a stalled engine — and asks `fault_point(site)` whether the
// armed schedule says this particular hit should fail. A disarmed
// process answers with a single relaxed atomic load, so the
// instrumentation is free in normal runs.
//
// Schedules are armed from a spec string (CACHESCHED_FAULTS env var or
// --faults=), same strict grammar family as genspec/schedspec:
//
//   faultspec   := site-clause (';' site-clause)*
//   site-clause := site [':' key=val (',' key=val)*]
//   keys        := every=N   fire every Nth hit (default 1 = every hit)
//                  seed=S    deterministic pseudo-random schedule: each
//                            hit fires with probability 1/every, chosen
//                            by a per-site splitmix64 stream over the
//                            hit counter (same seed -> same schedule,
//                            byte-for-byte, regardless of thread count
//                            as long as the site is hit in a fixed
//                            order; store sites are hit under locks)
//                  max=M     stop firing after M fires (0 = unlimited)
//                  ms=T      for engine.stall only: stall duration
//
//   e.g. CACHESCHED_FAULTS="store.write.short:every=7;store.rename.fail:every=5,seed=3"
//
// Unknown sites/keys, malformed values, duplicate keys and empty clauses
// are rejected with a descriptive std::invalid_argument — never silently
// defaulted (fault schedules must fail loudly, like workload specs).
//
// Sites (see the README table):
//   store.write.short          ResultStore::put tears the tmp-file write
//                              (truncated payload left on disk) and throws
//                              TransientError.
//   store.rename.fail          ResultStore::put fails the atomic
//                              tmp->final rename and throws TransientError.
//   store.read.torrent         ResultStore::load observes a torn entry
//                              (payload truncated mid-record); exercises
//                              the checksum fail-soft path.
//   alloc.workload_build       workload construction throws TransientError
//                              (stands in for bad_alloc under memory
//                              pressure).
//   engine.stall               engine poll points sleep `ms` per fire —
//                              a pure time dilation (results unchanged)
//                              used to test watchdogs and live kills.
//
// No site alters simulation results: a faulted job either fails (and is
// retried or quarantined) or completes with exactly the clean result, so
// a faulted sweep can never write an altered record into the result
// store. Keep it that way — a perturbation of simulated behaviour is a
// scheduler or config variant, not a fault.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cachesched {
namespace robust {

enum class FaultSite : uint8_t {
  kStoreWriteShort = 0,
  kStoreRenameFail,
  kStoreReadTorn,
  kAllocWorkloadBuild,
  kEngineStall,
  kNumSites,
};

constexpr int kNumFaultSites = static_cast<int>(FaultSite::kNumSites);

/// Canonical site name ("store.write.short", ...).
const char* fault_site_name(FaultSite site);

/// One armed site clause, as parsed from a spec string.
struct FaultClause {
  FaultSite site = FaultSite::kStoreWriteShort;
  uint64_t every = 1;    // fire every Nth hit (or with prob 1/every if seeded)
  uint64_t seed = 0;     // 0 = periodic; nonzero = pseudo-random schedule
  bool seeded = false;
  uint64_t max_fires = 0;  // 0 = unlimited
  uint64_t stall_ms = 0;   // engine.stall only
};

/// Parses a fault spec string. Throws std::invalid_argument on any
/// grammar violation ("bad fault spec \"...\": ...").
std::vector<FaultClause> parse_fault_spec(const std::string& spec);

/// Arms the process-wide fault schedule from a spec string, replacing any
/// previous schedule and resetting all hit/fire counters. Must not race
/// with in-flight fault_point() calls (arm before starting work).
void arm_faults(const std::string& spec);

/// Arms from $CACHESCHED_FAULTS if set (no-op otherwise). Returns the
/// spec that was armed, or empty.
std::string arm_faults_from_env();

/// Disarms every site and resets counters.
void disarm_faults();

/// True if any site is currently armed (single relaxed load).
bool faults_armed();

namespace detail {
bool fault_point_slow(FaultSite site);
extern bool g_any_armed;  // written only by arm/disarm
}  // namespace detail

/// Returns true if this hit of `site` should fail. The disarmed fast
/// path is one branch on a plain bool (arm/disarm happen-before work
/// starts, so no atomic is needed and the hot loops stay free).
inline bool fault_point(FaultSite site) {
  if (!detail::g_any_armed) return false;
  return detail::fault_point_slow(site);
}

/// The armed engine.stall duration in ms (0 if unarmed).
uint64_t fault_stall_ms();

/// Per-site counters since the last arm/disarm.
struct FaultStats {
  uint64_t hits[kNumFaultSites] = {};
  uint64_t fires[kNumFaultSites] = {};
};
FaultStats fault_stats();

/// Total fires across all sites since the last arm/disarm.
uint64_t total_fault_fires();

}  // namespace robust
}  // namespace cachesched
