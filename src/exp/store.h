// Content-addressed on-disk result store for the sweep engine: a sweep
// given a store loads every job that has a record and simulates and puts
// only the rest, so rerunning a sweep is how it is resumed or assembled.
//
// Every sweep job is a deterministic simulation, so a completed
// SweepRecord is a pure function of the job's full identity:
//
//   workload key (spec x AppOptions x capacity/geometry config)
//     x scheduler x tag
//     x timing-relevant configuration fields
//     x engine version salt
//
// store_key() canonicalizes that identity into a StoreKey — a stable
// serialization plus its 64-bit FNV-1a content address. ResultStore maps
// keys to record files under a directory:
//
//   DIR/<hh>/<hhhhhhhhhhhhhh>.rec     (git-style fanout on the first
//                                      hex byte of the key hash)
//
// Each entry is a self-checking text record: a header line carrying the
// format version and engine salt, the full key serialization (verified
// on load, so a hash collision degrades to a miss instead of returning
// the wrong job's result), the record payload, and a trailing FNV-1a
// checksum over everything above it. Writes go to a unique temp file in
// DIR — fsync'd before the rename, with the directory fsync'd after, so
// an entry under a final name survives power loss (POSIX
// crash-consistency), not just process death — and are renamed into
// place, so concurrent writers (sweep workers, shard processes sharing
// one store) and interrupted sweeps never leave a partially-written
// entry under a final name. Loads treat truncated, corrupted,
// wrong-version and wrong-salt entries as misses (counted in
// Stats::corrupt) and the sweep transparently re-simulates and rewrites
// them. A put() that fails on I/O fails soft the same way: it is logged,
// counted in Stats::failed_puts and returns false. An entry is only a
// cache of a deterministic result, so the sweep keeps the record and the
// next run re-simulates the job. A temp file that a failed write or a
// crash leaves behind is never read and never renamed into place.
//
// Invalidation rule: any change that alters simulation results —
// engine timing, scheduler behavior, workload generation — must bump
// kStoreEngineSalt. The salt is the first field of every key, so a bump
// moves every key: old entries simply miss and re-simulate. Capacity/
// geometry and timing knobs need no bump: they are part of the key.
//
// Sharding: shard_jobs() deterministically partitions one expanded job
// matrix across N processes (round-robin by job index); each shard runs
// `cachesched_cli sweep --shard=i/N --store=DIR` against the shared
// store. Rerunning the same command without --shard assembles the full
// matrix in job order — byte-identical to a single-process run — loading
// every finished record and simulating any job a shard did not finish.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.h"

namespace cachesched {

/// Version salt baked into every store key and entry header. Bump when
/// simulation results change (see file comment); stored records from
/// other salts are treated as misses.
inline constexpr const char* kStoreEngineSalt = "cachesched-engine-v7";

/// Canonical full-job-identity key: `repr` is the stable serialization,
/// `hash` its FNV-1a-64 content address (the on-disk name).
struct StoreKey {
  std::string repr;
  uint64_t hash = 0;

  bool operator==(const StoreKey&) const = default;

  /// 16-hex-digit form of `hash` (the entry's file stem).
  std::string hex() const;
};

/// Canonicalizes `job`'s full identity (see file comment). Jobs with a
/// custom `factory` have no serializable identity and return nullopt —
/// the sweep always re-simulates them.
std::optional<StoreKey> store_key(const SweepJob& job);

/// FNV-1a 64-bit over `data` (exposed for tests; the store uses it for
/// both content addressing and entry checksums).
uint64_t fnv1a64(const std::string& data);

class ResultStore {
 public:
  struct Stats {
    size_t hits = 0;         // loads served from disk
    size_t misses = 0;       // loads with no entry
    size_t corrupt = 0;      // entries rejected (checksum/version/key); also
                             // counted in misses
    size_t puts = 0;         // records written
    size_t failed_puts = 0;  // puts that failed on I/O; no entry written
  };

  /// Opens (creating if needed) the store rooted at `dir`. Throws
  /// std::runtime_error if the directory cannot be created.
  explicit ResultStore(std::string dir);

  /// Loads the record stored under `key` into `*rec` — payload fields
  /// only (params, num_tasks, total_refs, result); the caller owns
  /// rec->job. Returns false on miss or on a rejected entry (corrupt /
  /// truncated / wrong salt / key mismatch), logging rejections to
  /// stderr. Thread-safe.
  bool load(const StoreKey& key, SweepRecord* rec);

  /// Atomically and durably persists `rec` under `key` (temp file +
  /// fsync + rename + directory fsync; last writer wins, which is safe
  /// because equal keys imply equal records) and returns true. On a
  /// write or rename failure, logs it to stderr, counts it in
  /// Stats::failed_puts and returns false: the entry is simply absent.
  /// Thread-safe.
  bool put(const StoreKey& key, const SweepRecord& rec);

  /// Final on-disk path of `key`'s entry.
  std::string path_for(const StoreKey& key) const;

  /// Hit/miss/corrupt/put/failed-put counters since construction. Takes
  /// the store's lock, so a sweep may call it while running; its totals
  /// are final once it drains.
  Stats stats() const;

 private:
  struct Impl;
  std::string dir_;
  std::shared_ptr<Impl> impl_;
};

/// Parses a "--shard=i/n" value ("0/2", "1/4", ...). Throws
/// std::invalid_argument unless 0 <= i < n.
std::pair<size_t, size_t> parse_shard(const std::string& s);

/// Deterministic shard partition: the jobs of shard `i` of `n`
/// (round-robin by job index, so shards stay balanced even when the
/// matrix is sorted by cost). The union over i of shard_jobs(jobs, i, n)
/// is exactly `jobs`.
std::vector<SweepJob> shard_jobs(const std::vector<SweepJob>& jobs, size_t i,
                                 size_t n);

}  // namespace cachesched
