// Content-addressed on-disk result store for the sweep engine
// (ROADMAP item 4: sweep-as-a-service).
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
// them. A put() that fails on I/O throws TransientError, which the sweep
// engine's bounded retry understands; a temp file that a failed write or
// a crash leaves behind is never read and never renamed into place.
//
// Invalidation rule: any change that alters simulation results —
// engine timing, scheduler behavior, workload generation — must bump
// kStoreEngineSalt; every stored record then misses and re-simulates.
// Capacity/geometry and timing knobs need no bump: they are part of the
// key.
//
// Sharding: shard_jobs() deterministically partitions one expanded job
// matrix across N processes (round-robin by job index); each shard runs
// `cachesched_cli sweep --shard=i/N --store=DIR` against the shared
// store, and load_all() (the `sweep merge` subcommand) reassembles the
// full matrix from the store in job order — byte-identical to a
// single-process run of the same matrix.
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
    size_t hits = 0;     // loads served from disk
    size_t misses = 0;   // loads with no entry
    size_t corrupt = 0;  // entries rejected (checksum/version/key); also
                         // counted in misses
    size_t puts = 0;     // records written
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
  /// because equal keys imply equal records). Throws TransientError on
  /// write/rename failure — retryable, the entry is simply absent.
  /// Thread-safe.
  void put(const StoreKey& key, const SweepRecord& rec);

  /// True if an entry file exists for `key` (no validation).
  bool contains(const StoreKey& key) const;

  /// Final on-disk path of `key`'s entry.
  std::string path_for(const StoreKey& key) const;

  const std::string& dir() const { return dir_; }

  /// The engine salt recorded in the directory's SALT marker when this
  /// store was opened (empty for a freshly created store). The marker is
  /// rewritten to kStoreEngineSalt on open, so a mismatch is only
  /// observable through this accessor — the CLI uses it to warn that
  /// --resume will re-simulate everything (see salt_mismatch()).
  const std::string& previous_salt() const { return previous_salt_; }

  /// True if the store directory was last written by a different engine
  /// salt: every existing entry will be rejected and re-simulated (the
  /// invalidation rule in the file comment).
  bool salt_mismatch() const {
    return !previous_salt_.empty() && previous_salt_ != kStoreEngineSalt;
  }

  /// Hit/miss/corrupt/put counters since construction. Not synchronized
  /// with concurrent load/put calls — read after the sweep drains.
  Stats stats() const;

 private:
  struct Impl;
  std::string dir_;
  std::string previous_salt_;
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

/// A job absent from the store during load_all — a quarantined job, an
/// unfinished shard, or a stale-salt entry.
struct MergeHole {
  size_t index = 0;  // position in the expanded job matrix
  JobKey key;
};

/// Assembles a full job matrix entirely from the store, in job order —
/// the merge step after sharded sweeps. Throws std::runtime_error
/// listing the missing JobKeys if any record is absent (e.g. a shard
/// has not finished, or a job was quarantined). Factory jobs are not
/// loadable and count as missing.
SweepResults load_all(ResultStore& store, const std::vector<SweepJob>& jobs);

/// Hole-tolerant overload: with allow_holes, missing jobs are reported
/// through *holes (may be null) and the result contains the found
/// records only, in job order. With allow_holes == false behaves like
/// the two-argument form.
SweepResults load_all(ResultStore& store, const std::vector<SweepJob>& jobs,
                      bool allow_holes, std::vector<MergeHole>* holes);

}  // namespace cachesched
