// The result oracle behind fail_frac. Every op the driver performs (one
// simulation, one profile or coarsen step, one resumed store record) is
// checked for conservation, and its digest is compared with the digest
// recorded for the same (workload, seed, op) when the seed is one of the
// documented ones in expected_digests.tsv. An op fails if it threw, broke
// conservation or, for a documented seed, digests differently.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "simarch/engine.h"

namespace perfbench {

/// FNV-1a 64 over a sequence of integers and strings.
class Digest {
 public:
  Digest& add(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>(v >> (8 * i)));
    return *this;
  }
  Digest& add(const std::string& s) {
    add(s.size());
    for (char ch : s) byte(static_cast<uint8_t>(ch));
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  void byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of every SimResult field.
uint64_t digest_of(const cachesched::SimResult& r);

std::string hex64(uint64_t v);

class Oracle {
 public:
  Oracle(std::string workload, uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {}

  /// Loads the recorded digests of this (workload, seed) from `path`.
  /// Returns false when the seed is not documented there (digests are
  /// then only printed). Throws std::runtime_error on a malformed file.
  bool load_expectations(const std::string& path);

  /// Records one op. `problem` is empty when the conservation checks
  /// passed; `digest` is compared with the recorded one.
  void op(const std::string& name, uint64_t digest, const std::string& problem);

  /// A simulation op: tasks and references must be conserved.
  void sim(const std::string& name, uint64_t num_tasks, uint64_t total_refs,
           const cachesched::SimResult& r);

  /// An op checked for consistency only; it has no recorded digest.
  void check(const std::string& name, const std::string& problem);

  /// An op that threw.
  void threw(const std::string& name, const std::string& what);

  /// Counts every recorded digest no op produced as a failed op.
  void finish();

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }
  bool checked() const { return checked_; }

  /// Digest over every op's name and digest, in op order.
  uint64_t combined() const { return combined_.value(); }

  /// One "workload<TAB>seed<TAB>op<TAB>digest" line per op: the format
  /// of expected_digests.tsv.
  void print_digests(std::FILE* out) const;

 private:
  void fail(const std::string& name, const std::string& why);

  std::string workload_;
  uint64_t seed_;
  bool checked_ = false;
  std::map<std::string, uint64_t> expected_;
  std::map<std::string, bool> seen_;
  std::vector<std::pair<std::string, uint64_t>> ops_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  Digest combined_;
};

}  // namespace perfbench
