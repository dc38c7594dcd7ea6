// Runtime invariant checking: the --check spec grammar (DESIGN:
// src/check/).
//
// The simulator's correctness story so far is byte-identity against
// recorded golden fixtures, which cannot catch a bug that predates the
// recording. The check subsystem adds machine-checked invariants: the
// engine is instrumented with hooks that, when armed, maintain a naive
// shadow model of the caches and the scheduler contract and audit the
// real (SWAR-packed) state against it at a configurable sampling period.
// Disarmed — the default — the hooks compile to nothing (the run loop is
// templated on a no-op checker), so the hot paths perfbench times are
// unaffected.
//
// Arming uses the repo's strict spec-string grammar (genspec/schedspec/
// faultspec family), via --check= or $CACHESCHED_CHECK:
//
//   checkspec := item (',' item)*
//   item      := checker | 'all' | 'period=N'
//   checker   := 'coherence'  shadow cache model kept in lockstep:
//                             hit/miss agreement, single-writer
//                             invalidation accounting, L2 presence-mask
//                             accuracy, and full L1/L2 content audits
//                             decoded out of the SWAR rows
//                'lru'       LRU-order validity: per-fill victim
//                             agreement with the reference model, order
//                             row permutation decode, fingerprint-row
//                             consistency
//                'sched'     scheduler conservation: every task
//                             dispatched once, completed once, never
//                             before its dependencies; ready-set
//                             accounting matches DAG in-degrees
//                'trace'     PackedRef expansion spot-checks: sampled
//                             tasks are re-expanded through TraceCursor
//                             and compared op-by-op against the batched
//                             engine expander
//   period=N  audit every Nth memory reference (default 1024; 1 =
//             lockstep, every reference audited). Shadow *maintenance*
//             is per-reference regardless; period bounds only the
//             O(capacity) full-state audits.
//
// Unknown checkers, duplicate items, and malformed periods throw
// std::invalid_argument ("bad check spec \"...\": ...") — never silently
// defaulted, like every other spec grammar in the repo.
#pragma once

#include <cstdint>
#include <string>

namespace cachesched {
namespace check {

struct CheckSpec {
  bool coherence = false;
  bool lru = false;
  bool sched = false;
  bool trace = false;
  /// Full-state audits run every Nth memory reference.
  uint64_t period = 1024;

  /// True if any checker is armed.
  bool any() const { return coherence || lru || sched || trace; }

  /// True if the cache shadow model must be maintained.
  bool shadow() const { return coherence || lru; }

  /// Parses a check spec string; throws std::invalid_argument on any
  /// grammar violation ("bad check spec \"...\": ...").
  static CheckSpec parse(const std::string& spec);

  /// Every checker armed at the given sampling period.
  static CheckSpec all(uint64_t period = 1024);

  /// Canonical serialization ("coherence,lru,period=64"); parse(str())
  /// round-trips. "" when nothing is armed.
  std::string str() const;

  bool operator==(const CheckSpec&) const = default;
};

/// The process-default check spec: $CACHESCHED_CHECK parsed once (so
/// existing binaries — the golden fixture suite in particular — can be
/// run fully checked wholesale). Unset or empty = nothing armed. A
/// malformed value throws std::invalid_argument from the first simulator
/// construction.
const CheckSpec& default_check_spec();

}  // namespace check
}  // namespace cachesched
