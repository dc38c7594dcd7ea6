// Crash reproducer files (DESIGN: src/check/).
//
// When an armed checker throws CheckViolation, the CLI writes a small
// key=value file capturing everything needed to re-create the failing
// run from scratch: the workload spec (a seed app name or src/gen
// generator spec), the scheduler spec, the configuration coordinates
// (tech table, cores, scale, timing overrides), the workload options
// (seed, task-ws, fine-grained), the armed check spec and the violation
// itself with its op coordinate. Workloads and simulations are
// deterministic functions of exactly these inputs, so replaying the file
// reproduces the violation bit-for-bit:
//
//   cachesched_cli replay-crash --repro=crash.repro
//
// Format: '#' comment lines, then one key=value per line (values may
// contain '='; the first '=' splits). Unknown keys are rejected —
// reproducers are written and read by this code only, so leniency would
// just mask version skew; so are repeated keys, within `overrides` too.
// The leading "cachesched-crash-repro v3" line is the magic; bump the
// version when the schema changes, so files of any other version are
// rejected before a key is read.
#pragma once

#include <cstdint>
#include <string>

#include "simarch/config.h"

namespace cachesched {
namespace check {

struct CrashRepro {
  std::string workload;  // make_workload spec (app name or genspec)
  std::string sched;     // make_scheduler spec
  std::string tech = "default";  // "default" | "45nm"
  int cores = 8;
  double scale = 0.125;
  uint64_t task_ws = 0;      // AppOptions::mergesort_task_ws
  bool fine_grained = true;  // AppOptions::fine_grained
  uint64_t seed = 42;        // AppOptions::seed
  ConfigOverrides overrides;
  std::string check;      // armed checkspec ("" = disarmed)
  uint64_t op_index = 0;  // CheckViolation coordinate
  std::string violation;  // one-line what()

  /// The canonical file body (magic line + key=value lines).
  std::string serialize() const;

  /// Inverse of serialize(). Throws std::invalid_argument on bad magic,
  /// malformed lines, unknown or duplicate keys, or bad values
  /// ("bad crash repro: ...").
  static CrashRepro parse(const std::string& text);

  /// Writes serialize() to `path` (throws std::runtime_error on I/O
  /// failure) / parses the file at `path`.
  void save(const std::string& path) const;
  static CrashRepro load(const std::string& path);
};

}  // namespace check
}  // namespace cachesched
