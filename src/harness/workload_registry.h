// Workload registry: workloads are constructed by spec string through a
// process-wide factory table, mirroring the scheduler registry
// (src/sched/registry.h). A spec is `name` or `name:params`; the part
// before ':' selects the registered builder, which receives the rest.
//
// Two producer kinds self-register here:
//   - the seed paper apps of harness/apps.cc ("mergesort", "lu", ...),
//     which take no params and forward to make_app;
//   - the synthetic DAG families of src/gen/ ("dnc", "forkjoin",
//     "layered", "pipeline", "stencil"), whose params are the generator
//     knobs (see src/gen/genspec.h for the grammar).
//
// Every workload consumer — the sweep engine, perfbench and
// cachesched_cli, `paper` included — resolves workloads through
// make_workload, so seed and generated workloads are interchangeable
// anywhere an app name is accepted.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/apps.h"

namespace cachesched {

/// Builds a workload from the spec params after ':' (empty when the spec
/// is a bare name). Builders must be deterministic: equal arguments must
/// produce byte-identical workloads (the sweep engine's reproducibility
/// guarantee extends through this call).
///
/// Contract: a builder may shape its workload only from the
/// capacity/geometry fields of the CmpConfig — cores, l1_bytes, l1_ways,
/// l2_bytes, l2_ways, line_bytes — never from timing fields (hit/latency
/// cycles, banking, dispatch cost). The sweep engine's workload cache
/// (exp/sweep.h) keys on exactly those fields plus the spec and
/// AppOptions; a builder that read a timing field would be shared across
/// jobs where it should differ.
using WorkloadBuilder = std::function<Workload(
    const std::string& params, const CmpConfig&, const AppOptions&)>;

class WorkloadRegistry {
 public:
  /// The process-wide registry.
  static WorkloadRegistry& instance();

  /// Registers `builder` under `name` with a one-line `kind` shown by
  /// `cachesched_cli list`; throws std::invalid_argument if the name is
  /// already taken (duplicate registrations are always bugs).
  void add(const std::string& name, const std::string& kind,
           WorkloadBuilder builder);

  /// Builds the workload for `spec` ("name" or "name:params"); throws
  /// std::invalid_argument listing the known names if the name part is
  /// not registered.
  Workload make(const std::string& spec, const CmpConfig& cfg,
                const AppOptions& opt) const;

  /// True if the name part of `spec` is registered.
  bool contains(const std::string& spec) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// (name, kind) pairs, sorted by name (for `cachesched_cli list`).
  std::vector<std::pair<std::string, std::string>> entries() const;

 private:
  WorkloadRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// RAII helper: constructing one registers a builder (used by the
/// registration macro below from a producer's translation unit).
struct WorkloadRegistrar {
  WorkloadRegistrar(const std::string& name, const std::string& kind,
                    WorkloadBuilder builder);
};

/// Builds the workload named by `spec` — a seed app name, a generator
/// spec, or anything else registered.
Workload make_workload(const std::string& spec, const CmpConfig& cfg,
                       const AppOptions& opt);

/// Registered workload names, sorted. Seed apps keep known_apps().
std::vector<std::string> known_workloads();

/// Splits a comma-separated workload list that may itself contain
/// generator specs with commas, e.g.
///
///   "mergesort,dnc:depth=6,fanout=2,ws=16K,heat"
///   -> {"mergesort", "dnc:depth=6,fanout=2,ws=16K", "heat"}
///
/// A segment containing '=' but no ':' continues the previous spec
/// (workload names never contain '='; spec params always do).
std::vector<std::string> split_workload_list(const std::string& list);

}  // namespace cachesched

/// Registers `builder` (a WorkloadBuilder-compatible callable) as `name`.
/// Place in the producer's .cc file at namespace cachesched scope.
#define CACHESCHED_WORKLOAD_CONCAT_INNER(a, b) a##b
#define CACHESCHED_WORKLOAD_CONCAT(a, b) CACHESCHED_WORKLOAD_CONCAT_INNER(a, b)
#define CACHESCHED_REGISTER_WORKLOAD(name, kind, builder)                  \
  namespace {                                                              \
  const ::cachesched::WorkloadRegistrar CACHESCHED_WORKLOAD_CONCAT(        \
      workload_registrar_, __COUNTER__)(name, kind, builder);              \
  }
