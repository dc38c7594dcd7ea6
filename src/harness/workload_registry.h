// Workloads by spec string. A spec is `name` or `name:params` (grammar in
// util/spec.h), and the name is either
//   - a seed paper app of harness/apps.cc ("mergesort", "lu", ...), which
//     takes no params and is built by make_app, or
//   - a synthetic DAG family of src/gen/ ("dnc", "forkjoin", "layered",
//     "pipeline", "stencil"), whose params are the generator knobs (see
//     src/gen/genspec.h).
//
// Every workload consumer — the sweep engine, perfbench and
// cachesched_cli, `paper` included — resolves workloads through
// make_workload, so seed and generated workloads are interchangeable
// anywhere an app name is accepted.
//
// Contract: a workload may be shaped only by the capacity/geometry fields
// of the CmpConfig — cores, l1_bytes, l1_ways, l2_bytes, l2_ways,
// line_bytes — never by timing fields (hit/latency cycles, banking,
// dispatch cost). The sweep engine's workload cache (exp/sweep.h) keys
// on exactly those fields plus the spec and AppOptions; a builder that
// read a timing field would be shared across jobs where it should
// differ. Equal arguments build byte-identical workloads.
#pragma once

#include <string>
#include <vector>

#include "harness/apps.h"

namespace cachesched {

/// Builds the workload named by `spec`, a seed app name or a generator
/// spec. Throws std::invalid_argument as check_workload does.
Workload make_workload(const std::string& spec, const CmpConfig& cfg,
                       const AppOptions& opt);

/// Parses `spec` the way make_workload does, building nothing: throws
/// std::invalid_argument on a malformed spec, an unknown name (listing
/// the known names plus a nearest-name suggestion) or params the
/// workload rejects.
void check_workload(const std::string& spec);

/// Workload names, sorted: the seed apps and the generator families.
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
