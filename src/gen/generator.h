// Deterministic synthetic-workload generator: expands a GenSpec into a
// computation DAG with per-task reference traces (see genspec.h for the
// family catalogue and spec-string grammar).
//
// Determinism contract: the built Workload is a pure function of
// (spec, line_bytes) — addresses come from the bump allocator in task
// order, randomness only from mix64 over the spec seed — so the same spec
// yields a byte-identical DAG and reference stream on every run and under
// any sweep worker count (tests/gen_test.cc pins golden fixtures).
#pragma once

#include "gen/genspec.h"
#include "workloads/common.h"

namespace cachesched {

/// Builds the DAG family described by `spec` with `line_bytes`-sized cache
/// lines (make_workload passes CmpConfig::line_bytes).
Workload build_generated(const GenSpec& spec, uint32_t line_bytes);

}  // namespace cachesched
