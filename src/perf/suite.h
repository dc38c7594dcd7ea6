// The fixed cachesched performance suite behind `cachesched_cli perf`:
//
//   engine/<app>/<sched>   — CmpSimulator throughput (Mrefs_per_sec) on
//                            the fig2-style workloads and the rest of the
//                            paper's apps, 8-core default configuration;
//   engine/gen_dnc/pdf     — the same metric over a synthetic src/gen
//                            workload, so generator-path throughput is
//                            tracked too;
//   profiler/lru_stack     — LruStackModel throughput (Maccesses_per_sec)
//                            over the mergesort reference stream;
//   sweep/jobs_1 & jobs_N  — experiment-sweep engine throughput
//                            (jobs_per_sec) serial vs. all workers, plus
//                            sweep/scaling_x (the ratio);
//   sweep/build_vs_sim/*   — the sweep's cost split into workload
//                            construction (builds_per_sec over the unique
//                            workloads; the part the sweep cache pays once
//                            per workload instead of once per job) and
//                            pure simulation (jobs_per_sec, pre-built
//                            workloads);
//   sweep/store_cold/warm  — the same matrix through the content-
//                            addressed result store (exp/store.h): cold =
//                            empty store (simulate + persist), warm =
//                            every job a store hit (the incremental
//                            re-sweep cost), store_warm_x their ratio.
//
// The suite emits the stable JSON schema of perf.h (BENCH_sim.json);
// tools/perf_compare diffs two such files.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "perf/perf.h"

namespace cachesched::perf {

struct SuiteOptions {
  /// Quick mode: smaller inputs and fewer repetitions, for CI smoke runs.
  bool quick = false;
  /// Repetitions per benchmark; 0 = default (3 quick, 5 full).
  int reps = 0;
  /// Engine benchmark workloads (seed app names or src/gen specs);
  /// empty = the default set.
  std::vector<std::string> apps;
  /// Progress sink (one line per finished benchmark); null = silent.
  std::function<void(const Benchmark&)> on_benchmark;
};

/// Runs the suite and returns the report.
Report run_suite(const SuiteOptions& options);

}  // namespace cachesched::perf
