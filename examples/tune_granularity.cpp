// The §6 workflow end-to-end: write the program fine-grained, profile its
// task-group working sets in one pass, let the coarsener pick the task
// granularity for a target CMP, and emit the Figure 7(b) parallelization
// table — then verify by simulation that the tuned program matches the
// hand-tuned one.
//
//   $ ./tune_granularity [--cores=16] [--scale=0.0625]
#include <cstdio>

#include "coarsen/coarsen.h"
#include "harness/apps.h"
#include "profile/ws_profiler.h"
#include "util/cli.h"

using namespace cachesched;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int cores = args.get_int("cores", 16);
  const double scale = args.get_double("scale", 0.0625);
  if (const int rc = args.check_unused()) return rc;
  const CmpConfig cfg = default_config(cores).scaled(scale);

  // Step 1: finest-grained program.
  AppOptions fine;
  fine.scale = scale;
  fine.mergesort_task_ws = 4096;
  const Workload w = make_app("mergesort", cfg, fine);
  std::printf("fine-grained mergesort: %zu tasks, %zu task groups\n",
              w.dag.num_tasks(), w.dag.num_groups());

  // Step 2: one-pass working-set profile (the LruTree algorithm).
  WorkingSetProfiler prof({cfg.l2_bytes / 4, cfg.l2_bytes / 2, cfg.l2_bytes},
                          cfg.line_bytes);
  prof.run(w.dag);
  std::printf("profiled %llu references; histogram entries: %llu\n",
              static_cast<unsigned long long>(prof.total_refs()),
              static_cast<unsigned long long>(prof.histogram_entries()));

  // Step 3: pick task groups for this CMP.
  CoarsenParams cp;
  cp.cache_bytes = cfg.l2_bytes;
  cp.num_cores = cfg.cores;
  const CoarsenResult sel = select_task_granularity(w.dag, prof, cp);
  std::printf("budget W <= cache/(2*cores) = %llu bytes -> %zu stopping "
              "groups\n\n",
              static_cast<unsigned long long>(sel.budget_bytes),
              sel.stopping_groups.size());

  // Step 4: the parallelization table (Figure 7(b)).
  std::printf("%-28s %-6s %-10s %-8s %s\n", "file", "line", "L2", "cores",
              "param threshold");
  for (const auto& row : sel.table.rows()) {
    std::printf("%-28s %-6d %-10llu %-8d %lld\n", row.file.c_str(), row.line,
                static_cast<unsigned long long>(row.l2_bytes), row.num_cores,
                static_cast<long long>(row.threshold));
  }

  // Step 5: regenerate at the selected grain and compare to hand-tuned.
  const int64_t thr = sel.table.threshold(cfg.l2_bytes, cfg.cores,
                                          "workloads/mergesort.cc", 1);
  AppOptions tuned;
  tuned.scale = scale;
  tuned.mergesort_task_ws = thr > 0 ? static_cast<uint64_t>(thr) * 2 * 4
                                    : fine.mergesort_task_ws;
  AppOptions manual;
  manual.scale = scale;
  const uint64_t t_fine = simulate_app(w, cfg, "pdf").cycles;
  const uint64_t t_tuned =
      simulate_app(make_app("mergesort", cfg, tuned), cfg, "pdf").cycles;
  const uint64_t t_manual =
      simulate_app(make_app("mergesort", cfg, manual), cfg, "pdf").cycles;
  std::printf(
      "\nPDF cycles:  finest %llu | auto-tuned %llu | hand-tuned %llu\n",
              static_cast<unsigned long long>(t_fine),
              static_cast<unsigned long long>(t_tuned),
              static_cast<unsigned long long>(t_manual));
  std::printf("auto-tuned within %.1f%% of hand-tuned (paper: within 5%%)\n",
              100.0 * (static_cast<double>(t_tuned) /
                           static_cast<double>(t_manual) - 1.0));
  return 0;
}
