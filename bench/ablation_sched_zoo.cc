// Scheduler-zoo ablation: the paper's Figure-2 question — does PDF's
// constructive L2 sharing survive against *real* scheduling policies,
// not just the one idealized work stealer? — asked across the whole
// registry.
//
// Every registered scheduler family (bare defaults plus curated
// parameterized variants of the zoo: randomized/half stealing, affinity
// stealing, depth/work/ws priorities, cache-footprint feedback) runs on
// a representative spec of each of the five generator families at two
// per-task working-set scales: "fit" (the aggregate working set of P
// concurrent tasks fits the shared L2) and "spill" (it does not — the
// regime where the paper shows scheduling policy decides the miss rate).
// All jobs are one matrix on the cached sweep engine: each workload
// builds once and is shared across every scheduler, and both the table
// and the CSV are byte-identical for any --jobs=N.
//
// The closing summary table is the headline: per scheduler and scale,
// the geometric-mean slowdown and L2-MPKI ratio relative to PDF over
// the five families — the "beyond PDF-vs-WS" figure the paper never
// had.
//
// Usage: ablation_sched_zoo [--cores=16] [--fit-ws=32768]
//                           [--spill-ws=262144] [--share=0.25] [--seed=7]
//                           [--csv=path] [--jobs=N]
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "harness/workload_registry.h"
#include "sched/registry.h"
#include "util/cli.h"
#include "util/table.h"

using namespace cachesched;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int cores = static_cast<int>(args.get_int("cores", 16));
  const uint64_t fit_ws =
      static_cast<uint64_t>(args.get_int("fit-ws", 32 * 1024));
  const uint64_t spill_ws =
      static_cast<uint64_t>(args.get_int("spill-ws", 256 * 1024));
  const double share = args.get_double("share", 0.25);
  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 7));
  const std::string csv = args.get("csv", "");
  const int workers = static_cast<int>(args.get_int("jobs", 0));
  // Every flag has been queried; fail on typos before the long run.
  if (const int rc = args.check_unused()) return rc;

  // Bare names from the registry (sorted, so new schedulers join the
  // ablation automatically), then the zoo's parameterized variants.
  std::vector<std::string> scheds = known_schedulers();
  for (const char* v :
       {"ws:victims=rand,seed=7", "ws:steal=half", "aff:steal=half",
        "prio:key=depth,order=max", "prio:key=work,order=max", "prio:key=ws",
        "cfb:budget=0.5"}) {
    scheds.push_back(v);
  }

  const std::vector<std::pair<std::string, uint64_t>> scales = {
      {"fit", fit_ws}, {"spill", spill_ws}};
  auto family_specs = [&](uint64_t ws) {
    const std::string knobs = ",ws=" + std::to_string(ws) +
                              ",share=" + std::to_string(share) +
                              ",seed=" + std::to_string(seed);
    return std::vector<std::pair<std::string, std::string>>{
        {"dnc", "dnc:depth=8,fanout=2" + knobs},
        {"forkjoin", "forkjoin:stages=8,width=32,reuse=loop" + knobs},
        {"layered", "layered:layers=12,width=24,p=0.2,reuse=loop" + knobs},
        {"pipeline", "pipeline:stages=8,items=32,reuse=loop" + knobs},
        {"stencil", "stencil:tiles=32,steps=8,reuse=loop" + knobs},
    };
  };

  const CmpConfig cfg = default_config(cores);
  std::vector<SweepJob> matrix;
  for (const auto& [scale, ws] : scales) {
    for (const auto& [family, spec] : family_specs(ws)) {
      for (const std::string& sched : scheds) {
        matrix.push_back({.app = spec,
                          .sched = sched,
                          .tag = scale + "/" + family,
                          .config = cfg});
      }
    }
  }
  SweepOptions opt;
  opt.workers = workers;
  const SweepResults res = run_sweep(std::move(matrix), opt);

  Table t({"scale", "family", "sched", "cycles", "mpki", "vs_pdf",
           "steals"});
  // geo[sched][scale] accumulates log slowdown / log mpki ratio vs pdf.
  Table g({"sched", "scale", "geomean_vs_pdf", "geomean_mpki_vs_pdf"});
  for (const std::string& sched : scheds) {
    for (const auto& [scale, ws] : scales) {
      double log_cyc = 0, log_mpki = 0;
      int n = 0;
      for (const auto& [family, spec] : family_specs(ws)) {
        const std::string tag = scale + "/" + family;
        const SweepRecord& pdf = *res.find(spec, "pdf", cores, tag);
        const SweepRecord& r = *res.find(spec, sched, cores, tag);
        const double vs = static_cast<double>(r.result.cycles) /
                          static_cast<double>(pdf.result.cycles);
        const double mr = r.result.l2_misses_per_kilo_instr() /
                          pdf.result.l2_misses_per_kilo_instr();
        log_cyc += std::log(vs);
        log_mpki += std::log(mr);
        ++n;
        t.add_row({scale, family, sched, Table::num(r.result.cycles),
                   Table::num(r.result.l2_misses_per_kilo_instr(), 3),
                   Table::num(vs, 3), Table::num(r.result.steals)});
      }
      g.add_row({sched, scale, Table::num(std::exp(log_cyc / n), 3),
                 Table::num(std::exp(log_mpki / n), 3)});
    }
  }
  std::cout << "=== Scheduler-zoo ablation (" << cores
            << " cores; fit ws=" << fit_ws << "B, spill ws=" << spill_ws
            << "B, share=" << share << ") ===\n";
  t.emit(csv);
  std::cout << "\n=== Geomean vs PDF over the five families ===\n";
  g.emit();
  return 0;
}
