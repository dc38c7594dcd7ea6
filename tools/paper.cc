// `cachesched_cli paper`: regenerates every figure and table of Chen et
// al., SPAA 2007 that this repo reproduces, plus its three ablations.
//
//   cachesched_cli paper [--only=fig2,table_summary,...] [--jobs=N]
//                        [--csv=DIR]
//
// Artifacts run in the order of kArtifacts (bottom of this file) and
// print their tables to stdout. --only picks a subset, --jobs sets the
// sweep engine's worker count (default: every host core; stdout is
// byte-identical for any value) and --csv=DIR, an existing directory,
// also writes each table as DIR/<artifact>[_<part>].csv. Every flag is
// validated before the first artifact runs.
//
// Every experiment parameter is a named constant at the scale, core
// counts and axis values the figures use. Other points run through
// `cachesched_cli sweep` (--scales, --cores, --task-ws, --l2-hit,
// --mem-latency, --banks, --dispatch).
//
// bench/golden/paper.txt pins the stdout of every artifact except
// table_profiler, whose seconds/speedup cells are wall-clock.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "coarsen/coarsen.h"
#include "exp/sweep.h"
#include "harness/apps.h"
#include "profile/setassoc_profiler.h"
#include "profile/ws_profiler.h"
#include "simarch/energy.h"
#include "util/cli.h"
#include "util/table.h"
#include "workloads/mergesort.h"

namespace cachesched {
namespace {

// Inputs and caches shrink by the same factor (harness/apps.h), so the
// input/cache ratios that shape the miss curves stay the paper's. The
// figures and table_summary run at kScale, table_energy and
// ablation_scheduler at kSmallScale.
constexpr double kScale = 0.125;
constexpr double kSmallScale = 0.0625;

// Figures 4 and 5 vary one timing field of this default configuration.
constexpr int kAxisCores = 16;
constexpr const char* kAxisApps[] = {"hashjoin", "mergesort"};

// The generator-family ablations: per-task working sets and knobs.
constexpr uint64_t kFitWs = 32 * 1024;     // P tasks' working sets fit L2
constexpr uint64_t kSpillWs = 256 * 1024;  // ... and spill out of it
constexpr double kGenShare = 0.25;
constexpr uint64_t kGenSeed = 7;
constexpr int kGenCores = 16;

/// What every artifact receives from the command line.
struct Paper {
  int jobs = 0;         // sweep workers; 0 = every host core
  std::string csv_dir;  // empty = no CSV files

  /// DIR/<name>.csv, or "" (stdout only) without --csv.
  std::string csv(const std::string& name) const {
    if (csv_dir.empty()) return "";
    return (std::filesystem::path(csv_dir) / (name + ".csv")).string();
  }

  SweepOptions sweep() const {
    SweepOptions o;
    o.workers = jobs;
    return o;
  }
};

double ratio(uint64_t num, uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}

// Field by field, here and in sweep_job: GCC's -Wmissing-field-initializers
// flags designated initializers that leave fields out.
AppOptions app_options(double scale, uint64_t mergesort_task_ws = 0) {
  AppOptions opt;
  opt.scale = scale;
  opt.mergesort_task_ws = mergesort_task_ws;
  return opt;
}

SweepJob sweep_job(const std::string& app, const std::string& sched,
                   const std::string& tag, const CmpConfig& cfg,
                   const AppOptions& opt = AppOptions()) {
  SweepJob job;
  job.app = app;
  job.sched = sched;
  job.tag = tag;
  job.config = cfg;
  job.opt = opt;
  return job;
}

// ------------------------------------------------------------ Figure 1

// Refs/misses per sort-group size (the merge level structure).
struct LevelStats {
  uint64_t refs = 0;
  uint64_t misses = 0;
};

std::map<uint64_t, LevelStats> per_level(const TaskDag& dag,
                                         const SimResult& r) {
  std::map<uint64_t, LevelStats> levels;  // key: group param (elements)
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    GroupId g = dag.task(t).group;
    // Walk up to the nearest *sort* group (site 1).
    while (g != kNoGroup && dag.group(g).line != 1) g = dag.group(g).parent;
    if (g == kNoGroup) continue;
    auto& l = levels[static_cast<uint64_t>(dag.group(g).param)];
    l.refs += r.task_refs[t];
    l.misses += r.task_l2_misses[t];
  }
  return levels;
}

char glyph(double miss_ratio) {
  if (miss_ratio > 0.6) return '#';
  if (miss_ratio < 0.25) return '.';
  return '~';
}

// Figure 1 (§3), "picturing the misses": per-merge-level L2 behaviour of
// Mergesort sorting C_P bytes (the shared L2 capacity) on 8 cores. With P
// cores PDF turns the top log2(P) merge levels from misses into hits; WS
// misses on all of them (each core sorts its own sub-array, so the
// aggregate working set is twice the L2). Needs per-task statistics,
// which sweep jobs do not collect, so it simulates directly.
void fig1(const Paper&) {
  constexpr int kCores = 8;
  const CmpConfig cfg = default_config(kCores).scaled(kScale);
  MergesortParams p;
  p.num_elems = cfg.l2_bytes / p.elem_bytes;
  p.l2_bytes = cfg.l2_bytes;
  p.line_bytes = cfg.line_bytes;
  p.task_ws_bytes = std::max<uint64_t>(cfg.l2_bytes / (2 * kCores), 4096);
  const Workload w = build_mergesort(p);

  std::cout << "Figure 1: Mergesort of C_P = " << cfg.l2_bytes / 1024
            << "KB on " << kCores << " cores (" << w.params << ")\n"
            << "level rows: '#' mostly L2 misses, '.' mostly hits, '~' mixed\n";
  for (const char* sched : {"ws", "pdf"}) {
    CmpSimulator sim(cfg);
    sim.set_collect_task_stats(true);
    auto s = make_scheduler(sched);
    const SimResult r = sim.run(w.dag, *s);
    std::cout << "\n--- " << sched << " (total L2 misses: " << r.l2_misses
              << ") ---\n";
    Table t({"merge_output_elems", "refs", "misses", "miss_ratio", "picture"});
    for (const auto& [elems, l] : per_level(w.dag, r)) {
      const double miss_ratio = l.refs ? ratio(l.misses, l.refs) : 0.0;
      t.add_row({Table::num(elems), Table::num(l.refs), Table::num(l.misses),
                 Table::num(miss_ratio, 3),
                 std::string(12, glyph(miss_ratio))});
    }
    t.emit();
  }
  std::cout << "\nExpected (paper): PDF's top log2(P) levels flip from"
               " misses to hits relative to WS.\n";
}

// ------------------------------------------------------------ Figure 2

// Figure 2 (§5.1): PDF vs WS on the Table 2 configurations, speedup over
// sequential and L2 misses per 1000 instructions, for LU, Hash Join and
// Mergesort. Like the paper, LU stops at 16 cores (its input is smaller
// than the 32-core L2).
void fig2(const Paper& p) {
  const std::vector<std::string> kApps = {"lu", "hashjoin", "mergesort"};
  const std::vector<int> kCores = {1, 2, 4, 8, 16, 32};
  SweepSpec spec;
  spec.apps = kApps;
  spec.scheds = {"pdf", "ws"};
  spec.core_counts = kCores;
  spec.scales = {kScale};
  spec.sequential_baseline = true;
  spec.skip = [](const std::string& a, const CmpConfig& cfg) {
    return a == "lu" && cfg.cores > 16;
  };
  const SweepResults res = run_sweep(spec, p.sweep());

  for (const std::string& app : kApps) {
    Table t({"cores", "sched", "cycles", "speedup", "L2miss/1Kinstr",
             "pdf_miss_reduction%", "pdf_vs_ws_speedup", "bw_util%",
             "steals"});
    std::string params;
    for (int c : kCores) {
      const SweepRecord* seq = res.find(app, kSequentialSched, c);
      const SweepRecord* pdf = res.find(app, "pdf", c);
      const SweepRecord* ws = res.find(app, "ws", c);
      if (!seq || !pdf || !ws) continue;  // skipped combination (LU > 16)
      params = pdf->params;
      const double pdf_mpki = pdf->result.l2_misses_per_kilo_instr();
      const double ws_mpki = ws->result.l2_misses_per_kilo_instr();
      const double red =
          ws_mpki > 0 ? 100.0 * (ws_mpki - pdf_mpki) / ws_mpki : 0.0;
      const double rel =
          pdf->result.cycles ? ratio(ws->result.cycles, pdf->result.cycles)
                             : 0.0;
      for (const SweepRecord* rec : {pdf, ws}) {
        const SimResult& r = rec->result;
        const bool is_pdf = rec == pdf;
        t.add_row({Table::num(static_cast<int64_t>(c)), r.scheduler,
                   Table::num(r.cycles),
                   Table::num(r.speedup_over(seq->result), 2),
                   Table::num(r.l2_misses_per_kilo_instr(), 3),
                   is_pdf ? Table::num(red, 1) : "-",
                   is_pdf ? Table::num(rel, 2) : "-",
                   Table::num(100.0 * r.mem_bandwidth_utilization(), 1),
                   Table::num(r.steals)});
      }
    }
    std::cout << "\n=== Figure 2: " << app << " (" << params << ") ===\n";
    t.emit(p.csv("fig2_" + app));
  }
}

// ------------------------------------------------------------ Figure 3

// Figure 3 (§5.2): Hash Join and Mergesort across the fourteen 45 nm
// single-technology design points of Table 3 (1 core / 48 MB L2 down to
// 26 cores / 1 MB). Time falls steeply up to ~10 cores, then flattens;
// Hash Join bottoms out near 18 cores (bandwidth-bound) while Mergesort
// keeps improving. PDF wins at every design point.
void fig3(const Paper& p) {
  SweepSpec spec;
  spec.apps = {"hashjoin", "mergesort"};
  spec.scheds = {"pdf", "ws"};
  spec.tech = "45nm";
  spec.core_counts.clear();  // all fourteen Table 3 design points
  spec.scales = {kScale};
  const SweepResults res = run_sweep(spec, p.sweep());

  for (const std::string& app : spec.apps) {
    Table t({"cores", "L2_KB", "pdf_cycles", "ws_cycles", "pdf_vs_ws",
             "pdf_bw%", "ws_bw%"});
    std::string params;
    uint64_t best_pdf = UINT64_MAX, best_ws = UINT64_MAX;
    int best_pdf_cores = 0, best_ws_cores = 0;
    for (const CmpConfig& base : single_tech_45nm_configs()) {
      const SweepRecord* pdf = res.find(app, "pdf", base.cores);
      const SweepRecord* ws = res.find(app, "ws", base.cores);
      if (!pdf || !ws) continue;
      params = pdf->params;
      if (pdf->result.cycles < best_pdf) {
        best_pdf = pdf->result.cycles;
        best_pdf_cores = base.cores;
      }
      if (ws->result.cycles < best_ws) {
        best_ws = ws->result.cycles;
        best_ws_cores = base.cores;
      }
      t.add_row({Table::num(static_cast<int64_t>(base.cores)),
                 Table::num(pdf->job.config.l2_bytes / 1024),
                 Table::num(pdf->result.cycles), Table::num(ws->result.cycles),
                 Table::num(ratio(ws->result.cycles, pdf->result.cycles), 3),
                 Table::num(100.0 * pdf->result.mem_bandwidth_utilization(),
                            1),
                 Table::num(100.0 * ws->result.mem_bandwidth_utilization(),
                            1)});
    }
    std::cout << "\n=== Figure 3: " << app << " on 45nm design points ("
              << params << ") ===\n";
    t.emit(p.csv("fig3_" + app));
    std::cout << "best pdf: " << best_pdf_cores << " cores (" << best_pdf
              << " cycles); best ws: " << best_ws_cores << " cores ("
              << best_ws << " cycles)\n";
  }
}

// ------------------------------------------------------- Figures 4 and 5

/// One job per (axis value, scheduler) on the 16-core default config with
/// `field` set to the value, tagged <label><value>. pdf precedes ws, so
/// res[2*i] and res[2*i+1] are point i. Only a timing field varies, so the
/// sweep builds the app once for every point (the WorkloadBuilder
/// contract: builders never read timing fields).
std::vector<SweepJob> timing_axis(const std::string& app, const char* label,
                                  int CmpConfig::*field,
                                  const std::vector<int64_t>& values) {
  std::vector<SweepJob> jobs;
  for (int64_t v : values) {
    CmpConfig cfg = default_config(kAxisCores).scaled(kScale);
    cfg.*field = static_cast<int>(v);
    const std::string tag = label + std::to_string(v);
    cfg.name += "-" + tag;
    for (const char* sched : {"pdf", "ws"}) {
      jobs.push_back(sweep_job(app, sched, tag, cfg, app_options(kScale)));
    }
  }
  return jobs;
}

const char* verdict(bool pdf_wins) {
  return pdf_wins ? "(PDF still wins)" : "(WS wins)";
}

// Figure 4 (§5.3): L2 hit times of 7 cycles (a fast distributed L2's local
// bank) and 19 (the monolithic L2 of Table 2). For Hash Join and Mergesort
// L2 misses dominate, so PDF on the slow L2 still beats WS on the fast one.
void fig4(const Paper& p) {
  const std::vector<int64_t> kHits = {7, 19};
  for (const char* app : kAxisApps) {
    std::vector<SweepJob> jobs =
        timing_axis(app, "hit", &CmpConfig::l2_hit_cycles, kHits);
    // The same headline with an explicit distributed-L2 model: WS on a
    // banked S-NUCA-style L2 (7-cycle local bank + 1 cycle/hop) vs PDF on
    // the monolithic 19-cycle L2.
    CmpConfig banked = default_config(kAxisCores).scaled(kScale);
    banked.l2_banks = kAxisCores;
    banked.name += "-banked";
    jobs.push_back(sweep_job(app, "ws", "banked", banked, app_options(kScale)));
    const SweepResults res = run_sweep(std::move(jobs), p.sweep());

    Table t({"l2_hit_cycles", "pdf_cycles", "ws_cycles", "pdf_vs_ws"});
    uint64_t pdf_slowest = 0, ws_fastest = UINT64_MAX;
    for (size_t i = 0; i < kHits.size(); ++i) {
      const uint64_t pdf_cycles = res[2 * i].result.cycles;
      const uint64_t ws_cycles = res[2 * i + 1].result.cycles;
      pdf_slowest = std::max(pdf_slowest, pdf_cycles);
      ws_fastest = std::min(ws_fastest, ws_cycles);
      t.add_row({Table::num(kHits[i]), Table::num(pdf_cycles),
                 Table::num(ws_cycles),
                 Table::num(ratio(ws_cycles, pdf_cycles), 3)});
    }
    std::cout << "\n=== Figure 4: " << app << ", " << kAxisCores
              << "-core default, varying L2 hit time ===\n";
    t.emit(p.csv(std::string("fig4_") + app));
    std::cout << "PDF on slowest L2 vs WS on fastest L2: "
              << Table::num(ratio(ws_fastest, pdf_slowest), 3) << "x "
              << verdict(pdf_slowest <= ws_fastest) << "\n";
    const uint64_t ws_banked =
        res.find(app, "ws", kAxisCores, "banked")->result.cycles;
    // PDF on the monolithic L2 is the hit19 point: the 16-core default
    // config already has a 19-cycle L2 (Table 2), so a separate job would
    // differ from it only in its tag and config name, which no simulated
    // cycle depends on.
    const uint64_t pdf_mono =
        res.find(app, "pdf", kAxisCores, "hit19")->result.cycles;
    std::cout << "PDF on monolithic 19-cycle L2 vs WS on banked distributed "
                 "L2: "
              << Table::num(ratio(ws_banked, pdf_mono), 3) << "x "
              << verdict(pdf_mono <= ws_banked) << "\n";
  }
}

// Figure 5 (§5.3): main-memory latency from 100 to 1100 cycles. PDF's
// advantage persists across the range (paper: 1.21-1.62x for Hash Join,
// 1.03-1.29x for Mergesort).
void fig5(const Paper& p) {
  const std::vector<int64_t> kLatencies = {100, 300, 500, 700, 900, 1100};
  for (const char* app : kAxisApps) {
    std::vector<SweepJob> jobs =
        timing_axis(app, "lat", &CmpConfig::mem_latency_cycles, kLatencies);
    const SweepResults res = run_sweep(std::move(jobs), p.sweep());
    Table t({"mem_latency", "pdf_cycles", "ws_cycles", "pdf_vs_ws", "pdf_bw%",
             "ws_bw%"});
    for (size_t i = 0; i < kLatencies.size(); ++i) {
      const SimResult& pdf = res[2 * i].result;
      const SimResult& ws = res[2 * i + 1].result;
      t.add_row({Table::num(kLatencies[i]), Table::num(pdf.cycles),
                 Table::num(ws.cycles),
                 Table::num(ratio(ws.cycles, pdf.cycles), 3),
                 Table::num(100.0 * pdf.mem_bandwidth_utilization(), 1),
                 Table::num(100.0 * ws.mem_bandwidth_utilization(), 1)});
    }
    std::cout << "\n=== Figure 5: " << app << ", " << kAxisCores
              << "-core default, varying memory latency ===\n";
    t.emit(p.csv(std::string("fig5_") + app));
  }
}

// ------------------------------------------------------------ Figure 6

// Figure 6 (§5.4): Mergesort task granularity on the 32- and 16-core
// default configs, task working sets from 8 MB down to 32 KB (scaled).
// WS's misses stay flat; PDF's fall as tasks get finer, so its advantage
// grows with finer grain.
void fig6(const Paper& p) {
  const std::vector<int> kCores = {32, 16};
  std::vector<uint64_t> ws_sizes;
  for (uint64_t s = 8ull << 20; s >= 32ull << 10; s /= 2) {
    ws_sizes.push_back(
        std::max<uint64_t>(static_cast<uint64_t>(s * kScale), 2048));
  }
  auto tag = [](uint64_t ws) { return "task_ws" + std::to_string(ws); };
  std::vector<SweepJob> jobs;
  for (int cores : kCores) {
    const CmpConfig cfg = default_config(cores).scaled(kScale);
    for (uint64_t ws : ws_sizes) {
      const AppOptions opt = app_options(kScale, ws);
      for (const char* sched : {"pdf", "ws"}) {
        jobs.push_back(sweep_job("mergesort", sched, tag(ws), cfg, opt));
      }
    }
  }
  const SweepResults res = run_sweep(std::move(jobs), p.sweep());

  for (int cores : kCores) {
    Table t({"task_ws_KB", "pdf_mpki", "ws_mpki", "pdf_cycles", "ws_cycles",
             "pdf_vs_ws"});
    uint64_t best_pdf = UINT64_MAX, best_ws = UINT64_MAX;
    for (uint64_t ws_bytes : ws_sizes) {
      const SimResult& pdf =
          res.find("mergesort", "pdf", cores, tag(ws_bytes))->result;
      const SimResult& ws =
          res.find("mergesort", "ws", cores, tag(ws_bytes))->result;
      best_pdf = std::min(best_pdf, pdf.cycles);
      best_ws = std::min(best_ws, ws.cycles);
      t.add_row({Table::num(ws_bytes / 1024),
                 Table::num(pdf.l2_misses_per_kilo_instr(), 3),
                 Table::num(ws.l2_misses_per_kilo_instr(), 3),
                 Table::num(pdf.cycles), Table::num(ws.cycles),
                 Table::num(ratio(ws.cycles, pdf.cycles), 3)});
    }
    std::cout << "\n=== Figure 6: Mergesort task granularity sweep, " << cores
              << "-core default config ===\n";
    t.emit(p.csv("fig6_" + std::to_string(cores) + "c"));
    std::cout << "best-vs-best (each scheduler at its optimal task size): "
              << Table::num(ratio(best_ws, best_pdf), 3) << "x PDF advantage\n";
  }
}

// ------------------------------------------------------------ Figure 8

// Figure 8 (§6.2): automatic task-grain selection for Mergesort under PDF
// on the 32/16/8-core default configs, three schemes:
//  * previous: the manual selection of §5 (task ws = L2 / (2 * cores));
//  * cache/(2*cores) dag: profile a finest-grain run with the one-pass
//    working-set profiler, apply the §6.2 stop criterion and simulate the
//    coarsened DAG (each selected group collapsed into one serial task);
//  * cache/(2*cores) actual: regenerate the program at the Figure-7(b)
//    thresholds the selection produced.
// Paper: "actual" is within 5% of the best everywhere. Profiling and
// coarsening stay serial (they are the subject of the figure); the
// simulations run on the sweep engine.
void fig8(const Paper& p) {
  const std::vector<int> kCores = {32, 16, 8};
  std::vector<SweepJob> matrix;
  std::vector<uint64_t> thresholds;  // actual task_ws per core count
  for (int cores : kCores) {
    const CmpConfig cfg = default_config(cores).scaled(kScale);
    const AppOptions manual = app_options(kScale);
    matrix.push_back(sweep_job("mergesort", "pdf", "previous", cfg, manual));

    // Programs are written fine-grained (32 KB tasks at full size); the
    // profiler suggests coarsening.
    const uint64_t fine_ws = static_cast<uint64_t>(32.0 * 1024 * kScale);
    const AppOptions fine =
        app_options(kScale, std::max<uint64_t>(fine_ws, 2048));
    const Workload w_fine = make_app("mergesort", cfg, fine);
    WorkingSetProfiler prof({cfg.l2_bytes}, cfg.line_bytes);
    prof.run(w_fine.dag);
    CoarsenParams cp;
    cp.cache_bytes = cfg.l2_bytes;
    cp.num_cores = cfg.cores;
    const CoarsenResult sel = select_task_granularity(w_fine.dag, prof, cp);

    Workload w_dag;
    w_dag.name = "mergesort-coarsened";
    w_dag.dag = coarsen_dag(w_fine.dag, sel.stopping_groups);
    SweepJob dag_job = sweep_job("mergesort", "pdf", "dag", cfg, fine);
    dag_job.factory = [w_dag](const CmpConfig&, const AppOptions&) {
      return w_dag;
    };
    matrix.push_back(std::move(dag_job));

    // The sort call site's threshold T is in elements; its per-task
    // working set is 2 * T * elem_bytes (§5.4).
    const int64_t thr =
        sel.table.threshold(cfg.l2_bytes, cfg.cores, "workloads/mergesort.cc",
                            /*kSortSite=*/1);
    const uint64_t actual_ws =
        thr > 0 ? static_cast<uint64_t>(thr) * 2 * 4 : fine.mergesort_task_ws;
    thresholds.push_back(actual_ws);
    const AppOptions actual = app_options(kScale, actual_ws);
    matrix.push_back(sweep_job("mergesort", "pdf", "actual", cfg, actual));
  }
  const SweepResults res = run_sweep(std::move(matrix), p.sweep());

  Table t({"cores", "scheme", "cycles", "normalized_to_best", "threshold_KB"});
  for (size_t i = 0; i < kCores.size(); ++i) {
    auto cycles = [&](const char* tag) {
      return res.find("mergesort", "pdf", kCores[i], tag)->result.cycles;
    };
    const uint64_t cyc_prev = cycles("previous");
    const uint64_t cyc_dag = cycles("dag");
    const uint64_t cyc_actual = cycles("actual");
    const uint64_t best = std::min({cyc_prev, cyc_dag, cyc_actual});
    auto row = [&](const char* scheme, uint64_t cyc) {
      t.add_row({Table::num(static_cast<int64_t>(kCores[i])), scheme,
                 Table::num(cyc), Table::num(ratio(cyc, best), 4),
                 Table::num(thresholds[i] / 1024)});
    };
    row("previous", cyc_prev);
    row("cache/(2*cores) dag", cyc_dag);
    row("cache/(2*cores) actual", cyc_actual);
  }
  std::cout << "\n=== Figure 8: automatic task-grain selection (Mergesort, "
               "PDF) ===\n";
  t.emit(p.csv("fig8"));
}

// -------------------------------------------------------------- Tables

// Tables 1-3 (§4.1): the encoded CMP configurations at full size, so runs
// are self-documenting and the values can be diffed against the paper.
void table_configs(const Paper&) {
  auto print = [](const std::vector<CmpConfig>& configs, const char* title) {
    Table t({"cores", "L2_KB", "assoc", "L2_hit_cyc", "L1_KB", "line_B",
             "mem_lat", "mem_svc"});
    for (const CmpConfig& c : configs) {
      t.add_row({Table::num(static_cast<int64_t>(c.cores)),
                 Table::num(c.l2_bytes / 1024),
                 Table::num(static_cast<int64_t>(c.l2_ways)),
                 Table::num(static_cast<int64_t>(c.l2_hit_cycles)),
                 Table::num(c.l1_bytes / 1024),
                 Table::num(static_cast<int64_t>(c.line_bytes)),
                 Table::num(static_cast<int64_t>(c.mem_latency_cycles)),
                 Table::num(static_cast<int64_t>(c.mem_service_cycles))});
    }
    std::cout << "\n=== " << title << " ===\n";
    t.emit();
  };
  print(default_configs(), "Table 2: default (scaling technology) configs");
  print(single_tech_45nm_configs(), "Table 3: 45nm single-technology configs");
}

// §2.1 energy: an off-chip miss costs ~35x an L2 hit, so PDF's miss
// reductions save dynamic energy; and constructive sharing shrinks the
// aggregate working set, so L2 segments can be powered down. Reports
// dynamic energy under PDF vs WS, and leakage with segments gated to
// PDF's resident working set (from the per-task working sets, which need
// the built DAG, so this simulates directly).
void table_energy(const Paper& p) {
  const std::vector<int64_t> kCores = {8, 16, 32};
  const EnergyParams ep;
  Table t({"app", "cores", "pdf_dyn_E", "ws_dyn_E", "dyn_saving%",
           "pdf_total_E", "ws_total_E", "powered_MB"});
  for (const char* app : {"mergesort", "hashjoin", "lu"}) {
    for (int64_t c : kCores) {
      if (std::string(app) == "lu" && c > 16) continue;
      const CmpConfig cfg =
          default_config(static_cast<int>(c)).scaled(kSmallScale);
      const Workload w = make_app(app, cfg, app_options(kSmallScale));
      const SimResult pdf = simulate_app(w, cfg, "pdf");
      const SimResult ws = simulate_app(w, cfg, "ws");

      // PDF keeps resident about the largest task working set times the
      // core count (its frontier tracks the sequential window).
      uint64_t max_task_ws = 0;
      for (uint64_t b : task_working_set_bytes(w.dag, cfg.line_bytes)) {
        max_task_ws = std::max(max_task_ws, b);
      }
      const uint64_t pdf_resident = powered_segments_bytes(
          max_task_ws * static_cast<uint64_t>(cfg.cores) * 2, cfg,
          std::max<uint64_t>(cfg.l2_bytes / 8, 64 * 1024));

      const EnergyBreakdown e_pdf =
          memory_system_energy(pdf, cfg, ep, pdf_resident);
      const EnergyBreakdown e_ws = memory_system_energy(ws, cfg, ep);
      const double saving = 100.0 * (e_ws.dynamic_mem - e_pdf.dynamic_mem) /
                            e_ws.dynamic_mem;
      t.add_row({app, Table::num(c), Table::num(e_pdf.dynamic_mem / 1e6, 1),
                 Table::num(e_ws.dynamic_mem / 1e6, 1),
                 Table::num(saving, 1), Table::num(e_pdf.total() / 1e6, 1),
                 Table::num(e_ws.total() / 1e6, 1),
                 Table::num(pdf_resident / (1024.0 * 1024.0), 2)});
    }
  }
  std::cout << "\n=== Section 2.1: memory-system energy, PDF vs WS "
               "(relative units, 1 = one L2 hit) ===\n";
  t.emit(p.csv("table_energy"));
  std::cout << "pdf_total_E gates L2 segments down to PDF's resident working "
               "set; ws_total_E keeps the full L2 powered.\n";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// §6.1 runtime comparison: the one-pass LruTree working-set profiler vs
// the multi-pass SetAssoc baseline, profiling every task group of a
// Mergesort trace at four candidate cache sizes. Paper: 253 vs 13.4
// minutes (18x) on a 32M-element sort, because SetAssoc revisits each
// reference once per enclosing group level; the gap grows with problem
// size. Also checks the two agree exactly (SetAssoc run fully
// associative). The timings are wall-clock, so this is the one artifact
// whose output is not reproducible byte for byte.
void table_profiler(const Paper& p) {
  constexpr double kProfilerScale = 0.015625;
  const CmpConfig cfg = default_config(8).scaled(kProfilerScale);
  // 64 KB task working sets at full size, floored at 2 KB.
  const uint64_t task_ws = static_cast<uint64_t>(64.0 * 1024 * kProfilerScale);
  const AppOptions opt =
      app_options(kProfilerScale, std::max<uint64_t>(task_ws, 2048));
  const Workload w = make_app("mergesort", cfg, opt);
  const std::vector<uint64_t> sizes = {cfg.l2_bytes / 8, cfg.l2_bytes / 4,
                                       cfg.l2_bytes / 2, cfg.l2_bytes};
  std::cout << "Profiling " << w.dag.num_tasks() << " tasks, "
            << w.dag.num_groups() << " task groups, " << w.dag.total_refs()
            << " references, " << sizes.size() << " cache sizes ("
            << w.params << ")\n";

  // LruTree: one pass, then queries for every group at every size.
  auto t0 = std::chrono::steady_clock::now();
  WorkingSetProfiler lru(sizes, cfg.line_bytes);
  lru.run(w.dag);
  std::vector<std::vector<uint64_t>> lru_misses(w.dag.num_groups());
  for (GroupId g = 0; g < w.dag.num_groups(); ++g) {
    const TaskGroup& grp = w.dag.group(g);
    for (size_t s = 0; s < sizes.size(); ++s) {
      lru_misses[g].push_back(
          lru.group_misses(grp.first_task, grp.last_task, s));
    }
  }
  const double lru_sec = seconds_since(t0);

  // SetAssoc, fully associative: one cold replay per (group, size).
  t0 = std::chrono::steady_clock::now();
  SetAssocProfiler sa(cfg.line_bytes);
  const auto sa_misses = sa.profile_all_groups(w.dag, sizes);
  const double sa_sec = seconds_since(t0);

  uint64_t mismatches = 0;
  double revisit = 0;
  for (GroupId g = 0; g < w.dag.num_groups(); ++g) {
    const TaskGroup& grp = w.dag.group(g);
    for (size_t s = 0; s < sizes.size(); ++s) {
      if (lru_misses[g][s] != sa_misses[g][s]) ++mismatches;
    }
    revisit += static_cast<double>(
        lru.group_refs(grp.first_task, grp.last_task));
  }
  revisit = revisit * static_cast<double>(sizes.size()) /
            static_cast<double>(w.dag.total_refs());

  Table t({"algorithm", "passes_over_trace", "seconds", "speedup"});
  t.add_row({"SetAssoc (paper baseline)", Table::num(revisit, 1),
             Table::num(sa_sec, 2), "1.0"});
  t.add_row({"LruTree (one-pass)", "1.0", Table::num(lru_sec, 2),
             Table::num(sa_sec / lru_sec, 1)});
  std::cout << "\n=== Section 6.1: working-set profiler comparison ===\n";
  t.emit(p.csv("table_profiler"));
  std::cout << "result agreement: "
            << (mismatches == 0 ? "exact (0 mismatching group/size cells)"
                                : Table::num(mismatches) + " mismatching cells")
            << "\n";
  if (mismatches != 0) {
    throw std::runtime_error("table_profiler: the profilers disagree");
  }
}

// §5.1/§5.5 summary over the whole benchmark suite on the default
// configs. Hash Join and Mergesort (non-trivial working sets): PDF wins,
// up to 1.3-1.6x. LU and Matrix Multiply (small working sets): PDF
// matches WS in time but still cuts misses. Quicksort and Heat:
// in between, PDF >= WS.
void table_summary(const Paper& p) {
  const std::vector<int> kCores = {8, 16, 32};
  SweepSpec spec;
  spec.apps = known_apps();
  spec.scheds = {"pdf", "ws"};
  spec.core_counts = kCores;
  spec.scales = {kScale};
  spec.skip = [](const std::string& app, const CmpConfig& cfg) {
    return app == "lu" && cfg.cores > 16;
  };
  const SweepResults res = run_sweep(spec, p.sweep());

  Table t({"app", "cores", "pdf_mpki", "ws_mpki", "pdf_miss_reduction%",
           "pdf_vs_ws_speedup", "ws_bw%"});
  for (const std::string& app : spec.apps) {
    for (int c : kCores) {
      const SweepRecord* pdf = res.find(app, "pdf", c);
      const SweepRecord* ws = res.find(app, "ws", c);
      if (!pdf || !ws) continue;  // skipped combination (LU > 16)
      const double red =
          ws->result.l2_misses
              ? 100.0 * (static_cast<double>(ws->result.l2_misses) -
                         static_cast<double>(pdf->result.l2_misses)) /
                    static_cast<double>(ws->result.l2_misses)
              : 0.0;
      t.add_row({app, Table::num(static_cast<int64_t>(c)),
                 Table::num(pdf->result.l2_misses_per_kilo_instr(), 3),
                 Table::num(ws->result.l2_misses_per_kilo_instr(), 3),
                 Table::num(red, 1),
                 Table::num(ratio(ws->result.cycles, pdf->result.cycles), 3),
                 Table::num(100.0 * ws->result.mem_bandwidth_utilization(),
                            1)});
    }
  }
  std::cout << "\n=== Sections 5.1/5.5: benchmark summary (PDF vs WS) ===\n";
  t.emit(p.csv("table_summary"));
}

// ----------------------------------------------------------- Ablations

// Two ablations of the headline result on the 16-core default config:
//  1. policy: PDF vs WS vs a centralized greedy FIFO, which tracks
//     neither sequential order nor per-core locality; if PDF's win came
//     from "any central queue", FIFO would match it;
//  2. dispatch overhead: PDF's central queue is charged the same per
//     dispatch as WS's deques; sweeping the cost shows the conclusion is
//     robust (the paper's tasks are ~10^5 instructions).
void ablation_scheduler(const Paper& p) {
  constexpr int kCores = 16;
  const std::vector<uint32_t> kDispatch = {0, 100, 400, 1000, 4000};
  const CmpConfig cfg = default_config(kCores).scaled(kSmallScale);
  const AppOptions opt = app_options(kSmallScale);

  std::vector<SweepJob> matrix;
  for (const char* app : {"mergesort", "hashjoin"}) {
    for (const char* sched : {"pdf", "ws", "fifo"}) {
      matrix.push_back(sweep_job(app, sched, "policy", cfg, opt));
    }
  }
  for (uint32_t d : kDispatch) {
    CmpConfig c2 = cfg;
    c2.task_dispatch_cycles = d;
    const std::string tag = "dispatch" + std::to_string(d);
    for (const char* sched : {"pdf", "ws"}) {
      matrix.push_back(sweep_job("mergesort", sched, tag, c2, opt));
    }
  }
  const SweepResults res = run_sweep(std::move(matrix), p.sweep());

  Table policy({"app", "sched", "cycles", "mpki", "vs_pdf"});
  for (const char* app : {"mergesort", "hashjoin"}) {
    const uint64_t pdf_cycles =
        res.find(app, "pdf", kCores, "policy")->result.cycles;
    for (const char* sched : {"pdf", "ws", "fifo"}) {
      const SimResult& r = res.find(app, sched, kCores, "policy")->result;
      policy.add_row({app, sched, Table::num(r.cycles),
                      Table::num(r.l2_misses_per_kilo_instr(), 3),
                      Table::num(ratio(r.cycles, pdf_cycles), 3)});
    }
  }
  std::cout << "\n=== Ablation 1: scheduling policy (" << kCores
            << " cores) ===\n";
  policy.emit(p.csv("ablation_scheduler_policy"));

  Table dispatch({"dispatch_cycles", "pdf_cycles", "ws_cycles", "pdf_vs_ws"});
  for (uint32_t d : kDispatch) {
    const std::string tag = "dispatch" + std::to_string(d);
    const SimResult& pdf = res.find("mergesort", "pdf", kCores, tag)->result;
    const SimResult& ws = res.find("mergesort", "ws", kCores, tag)->result;
    dispatch.add_row({Table::num(static_cast<int64_t>(d)),
                      Table::num(pdf.cycles), Table::num(ws.cycles),
                      Table::num(ratio(ws.cycles, pdf.cycles), 3)});
  }
  std::cout << "\n=== Ablation 2: task dispatch overhead (mergesort) ===\n";
  dispatch.emit(p.csv("ablation_scheduler_dispatch"));
}

/// One representative src/gen spec per family, comparable in total work,
/// as (family, spec) pairs at per-task working set `ws`.
std::vector<std::pair<std::string, std::string>> family_specs(uint64_t ws) {
  const std::string knobs = ",ws=" + std::to_string(ws) +
                            ",share=" + std::to_string(kGenShare) +
                            ",seed=" + std::to_string(kGenSeed);
  return {
      {"dnc", "dnc:depth=8,fanout=2" + knobs},
      {"forkjoin", "forkjoin:stages=8,width=32,reuse=loop" + knobs},
      {"layered", "layered:layers=12,width=24,p=0.2,reuse=loop" + knobs},
      {"pipeline", "pipeline:stages=8,items=32,reuse=loop" + knobs},
      {"stencil", "stencil:tiles=32,steps=8,reuse=loop" + knobs},
  };
}

// Does PDF's constructive sharing beat WS's capacity thrashing outside
// the seven hand-written benchmarks? PDF, WS and FIFO on one spilling
// spec of each of the five generator families.
void ablation_dagfamily(const Paper& p) {
  const std::vector<std::string> scheds = {"pdf", "ws", "fifo"};
  const CmpConfig cfg = default_config(kGenCores);
  std::vector<SweepJob> matrix;
  for (const auto& [family, spec] : family_specs(kSpillWs)) {
    for (const std::string& sched : scheds) {
      matrix.push_back(sweep_job(spec, sched, family, cfg));
    }
  }
  const SweepResults res = run_sweep(std::move(matrix), p.sweep());

  Table t({"family", "sched", "tasks", "cycles", "mpki", "vs_pdf"});
  for (const auto& [family, spec] : family_specs(kSpillWs)) {
    const uint64_t pdf_cycles =
        res.find(spec, "pdf", kGenCores, family)->result.cycles;
    for (const std::string& sched : scheds) {
      const SweepRecord& r = *res.find(spec, sched, kGenCores, family);
      t.add_row({family, sched, Table::num(r.num_tasks),
                 Table::num(r.result.cycles),
                 Table::num(r.result.l2_misses_per_kilo_instr(), 3),
                 Table::num(ratio(r.result.cycles, pdf_cycles), 3)});
    }
  }
  std::cout << "=== DAG-family ablation (" << kGenCores << " cores, ws="
            << kSpillWs << "B, share=" << kGenShare << ") ===\n";
  t.emit(p.csv("ablation_dagfamily"));
}

// Figure 2's question asked across the whole scheduler zoo: every
// scheduler family (bare defaults plus parameterized variants) on each
// generator family at a "fit" per-task working set (P concurrent tasks
// fit the shared L2) and a "spill" one (they do not; the regime where
// the paper shows policy decides the miss rate). The closing table is
// the geometric-mean slowdown and L2-MPKI ratio vs PDF per scheduler and
// scale.
void ablation_sched_zoo(const Paper& p) {
  // Family names (sorted, so new schedulers join automatically), then
  // the zoo's parameterized variants.
  std::vector<std::string> scheds = known_schedulers();
  for (const char* v :
       {"ws:victims=rand,seed=7", "ws:steal=half", "aff:steal=half",
        "prio:key=depth,order=max", "prio:key=work,order=max", "prio:key=ws",
        "cfb:budget=0.5"}) {
    scheds.push_back(v);
  }
  const std::vector<std::pair<std::string, uint64_t>> scales = {
      {"fit", kFitWs}, {"spill", kSpillWs}};

  const CmpConfig cfg = default_config(kGenCores);
  std::vector<SweepJob> matrix;
  for (const auto& [scale, ws] : scales) {
    for (const auto& [family, spec] : family_specs(ws)) {
      for (const std::string& sched : scheds) {
        matrix.push_back(sweep_job(spec, sched, scale + "/" + family, cfg));
      }
    }
  }
  const SweepResults res = run_sweep(std::move(matrix), p.sweep());

  Table t({"scale", "family", "sched", "cycles", "mpki", "vs_pdf",
           "steals"});
  Table g({"sched", "scale", "geomean_vs_pdf", "geomean_mpki_vs_pdf"});
  for (const std::string& sched : scheds) {
    for (const auto& [scale, ws] : scales) {
      double log_cyc = 0, log_mpki = 0;
      int n = 0;
      for (const auto& [family, spec] : family_specs(ws)) {
        const std::string tag = scale + "/" + family;
        const SweepRecord& pdf = *res.find(spec, "pdf", kGenCores, tag);
        const SweepRecord& r = *res.find(spec, sched, kGenCores, tag);
        const double vs = ratio(r.result.cycles, pdf.result.cycles);
        log_cyc += std::log(vs);
        log_mpki += std::log(r.result.l2_misses_per_kilo_instr() /
                             pdf.result.l2_misses_per_kilo_instr());
        ++n;
        t.add_row({scale, family, sched, Table::num(r.result.cycles),
                   Table::num(r.result.l2_misses_per_kilo_instr(), 3),
                   Table::num(vs, 3), Table::num(r.result.steals)});
      }
      g.add_row({sched, scale, Table::num(std::exp(log_cyc / n), 3),
                 Table::num(std::exp(log_mpki / n), 3)});
    }
  }
  std::cout << "=== Scheduler-zoo ablation (" << kGenCores
            << " cores; fit ws=" << kFitWs << "B, spill ws=" << kSpillWs
            << "B, share=" << kGenShare << ") ===\n";
  t.emit(p.csv("ablation_sched_zoo"));
  std::cout << "\n=== Geomean vs PDF over the five families ===\n";
  g.emit();
}

// ---------------------------------------------------- Artifact table

struct Artifact {
  const char* name;
  void (*run)(const Paper&);
};

constexpr Artifact kArtifacts[] = {
    {"fig1", fig1},
    {"fig2", fig2},
    {"fig3", fig3},
    {"fig4", fig4},
    {"fig5", fig5},
    {"fig6", fig6},
    {"fig8", fig8},
    {"table_configs", table_configs},
    {"table_energy", table_energy},
    {"table_profiler", table_profiler},
    {"table_summary", table_summary},
    {"ablation_scheduler", ablation_scheduler},
    {"ablation_dagfamily", ablation_dagfamily},
    {"ablation_sched_zoo", ablation_sched_zoo},
};

}  // namespace

int cmd_paper(const CliArgs& args) {
  Paper p;
  p.jobs = args.get_int("jobs", 0);
  p.csv_dir = args.get("csv", "");
  const std::vector<std::string> only = args.get_list("only", "");
  if (const int rc = args.check_unused()) return rc;
  if (only.empty() && args.has("only")) {
    std::cerr << "paper: --only lists no artifact\n";
    return kExitUsage;
  }

  std::set<std::string> picked;
  for (const std::string& name : only) {
    const bool known =
        std::any_of(std::begin(kArtifacts), std::end(kArtifacts),
                    [&](const Artifact& a) { return name == a.name; });
    if (!known) {
      std::cerr << "paper: unknown artifact " << name << " (known:";
      for (const Artifact& a : kArtifacts) std::cerr << " " << a.name;
      std::cerr << ")\n";
      return kExitUsage;
    }
    if (!picked.insert(name).second) {
      std::cerr << "paper: --only names " << name << " twice\n";
      return kExitUsage;
    }
  }
  if (!p.csv_dir.empty() && !std::filesystem::is_directory(p.csv_dir)) {
    std::cerr << "paper: --csv=" << p.csv_dir
              << " is not an existing directory\n";
    return kExitUsage;
  }

  for (const Artifact& a : kArtifacts) {
    if (picked.empty() || picked.count(a.name)) a.run(p);
  }
  return kExitOk;
}

}  // namespace cachesched
