// The paper's headline experiment in miniature: parallel Mergesort and
// Hash Join under PDF vs WS on a 16-core CMP (Table 2), reproducing the
// 1.3-1.6x class of wins from constructive cache sharing.
//
//   $ ./paper_headline [--scale=0.0625]
#include <cstdio>

#include "harness/apps.h"
#include "util/cli.h"

using namespace cachesched;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.0625);
  if (const int rc = args.check_unused()) return rc;
  const CmpConfig cfg = default_config(16).scaled(scale);
  std::printf("config: %s  (inputs and caches scaled x%g)\n\n",
              cfg.describe().c_str(), scale);

  for (const char* app : {"mergesort", "hashjoin"}) {
    AppOptions opt;
    opt.scale = scale;
    const Workload w = make_app(app, cfg, opt);
    const SimResult seq = simulate_sequential(w, cfg);
    const SimResult pdf = simulate_app(w, cfg, "pdf");
    const SimResult ws = simulate_app(w, cfg, "ws");
    std::printf("%s (%s)\n", w.name.c_str(), w.params.c_str());
    std::printf("  sequential: %12llu cycles\n",
                static_cast<unsigned long long>(seq.cycles));
    std::printf("  pdf:        %12llu cycles  speedup %5.2fx  %.3f misses/K\n",
                static_cast<unsigned long long>(pdf.cycles),
                pdf.speedup_over(seq), pdf.l2_misses_per_kilo_instr());
    std::printf("  ws:         %12llu cycles  speedup %5.2fx  %.3f misses/K\n",
                static_cast<unsigned long long>(ws.cycles),
                ws.speedup_over(seq), ws.l2_misses_per_kilo_instr());
    std::printf("  -> PDF over WS: %.2fx, L2 miss reduction %.1f%%\n\n",
                static_cast<double>(ws.cycles) /
                    static_cast<double>(pdf.cycles),
                100.0 * (1.0 - static_cast<double>(pdf.l2_misses) /
                                   static_cast<double>(ws.l2_misses)));
  }
  return 0;
}
