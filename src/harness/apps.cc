#include "harness/apps.h"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "workloads/cholesky.h"
#include "workloads/hashjoin.h"
#include "workloads/heat.h"
#include "workloads/lu.h"
#include "workloads/matmul.h"
#include "workloads/mergesort.h"
#include "workloads/quicksort.h"

namespace cachesched {
namespace {

uint64_t pow2_floor(uint64_t v) {
  return std::bit_floor(std::max<uint64_t>(v, 1));
}

}  // namespace

std::vector<std::string> known_apps() {
  return {"mergesort", "hashjoin", "lu", "matmul", "quicksort", "heat",
          "cholesky"};
}

Workload make_app(const std::string& name, const CmpConfig& cfg,
                  const AppOptions& opt) {
  const double s = opt.scale;
  if (s <= 0 || s > 1) throw std::invalid_argument("scale must be in (0,1]");
  if (name == "mergesort") {
    MergesortParams p;
    p.num_elems = pow2_floor(static_cast<uint64_t>(32.0 * 1024 * 1024 * s));
    p.l2_bytes = cfg.l2_bytes;
    p.line_bytes = cfg.line_bytes;
    p.task_ws_bytes =
        opt.mergesort_task_ws
            ? opt.mergesort_task_ws
            : pow2_floor(std::max<uint64_t>(
                  cfg.l2_bytes / (2 * static_cast<uint64_t>(cfg.cores)),
                  16 * 1024));
    p.parallel_merge = opt.fine_grained;
    return build_mergesort(p);
  }
  if (name == "hashjoin") {
    HashJoinParams p;
    p.build_bytes = static_cast<uint64_t>(341.0 * 1024 * 1024 * s);
    p.l2_bytes = cfg.l2_bytes;
    p.line_bytes = cfg.line_bytes;
    p.fine_grained = opt.fine_grained;
    p.seed = opt.seed;
    return build_hashjoin(p);
  }
  if (name == "lu") {
    LuParams p;
    p.block = 32;
    // Quadrant recursion needs a power-of-two block count; round the
    // scaled dimension to the nearest power of two.
    const double target_nb = 2048.0 * std::sqrt(s) / p.block;
    const int exp =
        std::max(2, static_cast<int>(std::lround(std::log2(target_nb))));
    p.n = p.block * (1u << exp);
    p.line_bytes = cfg.line_bytes;
    return build_lu(p);
  }
  if (name == "matmul") {
    MatmulParams p;
    p.block = 32;
    p.n = p.block * static_cast<uint32_t>(pow2_floor(static_cast<uint64_t>(
              std::lround(2048.0 * std::sqrt(s) / p.block))));
    p.n = std::max<uint32_t>(p.n, 8 * p.block);
    p.line_bytes = cfg.line_bytes;
    return build_matmul(p);
  }
  if (name == "quicksort") {
    QuicksortParams p;
    p.num_elems = pow2_floor(static_cast<uint64_t>(32.0 * 1024 * 1024 * s));
    p.line_bytes = cfg.line_bytes;
    p.seed = opt.seed;
    return build_quicksort(p);
  }
  if (name == "cholesky") {
    CholeskyParams p;
    p.block = 32;
    const double target_nb = 2048.0 * std::sqrt(s) / p.block;
    const int exp =
        std::max(2, static_cast<int>(std::lround(std::log2(target_nb))));
    p.n = p.block * (1u << exp);
    p.line_bytes = cfg.line_bytes;
    return build_cholesky(p);
  }
  if (name == "heat") {
    HeatParams p;
    const uint32_t dim = std::max<uint32_t>(
        static_cast<uint32_t>(std::lround(4096.0 * std::sqrt(s) / 64)) * 64,
        256);
    p.rows = dim;
    p.cols = dim;
    p.line_bytes = cfg.line_bytes;
    return build_heat(p);
  }
  throw std::invalid_argument("unknown app: " + name);
}

SimResult simulate_app(const Workload& w, const CmpConfig& cfg,
                       const std::string& sched) {
  CmpSimulator sim(cfg);
  auto s = make_scheduler(sched);
  return sim.run(w.dag, *s);
}

SimResult simulate_sequential(const Workload& w, const CmpConfig& cfg) {
  CmpConfig one = cfg;
  one.cores = 1;
  one.name += "-seq";
  return simulate_app(w, one, "pdf");  // one core: PDF = sequential 1DF order
}

}  // namespace cachesched
