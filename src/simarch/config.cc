#include "simarch/config.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cachesched {
namespace {

constexpr uint64_t kMB = 1024 * 1024;

CmpConfig make(std::string name, int cores, uint64_t l2_mb, int ways,
               int hit) {
  CmpConfig c;
  c.name = std::move(name);
  c.cores = cores;
  c.l2_bytes = l2_mb * kMB;
  c.l2_ways = ways;
  c.l2_hit_cycles = hit;
  return c;
}

uint64_t floor_pow2(uint64_t v) {
  uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

void ConfigOverrides::apply(CmpConfig& cfg) const {
  if (l2_hit_cycles) cfg.l2_hit_cycles = *l2_hit_cycles;
  if (mem_latency_cycles) cfg.mem_latency_cycles = *mem_latency_cycles;
  if (l2_banks) cfg.l2_banks = *l2_banks;
  if (task_dispatch_cycles) cfg.task_dispatch_cycles = *task_dispatch_cycles;
}

CmpConfig CmpConfig::scaled(double f) const {
  if (f <= 0 || f > 1.0) throw std::invalid_argument("scale must be in (0,1]");
  CmpConfig c = *this;
  if (f == 1.0) return c;
  auto scale_cache = [&](uint64_t bytes, int ways, uint64_t floor_bytes) {
    const uint64_t lines = bytes / line_bytes;
    uint64_t sets = lines / ways;
    uint64_t want_sets = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(sets * f)));
    want_sets = floor_pow2(std::max<uint64_t>(want_sets, 1));
    uint64_t new_bytes = want_sets * ways * line_bytes;
    while (new_bytes < floor_bytes) {
      want_sets *= 2;
      new_bytes = want_sets * ways * line_bytes;
    }
    return new_bytes;
  };
  c.l2_bytes = scale_cache(l2_bytes, l2_ways, 64 * 1024);
  c.l1_bytes = scale_cache(l1_bytes, l1_ways, 8 * 1024);
  c.name += " (x" + std::to_string(f) + ")";
  return c;
}

std::string CmpConfig::describe() const {
  std::ostringstream os;
  os << name << ": " << cores << " cores, L1 " << l1_bytes / 1024 << "KB/"
     << l1_ways << "w, L2 " << l2_bytes / 1024 << "KB/" << l2_ways << "w/"
     << l2_hit_cycles << "cyc, mem " << mem_latency_cycles << "+"
     << mem_service_cycles << "cyc";
  return os.str();
}

CmpConfig default_config(int cores) {
  switch (cores) {
    case 1:  return make("default-1c-90nm", 1, 10, 20, 15);
    case 2:  return make("default-2c-90nm", 2, 8, 16, 13);
    case 4:  return make("default-4c-90nm", 4, 4, 16, 11);
    case 8:  return make("default-8c-65nm", 8, 8, 16, 13);
    case 16: return make("default-16c-45nm", 16, 20, 20, 19);
    case 32: return make("default-32c-32nm", 32, 40, 20, 23);
    default:
      throw std::invalid_argument("no default config for " +
                                  std::to_string(cores) + " cores");
  }
}

std::vector<CmpConfig> default_configs() {
  std::vector<CmpConfig> v;
  for (int c : {1, 2, 4, 8, 16, 32}) v.push_back(default_config(c));
  return v;
}

std::vector<CmpConfig> single_tech_45nm_configs() {
  // Table 3: cores / L2 MB / assoc / hit cycles.
  struct Row { int cores; uint64_t mb; int ways; int hit; };
  constexpr Row rows[] = {
      {1, 48, 24, 25},  {2, 44, 22, 25},  {4, 40, 20, 23},  {6, 36, 18, 23},
      {8, 32, 16, 21},  {10, 32, 16, 21}, {12, 28, 28, 21}, {14, 24, 24, 19},
      {16, 20, 20, 19}, {18, 16, 16, 17}, {20, 12, 24, 15}, {22, 9, 18, 15},
      {24, 5, 20, 13},  {26, 1, 16, 7},
  };
  std::vector<CmpConfig> v;
  for (const Row& r : rows) {
    v.push_back(make("45nm-" + std::to_string(r.cores) + "c", r.cores, r.mb,
                     r.ways, r.hit));
  }
  return v;
}

std::vector<CmpConfig> tech_configs(const std::string& tech) {
  if (tech == "default") return default_configs();
  if (tech == "45nm") return single_tech_45nm_configs();
  throw std::invalid_argument("unknown tech: " + tech +
                              " (known: default 45nm)");
}

CmpConfig tech_config(const std::string& tech, int cores) {
  for (CmpConfig& c : tech_configs(tech)) {
    if (c.cores == cores) return c;
  }
  throw std::invalid_argument("no " + tech + " config for " +
                              std::to_string(cores) + " cores");
}

}  // namespace cachesched
