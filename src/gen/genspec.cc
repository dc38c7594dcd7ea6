#include "gen/genspec.h"

#include <cstdio>
#include <iterator>
#include <span>
#include <sstream>
#include <string>

#include "util/spec.h"

namespace cachesched {
namespace {

// Specs describe simulated workloads; anything past a few million tasks is
// a typo (e.g. dnc:depth=30), not an experiment, so fail at parse time
// instead of grinding through an enormous build.
constexpr uint64_t kMaxTasks = 1u << 21;

constexpr uint64_t kMinWs = 128;
constexpr uint64_t kMaxWs = 256ull * 1024 * 1024;
constexpr double kMaxShare = 0.9;

/// Shortest decimal that parses back to exactly `v` (same approach as the
/// sweep engine's scale formatting), so canonical() round-trips share/p
/// without either precision loss or 17-digit noise.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::stod(probe) == v) return probe;
  }
  return buf;
}

const char* reuse_name(ReuseProfile r) {
  switch (r) {
    case ReuseProfile::kStream: return "stream";
    case ReuseProfile::kLoop: return "loop";
    case ReuseProfile::kRandom: return "rand";
  }
  return "?";
}

// Each family's own keys, then the keys every family shares. A row's
// default is the value parse uses when the spec omits the key, except
// `shared`: absent, the region is 8*ws (shared_bytes 0).
constexpr SpecKey kDncKeys[] = {{"depth", "6"}, {"fanout", "2"}};
constexpr SpecKey kForkJoinKeys[] = {{"stages", "4"}, {"width", "8"}};
constexpr SpecKey kLayeredKeys[] = {
    {"layers", "6"},
    {"width", "8"},
    {"p", "0.5"},
};
constexpr SpecKey kPipelineKeys[] = {{"stages", "4"}, {"items", "16"}};
constexpr SpecKey kStencilKeys[] = {{"tiles", "8"}, {"steps", "8"}};
constexpr SpecKey kCommonKeys[] = {
    {"ws", "16K"},   {"share", "0"}, {"shared", "0"}, {"reuse", "stream"},
    {"passes", "4"}, {"seed", "1"},  {"ipr", "8"},
};

struct Family {
  const char* name;
  GenFamily family;
  std::span<const SpecKey> keys;
};

// Sorted by name.
constexpr Family kFamilies[] = {
    {"dnc", GenFamily::kDnc, kDncKeys},
    {"forkjoin", GenFamily::kForkJoin, kForkJoinKeys},
    {"layered", GenFamily::kLayered, kLayeredKeys},
    {"pipeline", GenFamily::kPipeline, kPipelineKeys},
    {"stencil", GenFamily::kStencil, kStencilKeys},
};

const Family* find_family(const std::string& name) {
  for (const Family& f : kFamilies) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

uint32_t get_u32(const SpecParams& p, const char* key, uint32_t lo,
                 uint32_t hi) {
  return static_cast<uint32_t>(p.get_u64(key, lo, hi));
}

}  // namespace

GenSpec GenSpec::parse(const std::string& text) {
  const Spec spec = Spec::parse(text, "workload");
  const Family* fam = find_family(spec.name);
  if (!fam) {
    std::ostringstream os;
    os << "unknown family \"" << spec.name << "\" (known:";
    for (const Family& f : kFamilies) os << " " << f.name;
    os << ")";
    spec.fail(os.str());
  }
  std::vector<SpecKey> keys(fam->keys.begin(), fam->keys.end());
  keys.insert(keys.end(), std::begin(kCommonKeys), std::end(kCommonKeys));
  const SpecParams p(spec, keys);

  GenSpec s;
  s.family = fam->family;
  s.ws_bytes = p.get_u64("ws", kMinWs, kMaxWs, /*size=*/true);
  s.share = p.get_frac("share", 0.0, kMaxShare);
  if (p.has("shared")) {
    s.shared_bytes = p.get_u64("shared", kMinWs, kMaxWs, /*size=*/true);
  }
  s.reuse = static_cast<ReuseProfile>(
      p.get_choice("reuse", {"stream", "loop", "rand"}));
  s.passes = get_u32(p, "passes", 1, 64);
  s.seed = p.get_u64("seed", 0, UINT64_MAX);
  s.instr_per_ref = get_u32(p, "ipr", 1, 10000);
  switch (s.family) {
    case GenFamily::kDnc:
      s.depth = get_u32(p, "depth", 1, 20);
      s.fanout = get_u32(p, "fanout", 2, 16);
      break;
    case GenFamily::kForkJoin:
      s.stages = get_u32(p, "stages", 1, 1024);
      s.width = get_u32(p, "width", 1, 4096);
      break;
    case GenFamily::kLayered:
      s.layers = get_u32(p, "layers", 2, 1024);
      s.width = get_u32(p, "width", 1, 4096);
      s.edge_prob = p.get_frac("p", 0.0, 1.0);
      if (s.edge_prob == 0.0) spec.fail("p must be > 0");
      break;
    case GenFamily::kPipeline:
      s.stages = get_u32(p, "stages", 1, 1024);
      s.items = get_u32(p, "items", 1, 4096);
      break;
    case GenFamily::kStencil:
      s.tiles = get_u32(p, "tiles", 2, 1024);
      s.steps = get_u32(p, "steps", 1, 1024);
      break;
  }

  const uint64_t tasks = s.num_tasks();
  if (tasks > kMaxTasks) {
    spec.fail("expands to " + std::to_string(tasks) + " tasks (cap " +
              std::to_string(kMaxTasks) + ")");
  }
  if (s.family == GenFamily::kDnc) {
    // The root combine sweeps every leaf region; keep its reference count
    // sane (and far away from the uint32 RefBlock::count ceiling).
    uint64_t leaves = 1;
    for (uint32_t d = 0; d < s.depth; ++d) leaves *= s.fanout;
    const uint64_t root_lines = leaves * (s.ws_bytes / 64 + 1);
    if (root_lines > (1u << 27)) {
      spec.fail("root combine would sweep " + std::to_string(root_lines) +
                " lines; reduce depth/fanout/ws");
    }
  }
  return s;
}

uint64_t GenSpec::num_tasks() const {
  switch (family) {
    case GenFamily::kDnc: {
      // fanout^depth leaves; each internal node is divide + combine.
      uint64_t leaves = 1;
      uint64_t internal = 0;
      for (uint32_t d = 0; d < depth; ++d) {
        internal += leaves;
        if (leaves > kMaxTasks / fanout) return UINT64_MAX;  // clamp overflow
        leaves *= fanout;
      }
      return leaves + 2 * internal;
    }
    case GenFamily::kForkJoin:
      return static_cast<uint64_t>(stages) * (width + 2);
    case GenFamily::kLayered:
      return static_cast<uint64_t>(layers) * width;
    case GenFamily::kPipeline:
      return static_cast<uint64_t>(items) * stages;
    case GenFamily::kStencil:
      return static_cast<uint64_t>(steps) * tiles;
  }
  return 0;
}

std::vector<std::string> GenSpec::family_names() {
  std::vector<std::string> out;
  for (const Family& f : kFamilies) out.push_back(f.name);
  return out;
}

bool GenSpec::is_family(const std::string& name) {
  return find_family(name) != nullptr;
}

std::string GenSpec::family_name() const {
  for (const Family& f : kFamilies) {
    if (f.family == family) return f.name;
  }
  return "?";
}

std::string GenSpec::canonical() const {
  std::ostringstream os;
  os << family_name() << ":";
  switch (family) {
    case GenFamily::kDnc:
      os << "depth=" << depth << ",fanout=" << fanout;
      break;
    case GenFamily::kForkJoin:
      os << "stages=" << stages << ",width=" << width;
      break;
    case GenFamily::kLayered:
      os << "layers=" << layers << ",width=" << width
         << ",p=" << format_double(edge_prob);
      break;
    case GenFamily::kPipeline:
      os << "stages=" << stages << ",items=" << items;
      break;
    case GenFamily::kStencil:
      os << "tiles=" << tiles << ",steps=" << steps;
      break;
  }
  os << ",ws=" << ws_bytes << ",share=" << format_double(share)
     << ",shared=" << (shared_bytes ? shared_bytes : 8 * ws_bytes)
     << ",reuse=" << reuse_name(reuse) << ",passes=" << passes
     << ",seed=" << seed << ",ipr=" << instr_per_ref;
  return os.str();
}

std::string GenSpec::describe() const { return canonical(); }

}  // namespace cachesched
