#include "gen/generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace cachesched {
namespace {

constexpr const char* kFile = "gen/generator.cc";
// Call-site tags for the task-group hierarchy (one per family).
constexpr int kDncSite = 1;
constexpr int kForkJoinSite = 2;
constexpr int kLayeredSite = 3;
constexpr int kPipelineSite = 4;
constexpr int kStencilSite = 5;

constexpr uint64_t kDivideInstr = 128;  // spawn bookkeeping
constexpr uint64_t kJoinInstr = 64;     // sync bookkeeping

struct Ctx {
  const GenSpec* s;
  DagBuilder* b;
  uint32_t line;
  uint64_t shared_base = 0;
  uint64_t shared_len = 0;
};

/// RefBlock::count is uint32; a spec the parser admits can still combine
/// ws/passes/share into a block past that ceiling (e.g. a stencil
/// neighborhood at max ws with rand x 64 passes and share=0.9). Refuse
/// loudly rather than silently truncating the workload.
uint32_t checked_count(uint64_t n) {
  if (n > UINT32_MAX) {
    throw std::invalid_argument(
        "generated spec expands to a reference block of " + std::to_string(n) +
        " refs (uint32 cap); reduce ws, passes or share");
  }
  return static_cast<uint32_t>(n);
}

/// Allocates `n` equally-sized contiguous slices of `ws` bytes each
/// (line-padded); returns the base, writes the padded slice size.
uint64_t alloc_slices(AddressAllocator& alloc, uint64_t n, uint64_t ws,
                      const Ctx& c, uint64_t* slice_bytes) {
  *slice_bytes = static_cast<uint64_t>(lines_for(ws, c.line)) * c.line;
  return alloc.alloc(n * *slice_bytes);
}

/// Shared-footprint redirection: appends pseudo-random references into the
/// global shared region so that `share` of the task's total references
/// land there (`base_refs` already emitted into private regions).
void append_shared(const Ctx& c, uint64_t base_refs, uint64_t key,
                   std::vector<RefBlock>* out) {
  const GenSpec& s = *c.s;
  if (s.share <= 0.0 || base_refs == 0) return;
  const uint64_t n = static_cast<uint64_t>(
      std::llround(static_cast<double>(base_refs) * s.share / (1.0 - s.share)));
  if (n == 0) return;
  out->push_back(RefBlock::random_ref(
      c.shared_base, c.shared_len, checked_count(n),
      mix64(s.seed ^ 0x5bd1e995u ^ key), /*is_write=*/false, s.instr_per_ref));
}

/// References over the private region [base, base+bytes) following the
/// spec's reuse profile, plus the shared-region share. Returns the number
/// of private references emitted.
uint64_t emit_profile(const Ctx& c, uint64_t base, uint64_t bytes, uint64_t key,
                      std::vector<RefBlock>* out) {
  const GenSpec& s = *c.s;
  const uint32_t lines = lines_for(bytes, c.line);
  uint64_t refs = 0;
  switch (s.reuse) {
    case ReuseProfile::kStream:
      out->push_back(RefBlock::stride_ref(base, lines, c.line,
                                          /*is_write=*/false, s.instr_per_ref));
      refs = lines;
      break;
    case ReuseProfile::kLoop:
      // `passes` sequential sweeps: temporal reuse at distance = region
      // size. The read passes are one block wrapping every `lines`
      // references; the final pass writes the region back.
      if (s.passes > 1) {
        out->push_back(RefBlock::stride_ref(
            base, checked_count(uint64_t{lines} * (s.passes - 1)), c.line,
            /*is_write=*/false, s.instr_per_ref, /*period=*/lines));
      }
      out->push_back(RefBlock::stride_ref(base, lines, c.line,
                                          /*is_write=*/true, s.instr_per_ref));
      refs = static_cast<uint64_t>(lines) * s.passes;
      break;
    case ReuseProfile::kRandom:
      refs = static_cast<uint64_t>(lines) * s.passes;
      out->push_back(RefBlock::random_ref(
          base, static_cast<uint64_t>(lines) * c.line, checked_count(refs),
          mix64(s.seed ^ key), /*is_write=*/false, s.instr_per_ref));
      break;
  }
  append_shared(c, refs, key, out);
  return refs;
}

// ------------------------------------------------------------------ dnc

struct DncCtx {
  Ctx* c;
  uint64_t leaf_base;
  uint64_t leaf_slice;
  uint64_t next_key = 0;
};

/// Height-h subtree over leaves [lo, lo + fanout^h): divide task, fanout
/// children, combine task sweeping the covered range (working sets grow
/// geometrically toward the root, like mergesort's merges).
TaskId emit_dnc(DncCtx& d, uint32_t h, uint64_t lo, TaskId dep) {
  Ctx& c = *d.c;
  const GenSpec& s = *c.s;
  uint64_t span = 1;
  for (uint32_t i = 0; i < h; ++i) span *= s.fanout;
  c.b->begin_group(kFile, kDncSite, static_cast<int64_t>(span));
  if (h == 0) {
    std::vector<RefBlock> blocks;
    emit_profile(c, d.leaf_base + lo * d.leaf_slice, s.ws_bytes, d.next_key++,
                 &blocks);
    const TaskId t = c.b->add_task_after(dep, blocks);
    c.b->end_group();
    return t;
  }
  const TaskId divide =
      c.b->add_task_after(dep, {RefBlock::compute(kDivideInstr)});
  std::vector<TaskId> done;
  done.reserve(s.fanout);
  const uint64_t child_span = span / s.fanout;
  for (uint32_t f = 0; f < s.fanout; ++f) {
    done.push_back(emit_dnc(d, h - 1, lo + f * child_span, divide));
  }
  // Combine: one read-modify-write sweep over the children's output range.
  const uint64_t range_base = d.leaf_base + lo * d.leaf_slice;
  const uint64_t range_bytes = span * d.leaf_slice;
  std::vector<RefBlock> blocks;
  blocks.push_back(read_write_pass(range_base, range_bytes, range_base,
                                   range_bytes, c.line, s.instr_per_ref));
  append_shared(c, blocks.back().total_refs(), d.next_key++, &blocks);
  const TaskId combine = c.b->add_task(done, blocks);
  c.b->end_group();
  return combine;
}

void build_dnc(Ctx& c, AddressAllocator& alloc) {
  DncCtx d{&c, 0, 0};
  uint64_t leaves = 1;
  for (uint32_t i = 0; i < c.s->depth; ++i) leaves *= c.s->fanout;
  d.leaf_base = alloc_slices(alloc, leaves, c.s->ws_bytes, c, &d.leaf_slice);
  emit_dnc(d, c.s->depth, 0, kNoTask);
}

// ------------------------------------------------------------- forkjoin

void build_forkjoin(Ctx& c, AddressAllocator& alloc) {
  const GenSpec& s = *c.s;
  uint64_t slice = 0;
  const uint64_t base = alloc_slices(alloc, s.width, s.ws_bytes, c, &slice);
  TaskId prev = kNoTask;
  for (uint32_t st = 0; st < s.stages; ++st) {
    // Bodies re-touch the same per-slot regions every stage, so schedules
    // that keep a slot on one core see cross-stage reuse.
    c.b->begin_group(kFile, kForkJoinSite, static_cast<int64_t>(s.width));
    const TaskId fork =
        c.b->add_task_after(prev, {RefBlock::compute(kDivideInstr)});
    std::vector<TaskId> bodies;
    bodies.reserve(s.width);
    for (uint32_t i = 0; i < s.width; ++i) {
      std::vector<RefBlock> blocks;
      emit_profile(c, base + i * slice, s.ws_bytes,
                   static_cast<uint64_t>(st) * s.width + i, &blocks);
      bodies.push_back(c.b->add_task_after(fork, blocks));
    }
    prev = c.b->add_task(bodies, {RefBlock::compute(kJoinInstr)});
    c.b->end_group();
  }
}

// -------------------------------------------------------------- layered

void build_layered(Ctx& c, AddressAllocator& alloc) {
  const GenSpec& s = *c.s;
  uint64_t slice = 0;
  const uint64_t base = alloc_slices(alloc, s.width, s.ws_bytes, c, &slice);
  const uint64_t threshold =
      s.edge_prob >= 1.0 ? UINT64_MAX
                         : static_cast<uint64_t>(s.edge_prob * 0x1p64);
  std::vector<TaskId> prev, cur;
  for (uint32_t l = 0; l < s.layers; ++l) {
    c.b->begin_group(kFile, kLayeredSite, static_cast<int64_t>(s.width));
    cur.clear();
    for (uint32_t i = 0; i < s.width; ++i) {
      const uint64_t key = static_cast<uint64_t>(l) * s.width + i;
      std::vector<TaskId> parents;
      if (l > 0) {
        // Erdős–Rényi edges from the previous layer, deterministic in
        // (seed, l, i, j); every task keeps at least one parent so no
        // layer floats free of the DAG.
        for (uint32_t j = 0; j < s.width; ++j) {
          if (mix64(s.seed ^ (key << 16) ^ j) <= threshold) {
            parents.push_back(prev[j]);
          }
        }
        if (parents.empty()) {
          parents.push_back(prev[mix64(s.seed ^ key) % s.width]);
        }
      }
      std::vector<RefBlock> blocks;
      emit_profile(c, base + i * slice, s.ws_bytes, key, &blocks);
      cur.push_back(c.b->add_task(parents, blocks));
    }
    prev = cur;
    c.b->end_group();
  }
}

// ------------------------------------------------------------- pipeline

void build_pipeline(Ctx& c, AddressAllocator& alloc) {
  const GenSpec& s = *c.s;
  uint64_t stage_slice = 0, item_slice = 0;
  const uint64_t stage_base =
      alloc_slices(alloc, s.stages, s.ws_bytes, c, &stage_slice);
  const uint64_t item_base =
      alloc_slices(alloc, s.items, s.ws_bytes, c, &item_slice);
  std::vector<TaskId> prev_row(s.stages, kNoTask), row(s.stages, kNoTask);
  for (uint32_t i = 0; i < s.items; ++i) {
    c.b->begin_group(kFile, kPipelineSite, static_cast<int64_t>(s.stages));
    for (uint32_t st = 0; st < s.stages; ++st) {
      std::vector<TaskId> parents;
      if (st > 0) parents.push_back(row[st - 1]);
      if (i > 0) parents.push_back(prev_row[st]);
      // Stage-local state is re-read by every item (constructive L2
      // sharing when consecutive items co-schedule); the item's own data
      // follows the reuse profile.
      std::vector<RefBlock> blocks;
      blocks.push_back(RefBlock::stride_ref(
          stage_base + st * stage_slice, lines_for(s.ws_bytes, c.line), c.line,
          /*is_write=*/false, s.instr_per_ref));
      emit_profile(c, item_base + i * item_slice, s.ws_bytes,
                   static_cast<uint64_t>(i) * s.stages + st, &blocks);
      row[st] = c.b->add_task(parents, blocks);
    }
    prev_row = row;
    c.b->end_group();
  }
}

// -------------------------------------------------------------- stencil

void build_stencil(Ctx& c, AddressAllocator& alloc) {
  const GenSpec& s = *c.s;
  uint64_t slice = 0;
  const uint64_t a = alloc_slices(alloc, s.tiles, s.ws_bytes, c, &slice);
  const uint64_t b = alloc_slices(alloc, s.tiles, s.ws_bytes, c, &slice);
  std::vector<TaskId> prev(s.tiles, kNoTask), cur(s.tiles, kNoTask);
  for (uint32_t t = 0; t < s.steps; ++t) {
    c.b->begin_group(kFile, kStencilSite, static_cast<int64_t>(s.tiles));
    const uint64_t src = (t % 2 == 0) ? a : b;
    const uint64_t dst = (t % 2 == 0) ? b : a;
    for (uint32_t i = 0; i < s.tiles; ++i) {
      std::vector<TaskId> parents;
      if (t > 0) {
        if (i > 0) parents.push_back(prev[i - 1]);
        parents.push_back(prev[i]);
        if (i + 1 < s.tiles) parents.push_back(prev[i + 1]);
      }
      // Jacobi update: read the clamped three-tile neighborhood (tiles are
      // contiguous, so the neighborhood is one region the reuse profile
      // sweeps), write the task's own tile in the other array.
      const uint32_t lo = i > 0 ? i - 1 : 0;
      const uint32_t hi = std::min(i + 1, s.tiles - 1);
      std::vector<RefBlock> blocks;
      emit_profile(c, src + lo * slice,
                   static_cast<uint64_t>(hi - lo + 1) * slice,
                   static_cast<uint64_t>(t) * s.tiles + i, &blocks);
      blocks.push_back(RefBlock::stride_ref(
          dst + i * slice, lines_for(s.ws_bytes, c.line), c.line,
          /*is_write=*/true, s.instr_per_ref));
      cur[i] = c.b->add_task(parents, blocks);
    }
    prev = cur;
    c.b->end_group();
  }
}

}  // namespace

Workload build_generated(const GenSpec& spec, uint32_t line_bytes) {
  if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0) {
    throw std::invalid_argument(
        "build_generated: line_bytes must be a power of two");
  }
  AddressAllocator alloc(line_bytes);
  DagBuilder builder;
  Ctx c;
  c.s = &spec;
  c.b = &builder;
  c.line = line_bytes;
  const uint64_t shared =
      spec.shared_bytes ? spec.shared_bytes : 8 * spec.ws_bytes;
  c.shared_len =
      static_cast<uint64_t>(lines_for(shared, line_bytes)) * line_bytes;
  c.shared_base = alloc.alloc(c.shared_len);

  switch (spec.family) {
    case GenFamily::kDnc: build_dnc(c, alloc); break;
    case GenFamily::kForkJoin: build_forkjoin(c, alloc); break;
    case GenFamily::kLayered: build_layered(c, alloc); break;
    case GenFamily::kPipeline: build_pipeline(c, alloc); break;
    case GenFamily::kStencil: build_stencil(c, alloc); break;
  }

  Workload w;
  w.name = spec.family_name();
  w.params = spec.describe();
  w.dag = builder.finish();
  w.footprint_bytes = alloc.bytes_allocated();
  return w;
}

}  // namespace cachesched
