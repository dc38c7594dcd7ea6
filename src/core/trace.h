// Compact per-task memory-reference streams.
//
// The paper's methodology (§4.1) collects a computation-DAG trace annotated
// with the memory references of each task and replays it on a simulated CMP.
// Storing raw references is infeasible (2.85 billion for the 32M-element
// sort), so tasks describe their references as a short list of *blocks*
// that the simulator and profiler expand lazily:
//
//   kCompute    — pure computation: `instr` instructions, no references.
//   kStride     — `count` references starting at `base`, `stride` bytes
//                 apart (usually one reference per cache line; the per-word
//                 accesses within a line are folded into instr_per_ref).
//                 A nonzero `period` wraps the sweep: reference i is at
//                 base + (i mod period) * stride, so a loop that revisits
//                 the same lines P times is one block of P * lines
//                 references with period `lines`, not P blocks.
//   kRandom     — `count` references uniformly pseudo-random in
//                 [base, base+region_len); addresses are a pure function of
//                 (seed, index), so replay order does not matter.
//   kInterleave — up to three line-granular streams (e.g. "read run X,
//                 read run Y, write run Z" of a merge) emitted
//                 proportionally interleaved, the way the real kernel's
//                 access pattern interleaves them.
//
// Each reference carries `instr_per_ref` instructions: the memory
// instruction itself plus the surrounding scalar work (compares, moves,
// index arithmetic, and the L1-hit accesses to the other words of the
// line). This is what makes "L2 misses per 1000 instructions" meaningful.
//
// `RefBlock` is the builder-facing descriptor (one struct with a field for
// every kind, convenient to construct). pack_ref turns it into the one
// stored form, `PackedRef`: a 32-byte tagged record covering the common
// kinds directly, with each kInterleave block's streams compacted once
// into a side-table record (`InterleaveSide`) that both the reference
// TraceCursor and the engine's batched expander read. The
// packed form roughly halves trace footprint and keeps the simulator's
// refill scan sequential and cache-dense. A TaskDag keeps every task's
// PackedRefs in one arena in task order (core/dag.h).
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace cachesched {

enum class RefKind : uint8_t { kCompute, kStride, kRandom, kInterleave };

/// One line-granular stream of a kInterleave block.
struct StreamRef {
  uint64_t base = 0;    // byte address of the first line
  uint32_t lines = 0;   // number of lines touched
  bool is_write = false;
};

inline constexpr int kMaxStreams = 3;

/// Builder-facing reference-block descriptor (see file comment). Workload
/// generators construct these; DagBuilder packs them for storage.
struct RefBlock {
  RefKind kind = RefKind::kCompute;
  bool is_write = false;
  uint8_t num_streams = 0;     // kInterleave
  uint32_t count = 0;          // total references (all kinds but kCompute)
  uint32_t instr_per_ref = 1;  // instructions charged per reference (>= 1)
  uint32_t line_bytes = 128;   // kInterleave address stepping
  uint32_t period = 0;         // kStride wrap length in refs (0 = no wrap)
  uint64_t base = 0;           // byte address (kStride/kRandom)
  int64_t stride = 0;          // bytes between refs (kStride)
  uint64_t region_len = 0;     // bytes (kRandom)
  uint64_t seed = 0;           // kRandom
  uint64_t instr = 0;          // kCompute
  StreamRef streams[kMaxStreams];

  static RefBlock compute(uint64_t instructions) {
    RefBlock b;
    b.kind = RefKind::kCompute;
    b.instr = instructions;
    return b;
  }

  static RefBlock stride_ref(uint64_t base, uint32_t count,
                             int64_t stride_bytes, bool is_write,
                             uint32_t instr_per_ref, uint32_t period = 0) {
    RefBlock b;
    b.kind = RefKind::kStride;
    b.base = base;
    b.count = count;
    b.stride = stride_bytes;
    b.period = period;
    b.is_write = is_write;
    b.instr_per_ref = instr_per_ref ? instr_per_ref : 1;
    return b;
  }

  static RefBlock random_ref(uint64_t base, uint64_t region_len, uint32_t count,
                             uint64_t seed, bool is_write,
                             uint32_t instr_per_ref) {
    RefBlock b;
    b.kind = RefKind::kRandom;
    b.base = base;
    b.region_len = region_len ? region_len : 1;
    b.count = count;
    b.seed = seed;
    b.is_write = is_write;
    b.instr_per_ref = instr_per_ref ? instr_per_ref : 1;
    return b;
  }

  /// Proportionally interleaved line-granular streams.
  static RefBlock interleave(const StreamRef* streams, int num_streams,
                             uint32_t line_bytes, uint32_t instr_per_ref) {
    assert(num_streams >= 1 && num_streams <= kMaxStreams);
    RefBlock b;
    b.kind = RefKind::kInterleave;
    b.line_bytes = line_bytes;
    b.instr_per_ref = instr_per_ref ? instr_per_ref : 1;
    b.num_streams = static_cast<uint8_t>(num_streams);
    uint32_t total = 0;
    for (int i = 0; i < num_streams; ++i) {
      b.streams[i] = streams[i];
      total += streams[i].lines;
    }
    b.count = total;
    return b;
  }

  /// Total instructions this block contributes.
  uint64_t total_instr() const {
    return kind == RefKind::kCompute
               ? instr
               : static_cast<uint64_t>(count) * instr_per_ref;
  }

  /// Total memory references this block contributes.
  uint64_t total_refs() const { return kind == RefKind::kCompute ? 0 : count; }
};

/// A kInterleave block's streams, stored once per block in a side table
/// next to the packed arena (PackedRef::side_index). pack_ref compacts the
/// descriptor's streams to the non-empty ones, in order: an empty stream
/// is never picked by the proportional schedule nor by its fallback, so
/// dropping it preserves the emission sequence exactly. The slots past
/// `num_streams` keep 0 lines.
struct InterleaveSide {
  uint64_t base[kMaxStreams] = {};   // byte address of each first line
  uint32_t lines[kMaxStreams] = {};  // L_s; non-zero below num_streams
  uint32_t line_bytes = 128;
  uint8_t num_streams = 0;
  bool write[kMaxStreams] = {};
};

static_assert(sizeof(InterleaveSide) <= 48,
              "one interleave record per block must stay small");

/// Bound on an interleave block's references (the sum of its stream
/// lines), enforced by pack_ref: below it interleave_expand's int64 error
/// terms are exact. The largest block any built-in workload makes is far
/// smaller (quicksort's partition pass: 2^21 references at full scale).
inline constexpr uint64_t kMaxInterleaveRefs = uint64_t{1} << 31;

/// Expands references [i, end) of an interleave block of `n` total
/// references through its record `f`, calling emit(addr, s) per reference
/// (s indexes f's streams). `em` is the per-stream emitted-line state,
/// updated in place; resuming from any (i, em) state reached by a previous
/// call continues the exact sequence. Requires i < end <= n.
///
/// The emitted schedule is byte-identical to TraceCursor::next()'s
/// proportional first-behind rule — stream s is due when
/// (i+1)*L_s >= (em_s+1)*n, the first due stream is picked, and a floor
/// rounding gap falls back to the first unfinished stream —
/// tests/trace_test.cc proves equality on randomized configurations and
/// resume boundaries. One loop serves every stream count: a slot past
/// num_streams has L_s = 0, so its error term stays at -n and never comes
/// due, and the fallback never reaches it because some present stream is
/// unfinished until the block ends. All error terms are exact:
/// |D_s| < n^2 < 2^62 (n < kMaxInterleaveRefs).
template <class EmitFn>
inline void interleave_expand(const InterleaveSide& f, uint32_t n, uint32_t i,
                              uint32_t end, uint32_t em[kMaxStreams],
                              EmitFn&& emit) {
  const uint32_t lb = f.line_bytes;
  const int64_t l0 = f.lines[0];
  const int64_t l1 = f.lines[1];
  const int64_t l2 = f.lines[2];
  const int64_t dn = n;
  int64_t d0 = static_cast<int64_t>((uint64_t{i} + 1) * f.lines[0]) -
               static_cast<int64_t>((uint64_t{em[0]} + 1) * n);
  int64_t d1 = static_cast<int64_t>((uint64_t{i} + 1) * f.lines[1]) -
               static_cast<int64_t>((uint64_t{em[1]} + 1) * n);
  int64_t d2 = static_cast<int64_t>((uint64_t{i} + 1) * f.lines[2]) -
               static_cast<int64_t>((uint64_t{em[2]} + 1) * n);
  uint64_t a0 = f.base[0] + uint64_t{em[0]} * lb;
  uint64_t a1 = f.base[1] + uint64_t{em[1]} * lb;
  uint64_t a2 = f.base[2] + uint64_t{em[2]} * lb;
  for (; i < end; ++i) {
    // Picking stream s advances every prog by L and s's goal by n:
    // d_t += L_t for all t, d_s -= n.
    if (d0 >= 0) {
      emit(a0, 0);
      a0 += lb;
      ++em[0];
      d0 -= dn;
    } else if (d1 >= 0) {
      emit(a1, 1);
      a1 += lb;
      ++em[1];
      d1 -= dn;
    } else if (d2 >= 0) {
      emit(a2, 2);
      a2 += lb;
      ++em[2];
      d2 -= dn;
    } else if (em[0] < f.lines[0]) {
      emit(a0, 0);
      a0 += lb;
      ++em[0];
      d0 -= dn;
    } else if (em[1] < f.lines[1]) {
      emit(a1, 1);
      a1 += lb;
      ++em[1];
      d1 -= dn;
    } else {
      emit(a2, 2);
      a2 += lb;
      ++em[2];
      d2 -= dn;
    }
    d0 += l0;
    d1 += l1;
    d2 += l2;
  }
}

/// Storage/replay form of a reference block: 32 bytes, tagged. The three
/// common kinds are self-contained; kInterleave keeps its stream list in
/// an InterleaveSide at `side_index()`. Field use per kind:
///
///            a            b            c
///  kCompute  instr        -            -
///  kStride   base         stride       period (0 = no wrap)
///  kRandom   base         region_len   seed
///  kInterl.  side index   -            -
struct PackedRef {
  uint32_t count = 0;  // total references (0 for kCompute)
  uint32_t meta = 0;   // kind(2) | is_write(1) | instr_per_ref(29)
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;

  static constexpr uint32_t kIprBits = 29;
  static constexpr uint32_t kIprMask = (1u << kIprBits) - 1;

  RefKind kind() const { return static_cast<RefKind>(meta >> 30); }
  bool is_write() const { return (meta >> kIprBits) & 1u; }
  uint32_t instr_per_ref() const { return meta & kIprMask; }

  uint64_t instr() const { return a; }       // kCompute
  uint64_t base() const { return a; }        // kStride/kRandom
  uint64_t region_len() const { return b; }  // kRandom
  uint64_t seed() const { return c; }        // kRandom
  int64_t stride() const { return static_cast<int64_t>(b); }  // kStride
  uint32_t period() const { return static_cast<uint32_t>(c); }  // kStride
  uint32_t side_index() const {                               // kInterleave
    return static_cast<uint32_t>(a);
  }

  /// Total instructions this block contributes.
  uint64_t total_instr() const {
    return kind() == RefKind::kCompute
               ? a
               : static_cast<uint64_t>(count) * instr_per_ref();
  }

  /// Total memory references this block contributes.
  uint64_t total_refs() const {
    return kind() == RefKind::kCompute ? 0 : count;
  }
};

static_assert(sizeof(PackedRef) == 32, "PackedRef must stay one third of a "
                                       "typical cache line");

/// Packs a descriptor into the 32-byte storage form, appending a
/// kInterleave block's compacted streams to `side`. Throws if
/// instr_per_ref does not fit its 29-bit field, or if an interleave
/// block's streams total kMaxInterleaveRefs lines or more — summed in
/// uint64, so a `count` that wrapped in RefBlock::interleave is caught
/// too (no real workload comes close to either bound).
inline PackedRef pack_ref(const RefBlock& b,
                          std::vector<InterleaveSide>* side) {
  PackedRef p;
  const uint32_t ipr = b.kind == RefKind::kCompute ? 0 : b.instr_per_ref;
  if (ipr > PackedRef::kIprMask) {
    throw std::invalid_argument(
        "instr_per_ref exceeds the packed 29-bit field");
  }
  p.meta = (static_cast<uint32_t>(b.kind) << 30) |
           (b.is_write ? 1u << PackedRef::kIprBits : 0u) | ipr;
  switch (b.kind) {
    case RefKind::kCompute:
      p.a = b.instr;
      break;
    case RefKind::kStride:
      p.count = b.count;
      p.a = b.base;
      p.b = static_cast<uint64_t>(b.stride);
      p.c = b.period;
      break;
    case RefKind::kRandom:
      p.count = b.count;
      p.a = b.base;
      p.b = b.region_len;
      p.c = b.seed;
      break;
    case RefKind::kInterleave: {
      InterleaveSide s;
      s.line_bytes = b.line_bytes;
      uint64_t total = 0;
      for (int i = 0; i < b.num_streams; ++i) {
        const StreamRef& r = b.streams[i];
        total += r.lines;
        if (r.lines == 0) continue;
        s.base[s.num_streams] = r.base;
        s.lines[s.num_streams] = r.lines;
        s.write[s.num_streams] = r.is_write;
        ++s.num_streams;
      }
      if (total >= kMaxInterleaveRefs) {
        throw std::invalid_argument(
            "interleave block has 2^31 or more references");
      }
      p.count = b.count;
      p.a = side->size();
      side->push_back(s);
      break;
    }
  }
  return p;
}

/// One expanded operation from a trace.
struct TraceOp {
  enum Kind : uint8_t { kDone, kCompute, kMem } kind = kDone;
  uint64_t addr = 0;   // byte address (kMem)
  uint64_t instr = 0;  // instructions attributed to this op
  bool is_write = false;
};

/// Lazily expands a span of PackedRefs into TraceOps. Copyable and cheap;
/// the hot path (next()) is inline. Expansion is a pure function of the
/// blocks, so simulator and profiler see identical reference streams.
class TraceCursor {
 public:
  TraceCursor() = default;
  TraceCursor(const PackedRef* blocks, uint32_t num_blocks,
              const InterleaveSide* side)
      : blocks_(blocks), side_(side), num_blocks_(num_blocks) {}

  TraceOp next() {
    while (bi_ < num_blocks_) {
      const PackedRef& b = blocks_[bi_];
      switch (b.kind()) {
        case RefKind::kCompute: {
          advance_block();
          if (b.instr() == 0) continue;
          TraceOp op;
          op.kind = TraceOp::kCompute;
          op.instr = b.instr();
          return op;
        }
        case RefKind::kStride: {
          if (ri_ >= b.count) {
            advance_block();
            continue;
          }
          const uint32_t k = b.period() != 0 ? ri_ % b.period() : ri_;
          TraceOp op = mem_op(b);
          op.addr = b.base() + static_cast<uint64_t>(
                                   static_cast<int64_t>(k) * b.stride());
          op.is_write = b.is_write();
          ++ri_;
          return op;
        }
        case RefKind::kRandom: {
          if (ri_ >= b.count) {
            advance_block();
            continue;
          }
          TraceOp op = mem_op(b);
          op.addr = b.base() + mix64(b.seed() + ri_) % b.region_len();
          op.is_write = b.is_write();
          ++ri_;
          return op;
        }
        case RefKind::kInterleave: {
          if (ri_ >= b.count) {
            advance_block();
            continue;
          }
          const InterleaveSide& sd = side_[b.side_index()];
          // Proportional schedule: stream i should have emitted
          // floor((s+1) * lines_i / total) lines after step s.
          int pick = -1;
          for (uint32_t i = 0; i < sd.num_streams; ++i) {
            const uint64_t target =
                (static_cast<uint64_t>(ri_) + 1) * sd.lines[i] / b.count;
            if (em_[i] < target) {
              pick = static_cast<int>(i);
              break;
            }
          }
          if (pick < 0) {  // floor rounding gap: emit any unfinished stream
            for (uint32_t i = 0; i < sd.num_streams; ++i) {
              if (em_[i] < sd.lines[i]) {
                pick = static_cast<int>(i);
                break;
              }
            }
          }
          assert(pick >= 0);
          TraceOp op = mem_op(b);
          op.addr = sd.base[pick] +
                    static_cast<uint64_t>(em_[pick]) * sd.line_bytes;
          op.is_write = sd.write[pick];
          ++em_[pick];
          ++ri_;
          return op;
        }
      }
    }
    return TraceOp{};  // kDone
  }

  bool done() const { return bi_ >= num_blocks_; }

 private:
  static TraceOp mem_op(const PackedRef& b) {
    TraceOp op;
    op.kind = TraceOp::kMem;
    op.instr = b.instr_per_ref();
    return op;
  }

  void advance_block() {
    ++bi_;
    ri_ = 0;
    em_[0] = em_[1] = em_[2] = 0;
  }

  const PackedRef* blocks_ = nullptr;
  const InterleaveSide* side_ = nullptr;
  uint32_t num_blocks_ = 0;
  uint32_t bi_ = 0;       // block index
  uint32_t ri_ = 0;       // reference index within block
  uint32_t em_[3] = {0, 0, 0};  // per-stream emitted lines (kInterleave)
};

}  // namespace cachesched
