#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/trace.h"
#include "simarch/engine_detail.h"

namespace cachesched {
namespace {

std::vector<TraceOp> expand(std::vector<RefBlock> blocks) {
  std::vector<PackedRef> packed;
  std::vector<InterleaveSide> side;
  for (const RefBlock& b : blocks) packed.push_back(pack_ref(b, &side));
  TraceCursor c(packed.data(), static_cast<uint32_t>(packed.size()),
                side.data());
  std::vector<TraceOp> ops;
  for (TraceOp op = c.next(); op.kind != TraceOp::kDone; op = c.next()) {
    ops.push_back(op);
  }
  EXPECT_TRUE(c.done());
  return ops;
}

TEST(Trace, ComputeBlock) {
  auto ops = expand({RefBlock::compute(1000)});
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, TraceOp::kCompute);
  EXPECT_EQ(ops[0].instr, 1000u);
}

TEST(Trace, ZeroInstrComputeSkipped) {
  auto ops = expand({RefBlock::compute(0), RefBlock::compute(5)});
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].instr, 5u);
}

TEST(Trace, StrideAddresses) {
  auto ops = expand({RefBlock::stride_ref(0x1000, 4, 128, true, 10)});
  ASSERT_EQ(ops.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ops[i].kind, TraceOp::kMem);
    EXPECT_EQ(ops[i].addr, 0x1000u + 128u * i);
    EXPECT_TRUE(ops[i].is_write);
    EXPECT_EQ(ops[i].instr, 10u);
  }
}

TEST(Trace, NegativeStride) {
  auto ops = expand({RefBlock::stride_ref(0x1000, 3, -128, false, 1)});
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[1].addr, 0x1000u - 128u);
  EXPECT_EQ(ops[2].addr, 0x1000u - 256u);
}

TEST(Trace, WrappedStrideRevisitsThePeriod) {
  // Three passes over four lines, then a partial fourth pass.
  auto ops = expand({RefBlock::stride_ref(0x1000, 14, -64, false, 2,
                                          /*period=*/4)});
  ASSERT_EQ(ops.size(), 14u);
  for (uint32_t i = 0; i < 14; ++i) {
    EXPECT_EQ(ops[i].addr, 0x1000u - 64u * (i % 4)) << i;
    EXPECT_EQ(ops[i].instr, 2u);
  }
  const auto b = RefBlock::stride_ref(0, 14, 64, false, 2, 4);
  EXPECT_EQ(b.total_refs(), 14u);
  EXPECT_EQ(b.total_instr(), 28u);
}

TEST(Trace, RandomWithinRegionAndDeterministic) {
  const auto b = RefBlock::random_ref(0x8000, 4096, 200, 99, false, 3);
  auto ops1 = expand({b});
  auto ops2 = expand({b});
  ASSERT_EQ(ops1.size(), 200u);
  for (size_t i = 0; i < ops1.size(); ++i) {
    EXPECT_GE(ops1[i].addr, 0x8000u);
    EXPECT_LT(ops1[i].addr, 0x8000u + 4096u);
    EXPECT_EQ(ops1[i].addr, ops2[i].addr) << "replay must be deterministic";
  }
}

TEST(Trace, RandomSeedChangesAddresses) {
  auto a = expand({RefBlock::random_ref(0, 1 << 20, 100, 1, false, 1)});
  auto b = expand({RefBlock::random_ref(0, 1 << 20, 100, 2, false, 1)});
  int same = 0;
  for (size_t i = 0; i < a.size(); ++i) same += a[i].addr == b[i].addr;
  EXPECT_LT(same, 5);
}

TEST(Trace, InterleaveEmitsAllLinesOfEachStream) {
  StreamRef s[3] = {{0, 8, false}, {0x10000, 8, false}, {0x20000, 16, true}};
  auto ops = expand({RefBlock::interleave(s, 3, 128, 7)});
  ASSERT_EQ(ops.size(), 32u);
  std::map<uint64_t, std::set<uint64_t>> seen;  // stream base -> offsets
  for (const auto& op : ops) {
    const uint64_t base = op.addr & ~0xFFFFull;
    seen[base].insert(op.addr - base);
    EXPECT_EQ(op.is_write, base == 0x20000u);
  }
  EXPECT_EQ(seen[0].size(), 8u);
  EXPECT_EQ(seen[0x10000].size(), 8u);
  EXPECT_EQ(seen[0x20000].size(), 16u);
}

TEST(Trace, InterleaveIsProportional) {
  // With streams of 10 and 30 lines, after any prefix of length L the
  // second stream should have emitted about 3x the first.
  StreamRef s[2] = {{0, 10, false}, {1 << 20, 30, true}};
  auto ops = expand({RefBlock::interleave(s, 2, 128, 1)});
  ASSERT_EQ(ops.size(), 40u);
  int c0 = 0, c1 = 0;
  for (int i = 0; i < 20; ++i) {
    (ops[i].addr < (1u << 20) ? c0 : c1)++;
  }
  EXPECT_NEAR(c0, 5, 2);
  EXPECT_NEAR(c1, 15, 2);
}

TEST(Trace, InterleaveLineStepping) {
  StreamRef s[1] = {{0x100, 4, false}};
  auto ops = expand({RefBlock::interleave(s, 1, 64, 1)});
  ASSERT_EQ(ops.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ops[i].addr, 0x100u + 64u * i);
}

TEST(Trace, MultiBlockSequencing) {
  auto ops = expand({RefBlock::stride_ref(0, 2, 128, false, 1),
                     RefBlock::compute(10),
                     RefBlock::stride_ref(0x5000, 1, 128, true, 2)});
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops[0].kind, TraceOp::kMem);
  EXPECT_EQ(ops[2].kind, TraceOp::kCompute);
  EXPECT_EQ(ops[3].addr, 0x5000u);
}

TEST(Trace, TotalsAccounting) {
  const auto b = RefBlock::stride_ref(0, 10, 128, false, 7);
  EXPECT_EQ(b.total_refs(), 10u);
  EXPECT_EQ(b.total_instr(), 70u);
  const auto c = RefBlock::compute(123);
  EXPECT_EQ(c.total_refs(), 0u);
  EXPECT_EQ(c.total_instr(), 123u);
  StreamRef s[2] = {{0, 3, false}, {0x1000, 5, true}};
  const auto i = RefBlock::interleave(s, 2, 128, 2);
  EXPECT_EQ(i.total_refs(), 8u);
  EXPECT_EQ(i.total_instr(), 16u);
}

TEST(Trace, EmptyCursor) {
  TraceCursor c;
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.next().kind, TraceOp::kDone);
}

TEST(Trace, InstrPerRefFloorOfOne) {
  const auto b = RefBlock::stride_ref(0, 1, 128, false, 0);
  EXPECT_EQ(b.instr_per_ref, 1u);
}

TEST(Trace, PackedRefIs32Bytes) {
  static_assert(sizeof(PackedRef) == 32);
  EXPECT_EQ(sizeof(PackedRef), 32u);
}

TEST(Trace, PackPreservesKindAndTotals) {
  StreamRef s[3] = {{0x100, 3, false}, {0x2000, 5, true}, {0x30000, 2, false}};
  const RefBlock originals[] = {
      RefBlock::compute(4242),
      RefBlock::stride_ref(0xABC000, 77, -256, true, 9),
      RefBlock::stride_ref(0xABC000, 77, 128, false, 9, /*period=*/11),
      RefBlock::random_ref(0x8000, 1 << 16, 1234, 0xDEADBEEF, false, 3),
      RefBlock::interleave(s, 3, 64, 2),
  };
  std::vector<InterleaveSide> side;
  for (const RefBlock& b : originals) {
    const PackedRef p = pack_ref(b, &side);
    EXPECT_EQ(p.kind(), b.kind);
    EXPECT_EQ(p.total_instr(), b.total_instr());
    EXPECT_EQ(p.total_refs(), b.total_refs());
  }
}

TEST(Trace, PackRejectsOversizedInstrPerRef) {
  RefBlock b = RefBlock::stride_ref(0, 1, 128, false, 1);
  b.instr_per_ref = PackedRef::kIprMask + 1;
  std::vector<InterleaveSide> side;
  EXPECT_THROW(pack_ref(b, &side), std::invalid_argument);
}

// An interleave block of 2^31 or more references would overflow
// interleave_expand's error terms; pack_ref refuses it, including the pair
// whose uint32 count wraps to 0 in RefBlock::interleave.
TEST(Trace, PackRejectsOversizedInterleave) {
  constexpr uint32_t kHalf = 1u << 31;
  std::vector<InterleaveSide> side;
  const StreamRef one[1] = {{0, kHalf, false}};
  EXPECT_THROW(pack_ref(RefBlock::interleave(one, 1, 128, 1), &side),
               std::invalid_argument);
  const StreamRef two[2] = {{0, kHalf, false}, {1ull << 40, kHalf, true}};
  const RefBlock wrapped = RefBlock::interleave(two, 2, 128, 1);
  EXPECT_EQ(wrapped.count, 0u);
  EXPECT_THROW(pack_ref(wrapped, &side), std::invalid_argument);
  EXPECT_TRUE(side.empty());
  const StreamRef below[2] = {{0, kHalf - 2, false}, {1ull << 40, 1, true}};
  EXPECT_NO_THROW(pack_ref(RefBlock::interleave(below, 2, 128, 1), &side));
}

// pack_ref compacts an interleave block to its non-empty streams, in
// order; the slots past num_streams keep 0 lines, so interleave_expand's
// error terms for them never come due.
TEST(Trace, PackCompactsInterleave) {
  auto pack = [](std::initializer_list<uint32_t> lines) {
    StreamRef s[kMaxStreams];
    int ns = 0;
    for (uint32_t l : lines) {
      s[ns] = {0x1000u * (ns + 1), l, ns == 1};
      ++ns;
    }
    std::vector<InterleaveSide> side;
    pack_ref(RefBlock::interleave(s, ns, 128, 1), &side);
    return side.at(0);
  };
  auto absent_are_empty = [](const InterleaveSide& r) {
    for (int k = r.num_streams; k < kMaxStreams; ++k) {
      if (r.lines[k] != 0) return false;
    }
    return true;
  };
  for (const InterleaveSide& r : {pack({0}), pack({0, 0})}) {
    EXPECT_EQ(r.num_streams, 0u);
    EXPECT_TRUE(absent_are_empty(r));
  }
  EXPECT_EQ(pack({7}).num_streams, 1u);
  // An empty stream never emits, so it is compacted away.
  const InterleaveSide one = pack({0, 9});
  EXPECT_EQ(one.num_streams, 1u);
  EXPECT_EQ(one.base[0], 0x2000u);
  EXPECT_EQ(one.lines[0], 9u);
  EXPECT_TRUE(one.write[0]);
  EXPECT_TRUE(absent_are_empty(one));
  EXPECT_EQ(pack({5, 5}).num_streams, 2u);
  const InterleaveSide pair = pack({5, 0, 6});
  EXPECT_EQ(pair.num_streams, 2u);
  EXPECT_EQ(pair.base[1], 0x3000u);
  EXPECT_EQ(pair.lines[1], 6u);
  EXPECT_TRUE(absent_are_empty(pair));
  EXPECT_EQ(pack({5, 6, 11}).num_streams, 3u);
}

// The cursor and the engine both read the record pack_ref builds, so their
// equality tests cannot see a compaction bug. This one checks the cursor
// against a naive first-behind loop over each descriptor's own streams,
// empty ones included: stream k is due at step i once
// (em_k + 1) * n <= (i + 1) * L_k, the first due stream is picked, and a
// rounding gap takes the first unfinished stream.
TEST(Trace, CompactedInterleaveMatchesDescriptorStreams) {
  Xoshiro256 rng(21);
  for (int iter = 0; iter < 400; ++iter) {
    const int ns = 1 + static_cast<int>(rng.next_below(3));
    StreamRef s[kMaxStreams];
    for (int k = 0; k < ns; ++k) {
      const uint64_t r = rng.next_below(900);  // a third of streams empty
      const uint32_t lines = r < 300 ? 0 : static_cast<uint32_t>(r % 300) + 1;
      s[k] = {rng.next() & 0xFFFFFF00, lines, rng.next_below(2) == 0};
    }
    const RefBlock blk = RefBlock::interleave(s, ns, 64, 3);
    const uint64_t n = blk.count;
    std::vector<TraceOp> want;
    uint64_t em[kMaxStreams] = {0, 0, 0};
    for (uint64_t i = 0; i < n; ++i) {
      int pick = -1;
      for (int k = 0; k < ns && pick < 0; ++k) {
        if ((em[k] + 1) * n <= (i + 1) * s[k].lines) pick = k;
      }
      for (int k = 0; k < ns && pick < 0; ++k) {
        if (em[k] < s[k].lines) pick = k;
      }
      ASSERT_GE(pick, 0);
      TraceOp op;
      op.kind = TraceOp::kMem;
      op.addr = s[pick].base + em[pick]++ * 64;
      op.instr = 3;
      op.is_write = s[pick].is_write;
      want.push_back(op);
    }
    const std::vector<TraceOp> got = expand({blk});
    ASSERT_EQ(got.size(), want.size()) << "iteration " << iter;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].kind, want[i].kind) << "iteration " << iter;
      ASSERT_EQ(got[i].addr, want[i].addr) << "iteration " << iter;
      ASSERT_EQ(got[i].instr, want[i].instr);
      ASSERT_EQ(got[i].is_write, want[i].is_write);
    }
  }
}

// The engine's interleave refill (interleave_expand over the block's
// InterleaveSide record) must emit byte-for-byte the schedule of
// the reference implementation, TraceCursor::next(), for every stream
// configuration and from any resume boundary. Property test: random
// 1-3-stream blocks (including empty streams, equal lines, extreme
// imbalance), expanded in randomly sized chunks, against a cursor.
TEST(Trace, InterleaveExpandMatchesCursorRandomized) {
  Xoshiro256 rng(2024);
  for (int iter = 0; iter < 400; ++iter) {
    const int ns = 1 + static_cast<int>(rng.next_below(3));
    StreamRef s[kMaxStreams];
    uint32_t total = 0;
    for (int i = 0; i < ns; ++i) {
      uint32_t lines;
      switch (rng.next_below(4)) {
        case 0: lines = 0; break;                  // empty stream
        case 1: lines = 1 + rng.next_below(4); break;
        case 2: lines = 1 + rng.next_below(64); break;
        default: lines = 1 + rng.next_below(2000); break;
      }
      if (ns == 2 && i == 1 && rng.next_below(3) == 0) {
        lines = s[0].lines;  // equal lengths: strict alternation
      }
      s[i] = {rng.next() & 0xFFFFFF00, lines, rng.next_below(2) == 0};
      total += lines;
    }
    if (total == 0) continue;
    const uint32_t lb = rng.next_below(2) == 0 ? 64 : 128;
    const RefBlock blk = RefBlock::interleave(s, ns, lb, 2);
    std::vector<InterleaveSide> side;
    const PackedRef packed = pack_ref(blk, &side);
    const InterleaveSide& rec = side[0];
    ASSERT_GT(rec.num_streams, 0u);

    TraceCursor cur(&packed, 1, side.data());
    uint32_t em[kMaxStreams] = {0, 0, 0};
    uint32_t i = 0;
    while (i < total) {
      const uint32_t chunk = std::min<uint32_t>(
          total - i, 1 + static_cast<uint32_t>(rng.next_below(97)));
      interleave_expand(rec, total, i, i + chunk, em,
                        [&](uint64_t addr, int cs) {
                          const TraceOp op = cur.next();
                          ASSERT_EQ(op.kind, TraceOp::kMem);
                          ASSERT_EQ(op.addr, addr);
                          ASSERT_EQ(op.is_write, rec.write[cs]);
                        });
      i += chunk;
    }
    EXPECT_EQ(cur.next().kind, TraceOp::kDone);
  }
}

// The engine's batched expander (engine_detail::TraceExpander) must emit
// TraceCursor's stream for wrapped stride blocks: random count, period and
// signed strides, followed by a plain block so the block advance after a
// wrapped block is covered too. Every split point of the stream is a
// batch boundary once, including each wrap point (multiples of period).
TEST(Trace, WrappedStrideExpanderMatchesCursor) {
  Xoshiro256 rng(16);
  for (int iter = 0; iter < 200; ++iter) {
    const uint32_t period = 1 + static_cast<uint32_t>(rng.next_below(24));
    const uint32_t count =
        static_cast<uint32_t>(rng.next_below(uint64_t{5} * period + 3));
    const int64_t stride =
        (rng.next_below(2) == 0 ? -1 : 1) *
        static_cast<int64_t>(rng.next_below(3) == 0 ? 1 + rng.next_below(4096)
                                                    : 128);
    const uint64_t base = (uint64_t{1} << 40) + (rng.next() & 0xFFFFFF00);
    std::vector<InterleaveSide> side;
    const PackedRef blocks[] = {
        pack_ref(RefBlock::stride_ref(base, count, stride,
                                      rng.next_below(2) == 0, 3, period),
                 &side),
        pack_ref(RefBlock::stride_ref(0x5000, 3, 128, true, 1), &side)};
    std::vector<engine_detail::BufOp> want;
    TraceCursor cur(blocks, 2, side.data());
    for (TraceOp op = cur.next(); op.kind != TraceOp::kDone; op = cur.next()) {
      want.push_back(
          {op.addr, static_cast<uint32_t>(op.instr) |
                        (op.is_write ? engine_detail::kBufWrite : 0u)});
    }
    ASSERT_EQ(want.size(), count + 3u);
    const engine_detail::TraceExpander ex{side.data(), /*line_shift=*/0};
    for (size_t split = 0; split <= want.size(); ++split) {
      uint32_t bi = 0;
      uint32_t ri = 0;
      uint32_t em[3] = {0, 0, 0};
      engine_detail::BufOp buf[engine_detail::kBufOps];
      std::vector<engine_detail::BufOp> got;
      int cap = split == 0 ? engine_detail::kBufOps : static_cast<int>(split);
      for (int n; (n = ex.expand(blocks, 2, bi, ri, em, buf, cap)) > 0;) {
        got.insert(got.end(), buf, buf + n);
        cap = engine_detail::kBufOps;
      }
      ASSERT_EQ(got.size(), want.size()) << "split " << split;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].v, want[i].v) << "split " << split << " ref " << i;
        ASSERT_EQ(got[i].meta, want[i].meta) << "split " << split;
      }
    }
  }
}

}  // namespace
}  // namespace cachesched
