#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "simarch/cache.h"
#include "util/rng.h"

namespace cachesched {
namespace {

TEST(Cache, RequiresPowerOfTwoSets) {
  EXPECT_THROW(SetAssocCache(3, 4), std::invalid_argument);
  EXPECT_THROW(SetAssocCache(0, 4), std::invalid_argument);
  EXPECT_NO_THROW(SetAssocCache(4, 3));  // ways may be arbitrary
}

TEST(Cache, MissThenHit) {
  SetAssocCache c(4, 2);
  EXPECT_EQ(c.probe(42), nullptr);
  EXPECT_EQ(c.access(42), nullptr);
  SetAssocCache::Line* e = nullptr;
  c.install(42, false, &e);
  EXPECT_EQ(c.probe(42), e);
  EXPECT_EQ(c.access(42), e);
  EXPECT_EQ(e->tag, 42u);
}

TEST(Cache, LruEvictionOrder) {
  SetAssocCache c(1, 2);  // fully associative, 2 lines
  c.install(1, false, nullptr);
  c.install(2, false, nullptr);
  c.access(1);                      // 1 is now MRU
  auto ev = c.install(3, false, nullptr);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 2u);           // LRU evicted
  EXPECT_NE(c.probe(1), nullptr);
  EXPECT_EQ(c.probe(2), nullptr);
  EXPECT_NE(c.probe(3), nullptr);
}

TEST(Cache, SetIndexingConflicts) {
  SetAssocCache c(4, 1);  // direct-mapped, 4 sets
  c.install(0, false, nullptr);   // set 0
  c.install(4, false, nullptr);   // also set 0: evicts line 0
  EXPECT_EQ(c.probe(0), nullptr);
  EXPECT_NE(c.probe(4), nullptr);
  c.install(1, false, nullptr);   // set 1: does not disturb set 0
  EXPECT_NE(c.probe(4), nullptr);
}

TEST(Cache, EvictionReportsDirtyAndPresence) {
  SetAssocCache c(1, 1);
  SetAssocCache::Line* e;
  c.install(7, true, &e);
  e->presence = 0b101;
  auto ev = c.install(8, false, nullptr);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 7u);
  EXPECT_TRUE(ev.dirty);
  EXPECT_EQ(ev.presence, 0b101u);
}

TEST(Cache, InvalidateClearsTheEntry) {
  SetAssocCache c(2, 2);
  SetAssocCache::Line* e = nullptr;
  c.install(10, true, &e);
  e->presence = 0b11;
  c.install(12, false, nullptr);
  c.invalidate(e);
  EXPECT_EQ(c.probe(10), nullptr);
  EXPECT_EQ(e->tag, SetAssocCache::kInvalidTag);  // the slot holds nothing
  EXPECT_FALSE(e->dirty);
  EXPECT_EQ(e->presence, 0u);
  EXPECT_NE(c.probe(12), nullptr);  // the set's other line is untouched
}

TEST(Cache, InstallPrefersInvalidWays) {
  SetAssocCache c(1, 3);
  c.install(1, false, nullptr);
  c.install(2, false, nullptr);
  c.invalidate(c.probe(1));
  auto ev = c.install(3, false, nullptr);
  EXPECT_FALSE(ev.valid);  // reused the invalid slot, no eviction
  EXPECT_NE(c.probe(2), nullptr);
}

TEST(Cache, HighAssociativityScan) {
  // Paper configs use up to 28 ways; exercise a full wide set.
  SetAssocCache c(1, 28);
  for (uint64_t l = 0; l < 28; ++l) c.install(l, false, nullptr);
  for (uint64_t l = 0; l < 28; ++l) ASSERT_NE(c.access(l), nullptr) << l;
  auto ev = c.install(100, false, nullptr);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 0u);  // the least recently touched
}

TEST(Cache, WideAssociativityFallback) {
  // > 255 ways switches to the timestamp-LRU path (theorem_test's ideal
  // caches, oracle_test's 300-way L2); semantics must be unchanged.
  SetAssocCache c(1, 300);
  for (uint64_t l = 0; l < 300; ++l) c.install(l, false, nullptr);
  c.access(0);  // 0 becomes MRU; 1 is now the LRU line
  auto ev = c.install(1000, false, nullptr);
  ASSERT_TRUE(ev.valid);
  EXPECT_EQ(ev.line, 1u);
  EXPECT_NE(c.probe(0), nullptr);
  EXPECT_EQ(c.probe(1), nullptr);
  c.invalidate(c.probe(2));
  EXPECT_EQ(c.probe(2), nullptr);
  ev = c.install(1001, false, nullptr);
  EXPECT_FALSE(ev.valid);  // filled the way line 2 left
  EXPECT_NE(c.probe(3), nullptr);
}

// Drives a cache through every entry point the engine uses — access,
// access_or_install, install, probe and invalidate(Line*) — against a
// simple per-set true-LRU reference model, checking each hit and victim.
void lru_stress(uint64_t sets, int ways, uint64_t lines, uint64_t seed) {
  SetAssocCache c(sets, ways);
  std::vector<std::vector<uint64_t>> ref(sets);  // MRU at front
  SplitMix64 rng(seed);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t line = rng.next() % lines;
    auto& v = ref[line % sets];
    const auto it = std::find(v.begin(), v.end(), line);
    const bool ref_hit = it != v.end();
    const uint64_t op = rng.next() % 8;
    if (op == 0) {
      SetAssocCache::Line* e = c.probe(line);
      ASSERT_EQ(e != nullptr, ref_hit) << "iteration " << i;
      if (e != nullptr) {
        c.invalidate(e);
        v.erase(it);
      }
      continue;
    }
    if (ref_hit) v.erase(it);
    v.insert(v.begin(), line);
    bool ref_evict = false;
    uint64_t ref_victim = 0;
    if (v.size() > static_cast<size_t>(ways)) {
      ref_evict = true;
      ref_victim = v.back();
      v.pop_back();
    }
    SetAssocCache::Evicted ev;
    if (op & 1) {
      SetAssocCache::Line* e = nullptr;
      ASSERT_EQ(c.access_or_install(line, false, &e, &ev), ref_hit)
          << "iteration " << i;
      ASSERT_EQ(e->tag, line);
      if (ref_hit) continue;
    } else if (c.access(line) != nullptr) {
      ASSERT_TRUE(ref_hit) << "iteration " << i;
      continue;
    } else {
      ASSERT_FALSE(ref_hit) << "iteration " << i;
      ev = c.install(line, false, nullptr);
    }
    ASSERT_EQ(ev.valid, ref_evict) << "iteration " << i;
    if (ref_evict) ASSERT_EQ(ev.line, ref_victim) << "iteration " << i;
  }
}

TEST(Cache, LruStressAgainstReferenceModel) {
  lru_stress(4, 4, 64, 11);     // the L1s: one order word per set
  lru_stress(4, 8, 96, 14);     // one full order word
  lru_stress(2, 16, 96, 15);    // two words (the 2-, 4- and 8-core L2s)
  lru_stress(2, 20, 64, 12);    // a partly used third word (16/32 cores)
  lru_stress(2, 28, 128, 16);   // Table 3's widest L2 (12 cores)
  lru_stress(1, 300, 400, 13);  // timestamp-LRU path (> 255 ways)
}

}  // namespace
}  // namespace cachesched
