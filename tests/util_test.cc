#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitrank.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace cachesched {
namespace {

// BitRank (the LruTree profiler's counter structure) against a plain
// vector-of-bools reference, across every walk shape count_range takes
// (same word, block-internal, block-spanning, super-spanning).
TEST(BitRank, MatchesNaiveBitsRandomized) {
  constexpr uint64_t kN = 3 * 32768 + 777;  // spans >3 supers, odd tail
  BitRank r(kN);
  std::vector<bool> ref(kN, false);
  Xoshiro256 rng(7);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t pos = rng.next_below(kN);
    if (ref[pos]) {
      r.clear(pos);
      ref[pos] = false;
    } else {
      r.set(pos);
      ref[pos] = true;
    }
    if (i % 16 == 0) {
      uint64_t lo = rng.next_below(kN);
      uint64_t hi = rng.next_below(kN + 1);
      if (lo > hi) std::swap(lo, hi);
      uint64_t expect = 0;
      for (uint64_t j = lo; j < hi; ++j) expect += ref[j];
      ASSERT_EQ(r.count_range(lo, hi), expect) << lo << ".." << hi;
    }
  }
}

TEST(BitRank, CountRangeEdges) {
  BitRank r(1024);
  EXPECT_EQ(r.count_range(0, 0), 0u);
  EXPECT_EQ(r.count_range(500, 500), 0u);
  r.set(0);
  r.set(63);
  r.set(64);
  r.set(1023);
  EXPECT_EQ(r.count_range(0, 1024), 4u);
  EXPECT_EQ(r.count_range(0, 64), 2u);    // same-word span
  EXPECT_EQ(r.count_range(63, 65), 2u);   // word boundary
  EXPECT_EQ(r.count_range(1, 1023), 2u);
  r.clear(64);
  EXPECT_EQ(r.count_range(0, 1024), 3u);
}

TEST(BitRank, BlockPrefix) {
  BitRank r(4 * BitRank::kBlockSlots);
  r.set(1);
  r.set(BitRank::kBlockSlots);      // first slot of block 1
  r.set(BitRank::kBlockSlots - 1);  // last slot of block 0
  r.set(3 * BitRank::kBlockSlots + 5);
  std::vector<uint64_t> prefix;
  r.block_prefix(&prefix);
  ASSERT_EQ(prefix.size(), 5u);
  EXPECT_EQ(prefix[0], 0u);
  EXPECT_EQ(prefix[1], 2u);
  EXPECT_EQ(prefix[2], 3u);
  EXPECT_EQ(prefix[3], 3u);
  EXPECT_EQ(prefix[4], 4u);
}

TEST(BitRank, Popcount64) {
  EXPECT_EQ(BitRank::popcount64(0), 0u);
  EXPECT_EQ(BitRank::popcount64(~uint64_t{0}), 64u);
  EXPECT_EQ(BitRank::popcount64(0x8000000000000001ULL), 2u);
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.next();
    uint64_t n = 0;
    for (int b = 0; b < 64; ++b) n += (v >> b) & 1;
    ASSERT_EQ(BitRank::popcount64(v), n);
  }
}

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMixSeedSensitivity) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_EQ(same, 0);
}

TEST(Rng, Mix64IsPure) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
}

TEST(Rng, XoshiroBelowBoundIsUniformish) {
  Xoshiro256 rng(7);
  constexpr uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.next_below(kBound)];
  for (uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(counts[v], kN / kBound, kN / kBound * 0.15) << "value " << v;
  }
}

TEST(Rng, XoshiroDoubleInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

CliArgs make_args(std::vector<std::string> argv) {
  std::vector<char*> ptrs;
  for (auto& s : argv) ptrs.push_back(s.data());
  return CliArgs(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(Cli, KeyValueForms) {
  auto args = make_args({"prog", "--a=1", "--b", "2", "--flag"});
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_EQ(args.get_int("b", 0), 2);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Cli, IntList) {
  auto args = make_args({"prog", "--cores=1,2,4,8"});
  EXPECT_EQ(args.get_int_list("cores", {}),
            (std::vector<int64_t>{1, 2, 4, 8}));
  auto def = make_args({"prog"});
  EXPECT_EQ(def.get_int_list("cores", {16}), (std::vector<int64_t>{16}));
}

TEST(Cli, UnusedDetection) {
  auto args = make_args({"prog", "--used=1", "--typo=2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, RejectsPositional) {
  EXPECT_THROW(make_args({"prog", "oops"}), std::invalid_argument);
}

TEST(Cli, QueriedRecordsFlagVocabulary) {
  auto args = make_args({"prog", "--a=1"});
  args.get_int("a", 0);
  args.get("beta", "");
  args.has("gamma");
  auto q = args.queried();
  std::sort(q.begin(), q.end());
  EXPECT_EQ(q, (std::vector<std::string>{"a", "beta", "gamma"}));
}

TEST(Cli, NearestFlagSuggestsCloseTypos) {
  const std::vector<std::string> flags = {"scale",  "scales", "scheds",
                                          "cores",  "store",  "resume",
                                          "shard",  "csv",    "json"};
  EXPECT_EQ(nearest_flag("shcale", flags), "scale");   // transposition
  EXPECT_EQ(nearest_flag("scal", flags), "scale");     // deletion
  EXPECT_EQ(nearest_flag("coers", flags), "cores");
  EXPECT_EQ(nearest_flag("resumee", flags), "resume");
  EXPECT_EQ(nearest_flag("stroe", flags), "store");
}

TEST(Cli, NearestFlagRejectsDistantNames) {
  const std::vector<std::string> flags = {"scale", "cores", "json"};
  EXPECT_EQ(nearest_flag("threads", flags), "");
  EXPECT_EQ(nearest_flag("x", flags), "");  // distance >= length of typo
  EXPECT_EQ(nearest_flag("", flags), "");
  EXPECT_EQ(nearest_flag("scale", {}), "");
}

TEST(Cli, NearestFlagTiesAreDeterministic) {
  // "ab" is distance 1 from both "aa" and "ac"; first candidate wins.
  EXPECT_EQ(nearest_flag("ab", {"aa", "ac"}), "aa");
  EXPECT_EQ(nearest_flag("ab", {"ac", "aa"}), "ac");
}

TEST(Table, RendersAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\nb,22.5\n");
}

TEST(Table, ArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(uint64_t{42}), "42");
}

TEST(Table, EmitThrowsWhenCsvCannotBeWritten) {
  Table t({"a"});
  t.add_row({"1"});
  const std::string path = ::testing::TempDir() + "no-such-dir/x.csv";
  EXPECT_THROW(t.emit(path), std::runtime_error);
}

}  // namespace
}  // namespace cachesched
