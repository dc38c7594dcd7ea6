// The size-bucketed LRU stack (profile/bucketed_stack.h) against a naive
// O(n) LRU list that shares none of its code: every access's bucket must
// equal upper_bound(sizes, naive reuse distance), and its previous
// visitor must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <vector>

#include "profile/bucketed_stack.h"
#include "util/rng.h"

namespace cachesched {
namespace {

constexpr uint64_t kCold = ~uint64_t{0};

// Naive oracle: an explicit LRU stack (most recent at front) that reports
// exact reuse distances.
class NaiveStack {
 public:
  struct Ref {
    uint64_t distance = kCold;
    TaskId prev_task = kNoTask;
  };

  Ref access(uint64_t line, TaskId task) {
    Ref out;
    uint64_t d = 0;
    for (auto it = stack_.begin(); it != stack_.end(); ++it, ++d) {
      if (it->line == line) {
        out.distance = d;
        out.prev_task = it->task;
        stack_.erase(it);
        break;
      }
    }
    stack_.push_front({line, task});
    return out;
  }

 private:
  struct Node {
    uint64_t line;
    TaskId task;
  };
  std::list<Node> stack_;
};

uint32_t expected_bucket(const std::vector<uint64_t>& sizes,
                         uint64_t distance) {
  if (distance == kCold) return BucketRef::kCold;
  return static_cast<uint32_t>(
      std::upper_bound(sizes.begin(), sizes.end(), distance) - sizes.begin());
}

TaskId task_of(size_t i) { return static_cast<TaskId>(i / 16); }

/// The naive stack's answer for every access of `lines` (task = index /
/// 16); it does not depend on the sizes, so one replay serves them all.
std::vector<NaiveStack::Ref> naive_refs(const std::vector<uint64_t>& lines) {
  NaiveStack naive;
  std::vector<NaiveStack::Ref> refs;
  for (size_t i = 0; i < lines.size(); ++i) {
    refs.push_back(naive.access(lines[i], task_of(i)));
  }
  return refs;
}

void check_against_naive(const std::vector<uint64_t>& sizes,
                         const std::vector<uint64_t>& lines,
                         const std::vector<NaiveStack::Ref>& naive,
                         const char* what) {
  BucketedLruStack stack(sizes);
  for (size_t i = 0; i < lines.size(); ++i) {
    const BucketRef a = stack.access(lines[i], task_of(i));
    ASSERT_EQ(a.bucket, expected_bucket(sizes, naive[i].distance))
        << what << " k=" << sizes.size() << " i=" << i;
    ASSERT_EQ(a.prev_task, naive[i].prev_task) << what << " i=" << i;
  }
}

TEST(LruStack, ColdThenReuse) {
  BucketedLruStack m({1, 2});
  EXPECT_TRUE(m.access(1, 0).cold());
  EXPECT_TRUE(m.access(2, 0).cold());
  // Re-access 1: one distinct line (2) in between, so distance 1 fits
  // under the second size only.
  const BucketRef r = m.access(1, 1);
  EXPECT_EQ(r.bucket, 1u);
  EXPECT_EQ(r.prev_task, 0u);
  // Immediately again: distance 0, previous task updated.
  const BucketRef r2 = m.access(1, 2);
  EXPECT_EQ(r2.bucket, 0u);
  EXPECT_EQ(r2.prev_task, 1u);
}

TEST(LruStack, RepeatedAccessesDontInflateDistance) {
  BucketedLruStack m({2});
  m.access(1, 0);
  for (int i = 0; i < 10; ++i) m.access(2, 0);  // one distinct line
  EXPECT_EQ(m.access(1, 0).bucket, 0u);
}

TEST(LruStack, SequentialScanBuckets) {
  // A scan of N lines then a re-scan: every re-access has distance N-1.
  constexpr uint64_t kN = 500;
  BucketedLruStack m({100, kN - 1, kN});
  for (uint64_t l = 0; l < kN; ++l) m.access(l, 0);
  for (uint64_t l = 0; l < kN; ++l) EXPECT_EQ(m.access(l, 1).bucket, 2u);
}

TEST(LruStack, LineBeyondTheLargestSizeKeepsItsPreviousTask) {
  BucketedLruStack m({4});
  for (uint64_t l = 0; l < 10; ++l) m.access(l, static_cast<TaskId>(l));
  const BucketRef r = m.access(0, 10);  // distance 9 >= 4
  EXPECT_EQ(r.bucket, 1u);
  EXPECT_FALSE(r.cold());
  EXPECT_EQ(r.prev_task, 0u);
}

TEST(LruStack, RejectsBadSizes) {
  EXPECT_THROW(BucketedLruStack({}), std::invalid_argument);
  EXPECT_THROW(BucketedLruStack({0, 4}), std::invalid_argument);
  EXPECT_THROW(BucketedLruStack({4, 4}), std::invalid_argument);
  EXPECT_THROW(BucketedLruStack({8, 4}), std::invalid_argument);
}

// Property test against the naive O(n) stack across a matrix of access
// shapes and size sets: fixed sets with 1-line segments, and random sets
// with k in 1..4. Line values are spread over distant regions so the paged
// line map must handle page-table growth and page-boundary neighbours,
// not just one hot page.
TEST(LruStack, MatchesNaiveAcrossPatternsAndSizeSets) {
  struct Pattern {
    const char* name;
    uint64_t (*line)(Xoshiro256&, int);
  };
  const Pattern patterns[] = {
      {"uniform",
       [](Xoshiro256& rng, int) { return rng.next_below(700); }},
      {"streams",  // interleaved sequential sweeps of far-apart regions
       [](Xoshiro256& rng, int i) {
         const uint64_t region = rng.next_below(3);
         return region * (uint64_t{1} << 40) + static_cast<uint64_t>(i) / 3;
       }},
      {"page-edges",  // cluster around 512-line page boundaries
       [](Xoshiro256& rng, int) {
         const uint64_t page = rng.next_below(64);
         return page * 512 + (rng.next_below(2) == 0
                                  ? 511
                                  : rng.next_below(2) * 510);
       }},
      {"mixed-hot-cold", [](Xoshiro256& rng, int) {
         return rng.next_below(100) < 70
                    ? rng.next_below(8)
                    : (uint64_t{1} << 33) + rng.next_below(4000);
       }},
      {"far-above-largest",  // 3000 lines, far above most sizes below
       [](Xoshiro256& rng, int) { return rng.next_below(3000); }},
  };
  std::vector<std::vector<uint64_t>> size_sets = {
      {1}, {1, 2, 3, 4}, {8}, {4, 5, 64, 65}, {16, 256}, {1, 30, 31, 1024}};
  // Each random segment is 1 line about a third of the time.
  Xoshiro256 size_rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const uint64_t k = 1 + size_rng.next_below(4);
    std::vector<uint64_t> sizes;
    uint64_t size = 0;
    for (uint64_t j = 0; j < k; ++j) {
      size += size_rng.next_below(3) == 0 ? 1 : 1 + size_rng.next_below(40);
      sizes.push_back(size);
    }
    size_sets.push_back(sizes);
  }
  for (const Pattern& p : patterns) {
    Xoshiro256 rng(99);
    std::vector<uint64_t> lines(20000);
    for (int i = 0; i < 20000; ++i) lines[i] = p.line(rng, i);
    const std::vector<NaiveStack::Ref> naive = naive_refs(lines);
    for (const std::vector<uint64_t>& sizes : size_sets) {
      check_against_naive(sizes, lines, naive, p.name);
    }
  }
}

}  // namespace
}  // namespace cachesched
