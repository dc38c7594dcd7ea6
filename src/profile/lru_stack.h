// LRU stack model with cheap stack-distance queries — the core of the
// paper's one-pass "LruTree" working-set profiler (§6.1).
//
// For each memory reference the model returns (a) the reuse distance: the
// number of distinct lines referenced since the previous access to this
// line (infinite for cold accesses), and (b) the id of the task that last
// visited the line. A reference hits in a fully-associative LRU cache of
// capacity C lines iff distance < C.
//
// Implementation: the paper builds a B-tree over the LRU
// stack's linked list to count distances; we keep a live-bit per
// timestamp slot in a hierarchical blocked-popcount bit-set
// (util/bitrank.h) with periodic batched compaction — identical outputs
// and asymptotics (Mattson's algorithm). A reference's distance is the
// count of live slots after its previous one; the blocked counts make
// that walk proportional to the distance itself (short reuse is a
// handful of ops) where the earlier Fenwick-over-timestamps formulation
// paid log(n) scattered memory probes on every query *and* update.
//
// The line -> (slot, last task) map is *paged*: lines share a page block
// of 512 consecutive lines, found through a small open-addressed page
// table (plus a last-page memo). Real traces are stream-heavy, so
// consecutive references land in the same 8 KB block and the map stays
// in the host's cache — a flat hash of the line scattered every lookup
// and was the profiler's residual bottleneck after the Fenwick was gone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/types.h"
#include "util/bitrank.h"

namespace cachesched {

struct StackRef {
  /// Distinct lines touched since the previous access to this line;
  /// kColdDistance for a first access.
  uint64_t distance = 0;
  /// Task that last visited this line (kNoTask for a first access).
  TaskId prev_task = kNoTask;

  static constexpr uint64_t kColdDistance =
      std::numeric_limits<uint64_t>::max();
  bool cold() const { return distance == kColdDistance; }
};

class LruStackModel {
 public:
  explicit LruStackModel(size_t initial_capacity = 1 << 16);

  /// Processes an access to `line` by `task`; returns the pre-access state.
  StackRef access(uint64_t line, TaskId task);

  /// Distinct lines seen so far.
  uint64_t distinct_lines() const { return lines_; }

  uint64_t accesses() const { return accesses_; }

 private:
  static constexpr int kPageBits = 9;  // 512 lines per page block
  static constexpr uint64_t kPageLines = uint64_t{1} << kPageBits;
  static constexpr uint64_t kFreeSlot = ~uint64_t{0};
  static constexpr uint32_t kNoBlock = ~uint32_t{0};

  /// Per-line state: timestamp slot of the last access (kFreeSlot =
  /// line never seen) and the last visiting task.
  struct Entry {
    uint64_t slot;
    TaskId last_task;
  };
  struct PageRef {  // open-addressed page-table entry
    uint64_t page;
    uint32_t block = kNoBlock;  // index into blocks_ (kNoBlock = empty)
  };

  Entry* page_block(uint64_t page);
  void compact();

  std::vector<PageRef> pages_;          // power-of-two open-addressed
  uint64_t page_mask_ = 0;
  uint64_t num_pages_ = 0;
  std::vector<std::vector<Entry>> blocks_;  // kPageLines entries each
  uint64_t last_page_ = ~uint64_t{0};   // memo: streams revisit one page
  Entry* last_block_ = nullptr;
  uint64_t lines_ = 0;                  // distinct lines seen
  BitRank live_;                        // 1 at every line's last slot
  uint64_t capacity_ = 0;               // slot capacity (= live_.size())
  uint64_t time_ = 0;                   // next slot
  uint64_t accesses_ = 0;
};

}  // namespace cachesched
