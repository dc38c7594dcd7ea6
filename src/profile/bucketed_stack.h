// Size-bucketed LRU stack: the reuse-distance primitive of the one-pass
// working-set profiler (ws_profiler.h, the paper's LruTree, §6.1) and of
// SetAssocProfiler's fully associative cache.
//
// A reference's reuse distance is the number of distinct lines touched
// since the previous access to its line; it hits in a fully associative
// LRU cache of C lines iff distance < C. The paper's LruTree counts every
// distance exactly. Here the candidate sizes D1 < ... < Dk are fixed at
// construction, and a caller only asks which of them a distance fits
// under: its bucket, upper_bound(D, distance). By Mattson's inclusion
// property a line's distance is its position in the LRU stack (0 = most
// recent), so the bucket is the segment that position falls in when the
// stack is cut at D1..Dk. The stack therefore keeps one recency list of
// the Dk most recent lines, with a marker on the last line of each full
// segment. An access moves its line to the front, and the last line of
// every segment before the line's old one crosses into the next segment:
// O(bucket) <= O(k) work per reference, whatever the distance.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/types.h"
#include "profile/line_map.h"

namespace cachesched {

struct BucketRef {
  static constexpr uint32_t kCold = ~uint32_t{0};
  /// Index of the smallest size the reuse distance is below (the number of
  /// sizes if none); kCold for a line's first access.
  uint32_t bucket = kCold;
  /// Task that last visited the line (kNoTask for a first access).
  TaskId prev_task = kNoTask;

  bool cold() const { return bucket == kCold; }
};

class BucketedLruStack {
 public:
  /// `sizes` in lines, strictly increasing and at least one line.
  explicit BucketedLruStack(std::vector<uint64_t> sizes)
      : sizes_(std::move(sizes)),
        tail_(sizes_.size(), kSentinel),
        lines_(Line{}),
        nodes_(1) {
    if (sizes_.empty() || sizes_[0] == 0) {
      throw std::invalid_argument("need sizes of at least one line");
    }
    for (size_t j = 1; j < sizes_.size(); ++j) {
      if (sizes_[j] <= sizes_[j - 1]) {
        throw std::invalid_argument("sizes must be strictly increasing");
      }
    }
  }

  /// Processes an access to `line` by `task`; returns the pre-access state.
  BucketRef access(uint64_t line, TaskId task) {
    const uint32_t slot = lines_.slot(line);
    Line& e = lines_.at(slot);
    BucketRef out;
    out.prev_task = e.last_task;
    e.last_task = task;
    if (e.node < kEvicted) {
      const uint32_t x = e.node;
      out.bucket = nodes_[x].seg;
      if (nodes_[kSentinel].next == x) return out;  // already the front
      if (tail_[out.bucket] == x) tail_[out.bucket] = nodes_[x].prev;
      unlink(x);
      push_front(x);
      shift_markers(out.bucket);
      return out;
    }
    const uint32_t k = static_cast<uint32_t>(sizes_.size());
    if (e.node == kEvicted) out.bucket = k;
    // Insert the line at the front, recycling the least recent line's
    // node once the list holds the largest size.
    uint32_t x;
    if (len_ == sizes_[k - 1]) {
      x = tail_[k - 1];
      unlink(x);
      lines_.at(nodes_[x].slot).node = kEvicted;
      --len_;
    } else {
      x = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(Node{});
    }
    nodes_[x].slot = slot;
    e.node = x;
    push_front(x);
    // Every full segment's last line moves back one position, across its
    // marker; the segment that just became full gets its first marker.
    uint32_t j = 0;
    while (j < k && sizes_[j] <= len_) ++j;
    shift_markers(j);
    ++len_;
    if (j < k && sizes_[j] == len_) tail_[j] = nodes_[kSentinel].prev;
    return out;
  }

 private:
  // nodes_[0] closes the circular list: its next is the most recent line.
  static constexpr uint32_t kSentinel = 0;
  // Line::node of a line seen before but no longer in the list, and of a
  // line never seen.
  static constexpr uint32_t kEvicted = ~uint32_t{0} - 1;
  static constexpr uint32_t kNever = ~uint32_t{0};

  struct Line {
    uint32_t node = kNever;  // its list node, kEvicted or kNever
    TaskId last_task = kNoTask;
  };
  struct Node {
    uint32_t prev = kSentinel;
    uint32_t next = kSentinel;
    uint32_t slot = 0;  // the line's PagedLineMap slot
    uint32_t seg = 0;   // segment = the line's bucket
  };

  void unlink(uint32_t x) {
    const Node& n = nodes_[x];
    nodes_[n.prev].next = n.next;
    nodes_[n.next].prev = n.prev;
  }

  void push_front(uint32_t x) {
    const uint32_t head = nodes_[kSentinel].next;
    nodes_[x].prev = kSentinel;
    nodes_[x].next = head;
    nodes_[x].seg = 0;
    nodes_[head].prev = x;
    nodes_[kSentinel].next = x;
  }

  /// After a push_front: segments [0, n) each pass their last line to the
  /// next segment.
  void shift_markers(uint32_t n) {
    for (uint32_t j = 0; j < n; ++j) {
      const uint32_t t = tail_[j];
      nodes_[t].seg = j + 1;
      tail_[j] = nodes_[t].prev;
    }
  }

  std::vector<uint64_t> sizes_;
  /// tail_[j]: the list's node at position sizes_[j] - 1, the last line of
  /// segment j, once the list holds that many lines (kSentinel before).
  std::vector<uint32_t> tail_;
  PagedLineMap<Line> lines_;
  std::vector<Node> nodes_;  // grows with the distinct lines held
  uint64_t len_ = 0;         // lines in the list, <= sizes_.back()
};

}  // namespace cachesched
