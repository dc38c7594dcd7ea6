// Paged per-line state for the profilers: the size-bucketed LRU stack
// (bucketed_stack.h) keeps each line's recency-list node and last visitor
// here, and task_working_set_bytes (ws_profiler.h) each line's last
// visiting task.
//
// Lines share a page of 512 consecutive lines, found through a small
// open-addressed page table plus a last-page memo. Real traces are
// stream-heavy, so consecutive references land in one page and the map
// stays in the host's cache, where a flat hash of the line would scatter
// every lookup.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace cachesched {

template <class T>
class PagedLineMap {
 public:
  /// Every entry reads `empty` until it is first written.
  explicit PagedLineMap(T empty) : empty_(empty), table_(256) {}

  /// Index of `line`'s entry, creating its page on first touch. An index
  /// names the same line for the map's lifetime.
  uint32_t slot(uint64_t line) {
    const uint64_t page = line >> kPageBits;
    if (page != last_page_) {
      last_base_ = page_base(page);
      last_page_ = page;
    }
    return last_base_ + static_cast<uint32_t>(line & (kPageLines - 1));
  }

  T& at(uint32_t slot) { return entries_[slot]; }
  T& operator[](uint64_t line) { return at(slot(line)); }

 private:
  static constexpr int kPageBits = 9;
  static constexpr uint64_t kPageLines = uint64_t{1} << kPageBits;
  // No page's base: bases are multiples of kPageLines.
  static constexpr uint32_t kNoPage = ~uint32_t{0};

  struct PageRef {
    uint64_t page = 0;
    uint32_t base = kNoPage;  // first slot of the page's entries
  };

  /// First slot of `page`'s entries, appended on first touch. Doubles the
  /// page table when it passes half load.
  uint32_t page_base(uint64_t page) {
    uint64_t i = probe(page);
    if (table_[i].base != kNoPage) return table_[i].base;
    if (entries_.size() + kPageLines > kNoPage) {
      throw std::length_error("PagedLineMap: more than 2^32 lines");
    }
    if ((num_pages_ + 1) * 2 > table_.size()) {
      std::vector<PageRef> old(table_.size() * 2);
      old.swap(table_);
      for (const PageRef& p : old) {
        if (p.base != kNoPage) table_[probe(p.page)] = p;
      }
      i = probe(page);
    }
    const uint32_t base = static_cast<uint32_t>(entries_.size());
    table_[i] = PageRef{page, base};
    ++num_pages_;
    entries_.resize(entries_.size() + kPageLines, empty_);
    return base;
  }

  /// `page`'s table position, or the empty one where it would go.
  uint64_t probe(uint64_t page) const {
    const uint64_t mask = table_.size() - 1;
    uint64_t i = mix64(page) & mask;
    while (table_[i].base != kNoPage && table_[i].page != page) {
      i = (i + 1) & mask;
    }
    return i;
  }

  T empty_;
  std::vector<PageRef> table_;  // power-of-two size, open addressing
  uint64_t num_pages_ = 0;
  std::vector<T> entries_;  // kPageLines per page, in creation order
  // Memo of the last page looked up: streams revisit one page.
  uint64_t last_page_ = ~uint64_t{0};
  uint32_t last_base_ = 0;
};

}  // namespace cachesched
