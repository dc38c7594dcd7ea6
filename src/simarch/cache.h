// Set-associative cache with true-LRU replacement, used for both the
// private L1s and the shared L2.
//
// Lines are identified by *line number* (byte address >> log2(line size));
// the engine does the shift once. The set index is the low bits of the line
// number (all paper configurations have power-of-two set counts; the
// constructor enforces this).
//
// This is the simulator's hottest data structure (see perfbench/). Flat
// contiguous arrays, entries that never move, and the LRU order held
// intrusively as a per-set byte permutation packed into words:
//
//  * meta_  — tag + presence mask + dirty bit per way, position-stable:
//             pointers returned by probe/access/install stay valid for
//             the cache's lifetime, and slot_of/entry_at let the engine
//             memoize an entry and revalidate it later with one tag
//             compare instead of a re-probe. Fingerprint candidates are
//             verified against meta_'s tag — the entry a hit touches
//             anyway. Invalid ways hold kInvalidTag, which matches no
//             real line; a spurious fingerprint match at another set's
//             way can never verify, because a tag equal to the probed
//             line could only live in the probed line's own set.
//  * rows_  — per set, adjacent in one array (so a probe + LRU update
//             touch one host cache line): the *fingerprint row* (one
//             byte per way — the line-number bits just above the set
//             index) and the *order row* (a permutation of [0, ways),
//             MRU-first with the invalid ways on the tail). A lookup
//             matches the probed line's fingerprint against the row
//             eight ways at a time (portable SWAR) and verifies the rare
//             candidates — a fixed handful of ops regardless of
//             associativity or LRU depth, where an ordered scan walks
//             half the set on average. A touch is a masked word
//             rotation, and the LRU victim (or the free way) for an
//             install is read off the order tail, so installs write in
//             place and move no tags.
//
// rows_ is a uint64_t array on purpose: byte-typed rows would make
// every row update a char store, which the compiler must treat as
// aliasing every other array — after each simulated access it would
// reload the member pointers and spill the engine's accumulator
// registers. Word-typed stores keep the hot loop's state in registers.
//
// The byte permutation caps the fast layout at 255 ways; wider caches
// (the fully-associative configurations of tests and profilers) fall back
// to per-way timestamps with a linear victim search — same true-LRU
// behaviour, chosen automatically by associativity.
//
// For the shared L2, each line's meta carries:
//  * a presence mask: which cores' L1s hold a copy (inclusion bookkeeping
//    and write-invalidation), and
//  * a dirty bit (writeback traffic accounting).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cachesched {

class SetAssocCache {
 public:
  struct Line {
    // Line number currently held by this slot; kInvalidTag (no real
    // line) when the slot is empty.
    uint64_t tag = ~uint64_t{0};
    uint32_t presence = 0;  // L2 only: bit per core with an L1 copy
    bool dirty = false;
  };

  struct Evicted {
    bool valid = false;
    uint64_t line = 0;
    bool dirty = false;
    uint32_t presence = 0;
  };

  /// Never matches a real line: line numbers are byte addresses shifted
  /// right by log2(line size), so their top bits are always zero.
  static constexpr uint64_t kInvalidTag = ~uint64_t{0};

  SetAssocCache(uint64_t num_sets, int ways)
      : sets_(num_sets),
        ways_(ways),
        sw_(static_cast<uint32_t>((ways + 7) / 8)),
        // meta_ carries 8 padding entries: a spurious fingerprint match
        // in a row's unused tail bytes indexes past the last set, where
        // the padding entries' kInvalidTag never verifies.
        meta_(num_sets * ways + 8),
        valid_cnt_(num_sets, 0) {
    if (num_sets == 0 || (num_sets & (num_sets - 1)) != 0) {
      throw std::invalid_argument("set count must be a power of two");
    }
    if (ways <= 0) throw std::invalid_argument("ways must be positive");
    mask_ = num_sets - 1;
    set_shift_ = std::countr_zero(num_sets);
    wide_ = ways > 255;
    rows_.assign(num_sets * 2 * sw_, 0);
    if (wide_) {
      stamps_.assign(num_sets * ways, 0);
    } else {
      reset_order();
    }
  }

  uint64_t num_sets() const { return sets_; }
  int ways() const { return ways_; }
  uint64_t capacity_lines() const { return sets_ * ways_; }

  /// Probes for `line`; returns the entry or nullptr. Does not touch LRU.
  /// The pointer stays valid for the cache's lifetime; the entry holds
  /// `line` until it is evicted or invalidated (check `tag`).
  Line* probe(uint64_t line) {
    const uint64_t set = line & mask_;
    const int w = find_way(set, line);
    return w >= 0 ? &meta_[set * ways_ + w] : nullptr;
  }
  const Line* probe(uint64_t line) const {
    return const_cast<SetAssocCache*>(this)->probe(line);
  }

  /// Probes for `line` and, on a hit, marks it most-recently-used; returns
  /// the stable entry pointer or nullptr.
  Line* access(uint64_t line) {
    const uint64_t set = line & mask_;
    const int w = find_way(set, line);
    if (w < 0) return nullptr;
    make_mru(set, w);
    return &meta_[set * ways_ + w];
  }

  /// Probes for `line` and marks it most-recently-used on a hit, or
  /// installs it on a miss (one lookup, no re-probe) — the shared-L2 path
  /// of the simulator, which always fills on a miss. Returns whether the
  /// line hit; `*out` is the stable entry either way; `*ev` is the
  /// eviction to handle when the install had to victimize the LRU way.
  bool access_or_install(uint64_t line, bool dirty_on_install, Line** out,
                         Evicted* ev) {
    const uint64_t set = line & mask_;
    const int w = find_way(set, line);
    if (w >= 0) {
      make_mru(set, w);
      *out = &meta_[set * ways_ + w];
      return true;
    }
    *ev = install_impl(set, line, dirty_on_install, out);
    return false;
  }

  /// Marks `entry` most-recently-used; returns `entry` (stable).
  Line* touch(Line* entry) {
    const size_t idx = static_cast<size_t>(entry - meta_.data());
    make_mru(idx / ways_, static_cast<int>(idx % ways_));
    return entry;
  }

  /// Installs `line` as MRU, reusing an invalid way if the set has one and
  /// evicting the LRU way otherwise. The caller handles the returned
  /// eviction (writeback, back-invalidation). The new entry is returned
  /// via `out`.
  Evicted install(uint64_t line, bool dirty, Line** out) {
    Line* entry;
    const Evicted ev = install_impl(line & mask_, line, dirty, &entry);
    if (out) *out = entry;
    return ev;
  }

  /// Invalidates `line` if present; returns whether it was dirty.
  bool invalidate(uint64_t line) {
    const uint64_t set = line & mask_;
    const size_t s = set * ways_;
    const int w = find_way(set, line);
    if (w < 0) return false;
    const bool dirty = meta_[s + w].dirty;
    meta_[s + w] = Line{};
    const uint32_t n = valid_cnt_[set];
    if (!wide_) {
      // Pull the way out of the valid prefix onto the free tail:
      // bytes (p..n-2] shift down one, byte n-1 becomes w.
      uint64_t* row = ord_row(set);
      const int p = find_order_pos(row, static_cast<uint8_t>(w));
      for (int i = p; i < static_cast<int>(n) - 1; ++i) {
        ord_set_byte(row, i, ord_byte(row, i + 1));
      }
      ord_set_byte(row, static_cast<int>(n) - 1, static_cast<uint8_t>(w));
    }
    valid_cnt_[set] = n - 1;
    return dirty;
  }

  /// Dense index of an entry returned by probe/access/install, in
  /// [0, capacity_lines()); stable for the cache's lifetime. With
  /// entry_at, lets a caller memoize an entry and later check whether it
  /// still holds a line (compare `tag`) without re-probing.
  uint32_t slot_of(const Line* entry) const {
    return static_cast<uint32_t>(entry - meta_.data());
  }

  /// The entry at a slot_of index; always a valid pointer.
  Line* entry_at(uint32_t slot) { return &meta_[slot]; }
  const Line* entry_at(uint32_t slot) const { return &meta_[slot]; }

  /// Number of valid lines (test/diagnostic helper; O(sets)).
  uint64_t valid_lines() const {
    uint64_t n = 0;
    for (uint32_t c : valid_cnt_) n += c;
    return n;
  }

  // --- audit introspection (src/check/) -------------------------------
  // Decode-only views of the packed state for the invariant checkers and
  // tests. None are used on the simulation hot path.

  /// Valid ways in `set`.
  uint32_t valid_count(uint64_t set) const { return valid_cnt_[set]; }

  /// The entry for way `w` of `set`.
  const Line& line_at(uint64_t set, int w) const { return meta_[set * ways_ + w]; }

  /// The fingerprint byte stored for way `w` of `set` (the packed row
  /// value find_way matches against; must equal fingerprint_of(tag) for
  /// every valid way).
  uint8_t stored_fingerprint(uint64_t set, int w) const {
    return static_cast<uint8_t>(rows_[set * 2 * sw_ + (w >> 3)] >>
                                ((w & 7) * 8));
  }

  /// The fingerprint byte a line is filed under.
  uint8_t fingerprint_of(uint64_t line) const { return fingerprint(line); }

  /// The set's replacement order as way indices, MRU first, valid ways
  /// only: the order-row valid prefix decoded byte-by-byte, or the stamps
  /// sorted by recency in the wide (> 255 ways) fallback.
  std::vector<int> lru_order(uint64_t set) const {
    const uint32_t n = valid_cnt_[set];
    std::vector<int> order;
    order.reserve(n);
    if (!wide_) {
      const uint64_t* row = &rows_[set * 2 * sw_ + sw_];
      for (uint32_t j = 0; j < n; ++j) {
        order.push_back(ord_byte(row, static_cast<int>(j)));
      }
      return order;
    }
    std::vector<std::pair<uint64_t, int>> by_stamp;
    for (int w = 0; w < ways_; ++w) {
      if (meta_[set * ways_ + w].tag != kInvalidTag) {
        by_stamp.emplace_back(stamps_[set * ways_ + w], w);
      }
    }
    std::sort(by_stamp.begin(), by_stamp.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (const auto& [stamp, w] : by_stamp) order.push_back(w);
    return order;
  }

  void clear() {
    for (Line& l : meta_) l = Line{};
    for (uint32_t& c : valid_cnt_) c = 0;
    std::fill(rows_.begin(), rows_.end(), 0);
    if (wide_) {
      stamps_.assign(stamps_.size(), 0);
      stamp_ = 0;
    } else {
      reset_order();
    }
  }

 private:
  static constexpr uint64_t kOnes = 0x0101010101010101ULL;

  /// 0x80 in every byte of `x` that is zero (classic SWAR zero-byte test).
  static uint64_t zero_byte_mask(uint64_t x) {
    return (x - kOnes) & ~x & 0x8080808080808080ULL;
  }

  /// Low (k+1) bytes set; k in [0, 7].
  static uint64_t byte_mask(int k) {
    return k == 7 ? ~uint64_t{0} : (uint64_t{1} << ((k + 1) * 8)) - 1;
  }

  static uint8_t ord_byte(const uint64_t* row, int j) {
    return static_cast<uint8_t>(row[j >> 3] >> ((j & 7) * 8));
  }

  static void ord_set_byte(uint64_t* row, int j, uint8_t b) {
    const int sh = (j & 7) * 8;
    row[j >> 3] =
        (row[j >> 3] & ~(uint64_t{0xff} << sh)) | (uint64_t{b} << sh);
  }

  /// Rotation within one order word: bytes [0..p] become
  /// [w, byte0..byte(p-1)]; bytes past p unchanged. p in [0, 7].
  static uint64_t rot_word(uint64_t v, int p, uint8_t w) {
    const uint64_t mask = byte_mask(p);
    return (((v << 8) | w) & mask) | (v & ~mask);
  }

  /// Byte of the line number just above the set index, so lines that are
  /// `num_sets` apart — set neighbours under streaming access — get
  /// distinct consecutive fingerprints.
  uint8_t fingerprint(uint64_t line) const {
    return static_cast<uint8_t>(line >> set_shift_);
  }

  /// Way holding `line` in `set`, or -1. Matches the fingerprint row one
  /// word (eight ways) at a time and verifies the rare candidates against
  /// the full tags. A row's unused tail bytes stay 0 and can only produce
  /// candidates past the valid ways, where the tag check rejects them
  /// (meta_ is padded past the last set).
  int find_way(uint64_t set, uint64_t line) const {
    const uint64_t probe_row = kOnes * fingerprint(line);
    const uint64_t* fp = &rows_[set * 2 * sw_];
    const size_t s = set * ways_;
    if (ways_ <= 8) {  // one word covers the set (every L1 configuration)
      uint64_t m = zero_byte_mask(fp[0] ^ probe_row);
      while (m != 0) {
        const int w = std::countr_zero(m) / 8;
        if (meta_[s + w].tag == line) return w;
        m &= m - 1;
      }
      return -1;
    }
    if (ways_ <= 16) {  // two words, no loop (every paper L2 is <= 16)
      uint64_t m = zero_byte_mask(fp[0] ^ probe_row);
      uint64_t m1 = zero_byte_mask(fp[1] ^ probe_row);
      if ((m | m1) == 0) return -1;  // the one branch of a clean miss
      while (m != 0) {
        const int w = std::countr_zero(m) / 8;
        if (meta_[s + w].tag == line) return w;
        m &= m - 1;
      }
      while (m1 != 0) {
        const int w = 8 + std::countr_zero(m1) / 8;
        if (meta_[s + w].tag == line) return w;
        m1 &= m1 - 1;
      }
      return -1;
    }
    for (uint32_t j = 0; j < sw_; ++j) {
      uint64_t m = zero_byte_mask(fp[j] ^ probe_row);
      while (m != 0) {
        const int w = static_cast<int>(j * 8) + std::countr_zero(m) / 8;
        if (meta_[s + w].tag == line) return w;
        m &= m - 1;
      }
    }
    return -1;
  }

  /// Position of way `w` in the order row; the way must be in the set
  /// (spurious matches in unused tail bytes lie past it and the zero-byte
  /// scan takes the lowest).
  static int find_order_pos(const uint64_t* row, uint8_t w) {
    const uint64_t probe_row = kOnes * w;
    for (int j = 0;; ++j) {
      const uint64_t m = zero_byte_mask(row[j] ^ probe_row);
      if (m != 0) return j * 8 + std::countr_zero(m) / 8;
    }
  }

  /// Marks way `w` of `set` most-recently-used. The word paths (<= 16
  /// ways: every paper configuration) load each order word once and do
  /// the position search and the rotation on the loaded values.
  void make_mru(uint64_t set, int w) {
    if (wide_) {
      stamps_[set * ways_ + w] = ++stamp_;
      return;
    }
    uint64_t* row = ord_row(set);
    const uint8_t wb = static_cast<uint8_t>(w);
    const uint64_t v0 = row[0];
    if (static_cast<uint8_t>(v0) == wb) return;  // already MRU
    const uint64_t m0 = zero_byte_mask(v0 ^ kOnes * wb);
    if (ways_ <= 8 || m0 != 0) {  // position within the first word
      row[0] = rot_word(v0, std::countr_zero(m0) / 8, wb);
      return;
    }
    if (ways_ <= 16) {
      const uint64_t v1 = row[1];
      const uint64_t m1 = zero_byte_mask(v1 ^ kOnes * wb);
      row[0] = (v0 << 8) | wb;
      row[1] = rot_word(v1, std::countr_zero(m1) / 8,
                        static_cast<uint8_t>(v0 >> 56));
      return;
    }
    rotate_generic(row, find_order_pos(row, wb), wb);
  }

  /// Generic multi-word MRU rotation for > 16 ways: bytes [0..p] become
  /// [w, byte0..byte(p-1)].
  static void rotate_generic(uint64_t* row, int p, uint8_t w) {
    uint8_t carry = w;
    int j = 0;
    for (; p >= 8; p -= 8, ++j) {
      const uint64_t v = row[j];
      row[j] = (v << 8) | carry;
      carry = static_cast<uint8_t>(v >> 56);
    }
    row[j] = rot_word(row[j], p, carry);
  }

  /// `set` is the set index; the caller has it from the probe. Forced
  /// inline: the L2 fill + L1 fill pair runs once per simulated reference
  /// on the miss-dominated scaled configurations, and the out-of-line
  /// call was measurable there.
  [[gnu::always_inline]] inline Evicted install_impl(uint64_t set,
                                                     uint64_t line, bool dirty,
                                                     Line** out) {
    const size_t s = set * ways_;
    Evicted ev;
    int w;
    if (wide_) {
      w = -1;
      if (valid_cnt_[set] < static_cast<uint32_t>(ways_)) {
        for (int i = 0; i < ways_; ++i) {
          if (meta_[s + i].tag == kInvalidTag) {
            w = i;
            break;
          }
        }
        ++valid_cnt_[set];
      } else {
        uint64_t oldest = UINT64_MAX;
        for (int i = 0; i < ways_; ++i) {
          if (stamps_[s + i] < oldest) {
            oldest = stamps_[s + i];
            w = i;
          }
        }
        ev.valid = true;
        ev.line = meta_[s + w].tag;
        ev.dirty = meta_[s + w].dirty;
        ev.presence = meta_[s + w].presence;
      }
      stamps_[s + w] = ++stamp_;
    } else {
      uint64_t* row = ord_row(set);
      int n = static_cast<int>(valid_cnt_[set]);
      // w = order[n] — the LRU victim (full set) or the first free way —
      // rotated in as MRU. The word paths extract w from the order words
      // they already hold and rotate in place; ev is read before
      // meta_[s + w] is overwritten below.
      const bool evict = n == ways_;
      if (evict) {
        n = ways_ - 1;
      } else {
        valid_cnt_[set] = static_cast<uint32_t>(n + 1);
      }
      if (n < 8) {
        const uint64_t v0 = row[0];
        w = static_cast<int>((v0 >> (n * 8)) & 0xff);
        row[0] = rot_word(v0, n, static_cast<uint8_t>(w));
      } else if (n < 16) {
        const uint64_t v0 = row[0];
        const uint64_t v1 = row[1];
        w = static_cast<int>((v1 >> ((n - 8) * 8)) & 0xff);
        row[0] = (v0 << 8) | static_cast<uint64_t>(w);
        row[1] = rot_word(v1, n - 8, static_cast<uint8_t>(v0 >> 56));
      } else {
        w = ord_byte(row, n);
        rotate_generic(row, n, static_cast<uint8_t>(w));
      }
      if (evict) {
        ev.valid = true;
        ev.line = meta_[s + w].tag;
        ev.dirty = meta_[s + w].dirty;
        ev.presence = meta_[s + w].presence;
      }
    }
    fp_set(set, w, fingerprint(line));
    meta_[s + w] = Line{line, 0, dirty};
    *out = &meta_[s + w];
    return ev;
  }

  void fp_set(uint64_t set, int w, uint8_t b) {
    const int sh = (w & 7) * 8;
    uint64_t& word = rows_[set * 2 * sw_ + (w >> 3)];
    word = (word & ~(uint64_t{0xff} << sh)) | (uint64_t{b} << sh);
  }

  /// The set's order row (follows its fingerprint row in rows_).
  uint64_t* ord_row(uint64_t set) { return &rows_[set * 2 * sw_ + sw_]; }

  void reset_order() {
    // Every row starts as the identity permutation 0,1,2,...; unused tail
    // bytes stay 0 (they are never read as positions — see
    // find_order_pos).
    std::vector<uint64_t> pattern(sw_, 0);
    for (int w = 0; w < ways_; ++w) {
      pattern[w >> 3] |= uint64_t{static_cast<uint8_t>(w)} << ((w & 7) * 8);
    }
    for (uint64_t s = 0; s < sets_; ++s) {
      for (uint32_t j = 0; j < sw_; ++j) ord_row(s)[j] = pattern[j];
    }
  }

  uint64_t sets_;
  int ways_;
  uint32_t sw_;                      // words per fp_/ord_ row: ceil(ways/8)
  uint64_t mask_ = 0;
  int set_shift_ = 0;
  bool wide_ = false;                // > 255 ways: timestamp LRU fallback
  uint64_t stamp_ = 0;               // wide mode recency counter
  std::vector<Line> meta_;           // position-stable tag/presence/dirty
  std::vector<uint64_t> rows_;       // per set: fp words, then order words
  std::vector<uint64_t> stamps_;     // wide mode: last-use stamp per way
  std::vector<uint32_t> valid_cnt_;  // valid ways per set
};

}  // namespace cachesched
