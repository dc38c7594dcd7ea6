// Shared helpers for workload generators: a line-aligned virtual address
// allocator and trace-emission conveniences. Workload generators translate
// an algorithm's real data layout and access pattern into a computation DAG
// with per-task reference blocks (see src/core/trace.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dag.h"
#include "core/trace.h"

namespace cachesched {

/// Bump allocator for the simulated virtual address space. Regions are
/// line-aligned and padded so distinct structures never share a line.
class AddressAllocator {
 public:
  explicit AddressAllocator(uint32_t line_bytes = 128)
      : line_bytes_(line_bytes), next_(line_bytes) {}

  uint64_t alloc(uint64_t bytes) {
    const uint64_t base = next_;
    const uint64_t lines = (bytes + line_bytes_ - 1) / line_bytes_;
    next_ += lines * line_bytes_;
    return base;
  }

  uint32_t line_bytes() const { return line_bytes_; }
  uint64_t bytes_allocated() const { return next_ - line_bytes_; }

 private:
  uint32_t line_bytes_;
  uint64_t next_;
};

inline uint32_t lines_for(uint64_t bytes, uint32_t line_bytes) {
  return static_cast<uint32_t>((bytes + line_bytes - 1) / line_bytes);
}

/// "Read region A while writing region B" — the shape of a copy/scan pass.
inline RefBlock read_write_pass(uint64_t src, uint64_t src_bytes, uint64_t dst,
                                uint64_t dst_bytes, uint32_t line_bytes,
                                uint32_t instr_per_ref) {
  StreamRef s[2];
  s[0] = {src, lines_for(src_bytes, line_bytes), false};
  s[1] = {dst, lines_for(dst_bytes, line_bytes), true};
  return RefBlock::interleave(s, 2, line_bytes, instr_per_ref);
}

/// "Merge regions X and Y into Z" — two reads and one write interleaved.
inline RefBlock merge_pass(uint64_t x, uint64_t x_bytes, uint64_t y,
                           uint64_t y_bytes, uint64_t z, uint64_t z_bytes,
                           uint32_t line_bytes, uint32_t instr_per_ref) {
  StreamRef s[3];
  s[0] = {x, lines_for(x_bytes, line_bytes), false};
  s[1] = {y, lines_for(y_bytes, line_bytes), false};
  s[2] = {z, lines_for(z_bytes, line_bytes), true};
  return RefBlock::interleave(s, 3, line_bytes, instr_per_ref);
}

/// A built workload: the DAG plus bookkeeping the experiments report.
struct Workload {
  std::string name;
  std::string params;   // human-readable parameter description
  TaskDag dag;
  uint64_t footprint_bytes = 0;  // total simulated data touched
};

}  // namespace cachesched
