// LU factorization workload (paper §4.2): dense blocked LU without
// pivoting, the Cilk distribution benchmark. The matrix is stored
// block-major; the block size controls the grain of parallelism.
//
// Substitution note: the Cilk benchmark is a recursive
// quadrant factorization; we emit the equivalent block-level task DAG in
// right-looking loop order — getrf(k) -> trsm(row/col k) -> gemm updates of
// the trailing submatrix — which performs the same block operations with
// the same (in fact slightly weaker) dependences. LU's defining property
// for this study — a small per-task working set and a tiny L2
// miss-per-instruction ratio — is identical in either formulation.
#pragma once

#include <cstdint>

#include "workloads/common.h"

namespace cachesched {

struct LuParams {
  uint32_t n = 1024;          // matrix dimension (paper: 2048, scaled)
  uint32_t block = 32;        // block size B (the granularity knob)
  uint32_t elem_bytes = 8;    // doubles
  uint32_t line_bytes = 128;

  std::string describe() const;
};

Workload build_lu(const LuParams& p);

}  // namespace cachesched
