// Cache-blocked, operand-packing SGEMM (Goto/BLIS-style).
//
// The kernel decomposes C = alpha*op(A)*op(B) + beta*C into a three-level
// blocking hierarchy sized for typical L1/L2/L3 capacities:
//
//   for jc in N step NC:            // B macro-panel resident in L3
//     for pc in K step KC:          // packed B panel (KC×NC) built here
//       for ic in M step MC:        // packed A block (MC×KC) resident in L2
//         for jr in NC step NR:     // B micro-panel resident in L1
//           for ir in MC step MR:   // MR×NR register accumulator
//             micro-kernel over the KC dimension
//
// Both transpose cases are absorbed by the packing routines — op(A)/op(B) are
// gathered element-by-element into contiguous, zero-padded panels, so the
// micro-kernel only ever sees the no-transpose contiguous layout and no
// full-size transposed temporary is ever materialised.
//
// beta is folded into the first K-panel's write-back (beta==0 never reads C),
// eliminating the seed kernel's O(M·N) pre-scale pass.
//
// The ic loop is dispatched over ThreadPool::global(). Every (ic) index owns
// a disjoint row-block of C and the pc loop is a barrier between K-panels, so
// results are bitwise identical for any thread count. Each C element sums
// its K terms in one fixed order (KC panels, then the micro-kernel's p loop)
// whatever m and n are, so a row's bits do not depend on the other rows of
// the call.
#pragma once

#include <cstddef>

namespace gs::kernel {

// Blocking parameters. MR×NR is the register tile the micro-kernel
// accumulates as a local array so the compiler promotes it to vector
// registers (8×16 floats = 8 ZMM accumulators on AVX-512, 16 YMM on AVX2);
// MC×KC (~128 KiB packed) targets L2; KC×NC (~1 MiB packed) targets L3.
inline constexpr std::size_t kMR = 8;
inline constexpr std::size_t kNR = 16;
inline constexpr std::size_t kMC = 128;
inline constexpr std::size_t kKC = 256;
inline constexpr std::size_t kNC = 1024;

/// C = alpha*op(A)*op(B) + beta*C on raw row-major buffers.
///
/// m, n, k are the *logical* dimensions: op(A) is m×k, op(B) is k×n, C is
/// m×n. lda/ldb/ldc are the leading (row) strides of the *stored* matrices:
/// op(A)(i,p) = trans_a ? a[p*lda + i] : a[i*lda + p], and likewise for B.
/// C must not alias A or B.
void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const float* a, std::size_t lda, bool trans_a, const float* b,
           std::size_t ldb, bool trans_b, float beta, float* c,
           std::size_t ldc);

}  // namespace gs::kernel
