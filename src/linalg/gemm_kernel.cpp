#include "linalg/gemm_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/thread_pool.hpp"

namespace gs::kernel {

namespace {

// The micro-kernel uses GCC/Clang vector extensions: auto-vectorizers
// reliably miss the fully-unrolled 8×16 accumulator pattern ("complicated
// access pattern"), while explicit vector types pin it to broadcast-FMA
// sequences. 16 lanes = one ZMM on AVX-512, two YMM ops on AVX2 — the
// compiler legalises to whatever the target has. aligned(4): packed panels
// and C rows are only float-aligned; may_alias: loads/stores through vf
// punning float buffers are defined behaviour.
#if defined(__GNUC__) || defined(__clang__)
#define GS_GEMM_VECTOR_KERNEL 1
constexpr std::size_t kLanes = 16;
typedef float vf __attribute__((vector_size(kLanes * sizeof(float)),
                                aligned(4), may_alias));
static_assert(kNR % kLanes == 0);
#endif

/// Packs an mc×kc block of op(A) starting at logical (row0, p0) into
/// contiguous MR-row panels: panel-major, then p, then the MR rows of the
/// panel. Rows past mc are zero-padded so the micro-kernel never branches.
void pack_a(const float* a, std::size_t lda, bool trans_a, std::size_t row0,
            std::size_t p0, std::size_t mc, std::size_t kc, float* packed) {
  for (std::size_t ir = 0; ir < mc; ir += kMR) {
    const std::size_t mr = std::min(kMR, mc - ir);
    if (!trans_a) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = a + (row0 + ir) * lda + (p0 + p);
        for (std::size_t i = 0; i < mr; ++i) packed[i] = src[i * lda];
        for (std::size_t i = mr; i < kMR; ++i) packed[i] = 0.0f;
        packed += kMR;
      }
    } else {
      // op(A)(i,p) = a[p*lda + i]: a panel column is contiguous in memory.
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = a + (p0 + p) * lda + (row0 + ir);
        for (std::size_t i = 0; i < mr; ++i) packed[i] = src[i];
        for (std::size_t i = mr; i < kMR; ++i) packed[i] = 0.0f;
        packed += kMR;
      }
    }
  }
}

/// Packs a kc×nc block of op(B) starting at logical (p0, col0) into
/// contiguous NR-column panels: panel-major, then p, then the NR columns.
void pack_b(const float* b, std::size_t ldb, bool trans_b, std::size_t p0,
            std::size_t col0, std::size_t kc, std::size_t nc, float* packed) {
  for (std::size_t jr = 0; jr < nc; jr += kNR) {
    const std::size_t nr = std::min(kNR, nc - jr);
    if (!trans_b) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = b + (p0 + p) * ldb + (col0 + jr);
        for (std::size_t j = 0; j < nr; ++j) packed[j] = src[j];
        for (std::size_t j = nr; j < kNR; ++j) packed[j] = 0.0f;
        packed += kNR;
      }
    } else {
      // op(B)(p,j) = b[j*ldb + p].
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = b + (col0 + jr) * ldb + (p0 + p);
        for (std::size_t j = 0; j < nr; ++j) packed[j] = src[j * ldb];
        for (std::size_t j = nr; j < kNR; ++j) packed[j] = 0.0f;
        packed += kNR;
      }
    }
  }
}

/// MR×NR register tile over a kc-long packed A panel / packed B panel,
/// including the write into C. The accumulator is a *local* array with
/// constant-bound loops: the compiler proves it cannot alias the operands,
/// promotes it to vector registers (8 ZMM on AVX-512) and fuses the
/// broadcast-multiply-adds; it is spilled exactly once, at write-back.
///
/// On the first K-panel beta is applied during write-back (beta==0 never
/// reads C); later panels accumulate with an implicit beta of 1.
inline void micro_kernel(std::size_t kc, const float* __restrict ap,
                         const float* __restrict bp, float alpha, float beta,
                         bool first_k_panel, float* __restrict c,
                         std::size_t ldc, std::size_t mr, std::size_t nr) {
#ifdef GS_GEMM_VECTOR_KERNEL
  constexpr std::size_t kCols = kNR / kLanes;
  vf acc[kMR][kCols] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict arow = ap + p * kMR;
    const float* __restrict brow = bp + p * kNR;
    vf b[kCols];
    for (std::size_t v = 0; v < kCols; ++v) {
      b[v] = *reinterpret_cast<const vf*>(brow + v * kLanes);
    }
    for (std::size_t i = 0; i < kMR; ++i) {
      const float ai = arow[i];  // broadcast against each b vector
      for (std::size_t v = 0; v < kCols; ++v) acc[i][v] += ai * b[v];
    }
  }
  if (mr == kMR && nr == kNR) {
    // Full-tile fast path: vector read-modify-write straight into C.
    for (std::size_t i = 0; i < kMR; ++i) {
      float* crow = c + i * ldc;
      for (std::size_t v = 0; v < kCols; ++v) {
        vf* cp = reinterpret_cast<vf*>(crow + v * kLanes);
        const vf prod = alpha * acc[i][v];
        if (!first_k_panel || beta == 1.0f) {
          *cp += prod;
        } else if (beta == 0.0f) {
          *cp = prod;
        } else {
          *cp = beta * *cp + prod;
        }
      }
    }
    return;
  }
  // Edge tile: spill the accumulator once, then a scalar bounded write-back.
  float tile[kMR][kNR];
  std::memcpy(tile, acc, sizeof tile);
#else
  float tile[kMR][kNR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict arow = ap + p * kMR;
    const float* __restrict brow = bp + p * kNR;
    for (std::size_t i = 0; i < kMR; ++i) {
      const float ai = arow[i];
      for (std::size_t j = 0; j < kNR; ++j) tile[i][j] += ai * brow[j];
    }
  }
#endif
  for (std::size_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    if (!first_k_panel || beta == 1.0f) {
      for (std::size_t j = 0; j < nr; ++j) crow[j] += alpha * tile[i][j];
    } else if (beta == 0.0f) {
      for (std::size_t j = 0; j < nr; ++j) crow[j] = alpha * tile[i][j];
    } else {
      for (std::size_t j = 0; j < nr; ++j) {
        crow[j] = beta * crow[j] + alpha * tile[i][j];
      }
    }
  }
}

}  // namespace

void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const float* a, std::size_t lda, bool trans_a, const float* b,
           std::size_t ldb, bool trans_b, float beta, float* c,
           std::size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    // Pure C scale; nothing to pack.
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0f) {
        std::fill(crow, crow + n, 0.0f);
      } else if (beta != 1.0f) {
        for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }

  // Shared packed-B panel for the current (jc, pc) block; rebuilt serially
  // (O(K·N) work vs the O(M·N·K) multiply) and read by every thread. Sized
  // to this product's actual panel extent and left uninitialised — pack_b
  // zero-pads every element the micro-kernel reads — so small products don't
  // pay a fixed 1 MiB memset.
  const std::size_t b_panel_rows = std::min(k, kKC);
  const std::size_t b_panel_cols = ((std::min(n, kNC) + kNR - 1) / kNR) * kNR;
  const auto packed_b =
      std::make_unique_for_overwrite<float[]>(b_panel_rows * b_panel_cols);
  ThreadPool& pool = ThreadPool::global();

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      const bool first_k_panel = pc == 0;
      pack_b(b, ldb, trans_b, pc, jc, kc, nc, packed_b.get());

      const std::size_t m_blocks = (m + kMC - 1) / kMC;
      pool.parallel_for(m_blocks, [&](std::size_t block) {
        const std::size_t ic = block * kMC;
        const std::size_t mc = std::min(kMC, m - ic);
        // Thread-local packed A block (~128 KiB); allocation cost is noise
        // next to the O(MC·KC·NC) flops it feeds. pack_a writes every
        // element the micro-kernel reads, so no zero-init.
        const auto packed_a = std::make_unique_for_overwrite<float[]>(
            ((mc + kMR - 1) / kMR) * kMR * kc);
        pack_a(a, lda, trans_a, ic, pc, mc, kc, packed_a.get());

        for (std::size_t jr = 0; jr < nc; jr += kNR) {
          const std::size_t nr = std::min(kNR, nc - jr);
          const float* bp = packed_b.get() + (jr / kNR) * kc * kNR;
          for (std::size_t ir = 0; ir < mc; ir += kMR) {
            const std::size_t mr = std::min(kMR, mc - ir);
            const float* ap = packed_a.get() + (ir / kMR) * kc * kMR;
            micro_kernel(kc, ap, bp, alpha, beta, first_k_panel,
                         c + (ic + ir) * ldc + (jc + jr), ldc, mr, nr);
          }
        }
      });
    }
  }
}

}  // namespace gs::kernel
