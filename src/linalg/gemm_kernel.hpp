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
// Operands reach the micro-kernel only through packing: op(A) is gathered
// into contiguous, zero-padded MR-row panels and op(B) into NR-column
// panels, so the micro-kernel sees one contiguous layout whatever the
// operands are stored as, and no transposed or lowered temporary is ever
// materialised. Where the packer reads from is a compile-time *source*:
//
//   MatrixSource         a row-major matrix in memory, op() = X or Xᵀ,
//                        optionally restricted to a list of live K indices
//                        (the gather of a compressed panel);
//   PatchSource          the im2col patch matrix of a batch of images, read
//                        straight from (images, ConvGeometry) — op(A) of a
//                        conv forward, or its transpose for dW;
//   ChannelMajorSource   a (B·P × F) matrix stored channel-major as B×F×P —
//                        a conv layer's dY, as op(B) of dW or op(A) of dX.
//
// Every source packs the same floats in the same K order as MatrixSource
// over the materialised matrix would, so a product's bits do not depend on
// its source. Where C lands is the *store* (the write-back epilogue):
// RowMajorStore is plain row-major memory; ChannelMajorStore writes element
// (b·P + position, f) to f's plane of sample b, i.e. a B×F×oh×ow conv
// output. Either can remap C's columns (the scatter of a compressed panel)
// and add a bias after the last K panel, as a separate rounding of the
// finished sum — exactly what a later bias pass would compute.
//
// beta is folded into the first K-panel's write-back (beta==0 never reads C),
// eliminating the seed kernel's O(M·N) pre-scale pass.
//
// The ic loop is dispatched over ThreadPool::global(). Every (ic) index owns
// a disjoint row-block of C and the pc loop is a barrier between K-panels, so
// results are bitwise identical for any thread count.
//
// A product with one row block (m ≤ MC) and more than one K panel — the
// thin products of a small-batch training step, e.g. a conv dW with
// K = batch·positions — would leave that loop one index wide, so it runs
// its K panels in parallel instead: each panel's MR×NR tiles land in a
// private slot, and the slots are then written into C in panel order,
// through the same write-back the panel loop uses. The path is chosen from
// the shape alone, never from the pool size, and N is not split.
//
// Either way each C element sums its K terms in one fixed order (KC panels,
// then the micro-kernel's p loop) and is rounded into C by one write-back,
// whatever m and n are, so a row's bits do not depend on the other rows of
// the call, on the path that computed it or on the store it lands in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/im2col.hpp"

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

// ---- Sources ---------------------------------------------------------------
// A source used as op(A) implements
//   pack_a(row0, p0, mc, kc, packed): the mc×kc block of op(A) at logical
//     (row0, p0) as MR-row panels — panel-major, then p, then the MR rows of
//     the panel, rows past mc zero-padded;
// and one used as op(B) implements
//   pack_b(p0, col0, kc, nc, packed): the kc×nc block of op(B) at (p0, col0)
//     as NR-column panels — panel-major, then p, then the NR columns,
//     columns past nc zero-padded.

/// A row-major matrix in memory: op(X)(i, p) = trans ? x[p·ld + i] :
/// x[i·ld + p]. With `live_k` set (as op(A), trans == false only),
/// op(X)(i, p) reads column live_k[p] instead — the live rows of a
/// compressed weight panel.
struct MatrixSource {
  const float* data = nullptr;
  std::size_t ld = 0;
  bool trans = false;
  const std::uint32_t* live_k = nullptr;

  void pack_a(std::size_t row0, std::size_t p0, std::size_t mc,
              std::size_t kc, float* packed) const;
  void pack_b(std::size_t p0, std::size_t col0, std::size_t kc,
              std::size_t nc, float* packed) const;
};

/// The (B·oh·ow × C·kh·kw) im2col patch matrix of B images laid out
/// C×H×W back to back at `images`, read in place: element (r, q) is tap q
/// (channel-major c, ky, kx, as im2col orders it) of output position
/// r mod oh·ow of sample r / (oh·ow), or 0 where the tap falls in the zero
/// padding. With `live` given, column q reads tap live[q] instead. With
/// `trans`, op() is the transpose — the (taps × B·oh·ow) operand of dW.
/// Packs as op(A) only. `g` must be valid.
class PatchSource {
 public:
  PatchSource(const float* images, const ConvGeometry& g, bool trans = false,
              const std::vector<std::uint32_t>* live = nullptr);

  void pack_a(std::size_t row0, std::size_t p0, std::size_t mc,
              std::size_t kc, float* packed) const;

 private:
  /// One tap: its offset within an image relative to the window origin,
  /// and its kernel row/column for the padding test.
  struct Tap {
    std::ptrdiff_t offset, ky, kx;
  };
  /// The window of one patch-matrix row: image offset b·C·H·W + y0·W + x0
  /// of its origin (y0, x0 are negative under padding), and whether every
  /// tap lies inside the image.
  struct Window {
    std::ptrdiff_t base, y0, x0;
    bool inside;
  };
  /// The windows of rows r0 … r0 + count − 1.
  void windows(std::size_t r0, std::size_t count, Window* out) const;
  /// Tap t of window w, or 0 in the padding.
  float at(const Window& w, const Tap& t) const;

  const float* images_;
  std::size_t height_, width_, sample_, stride_h_, stride_w_, pad_h_, pad_w_;
  std::size_t kernel_h_, kernel_w_, out_width_, positions_;
  bool trans_;
  std::vector<Tap> taps_;
};

/// A (B·P × F) matrix stored channel-major as B×F×P: element (r, j) is
/// data[(r / P)·F·P + j·P + r mod P]. Packs as op(A) or op(B), never
/// transposed.
struct ChannelMajorSource {
  const float* data = nullptr;
  std::size_t positions = 0;  ///< P
  std::size_t channels = 0;   ///< F

  void pack_a(std::size_t row0, std::size_t p0, std::size_t mc,
              std::size_t kc, float* packed) const;
  void pack_b(std::size_t p0, std::size_t col0, std::size_t kc,
              std::size_t nc, float* packed) const;
};

// ---- Stores ----------------------------------------------------------------
// Both stores map C's column j to output column cols[j] when `cols` is set
// (columns not listed are never written), and add bias[output column] to
// each element after its last K panel when `bias` is set.

/// Row-major C: element (i, j) at c[i·ldc + j].
struct RowMajorStore {
  float* c = nullptr;
  std::size_t ldc = 0;
  const float* bias = nullptr;
  const std::uint32_t* cols = nullptr;

  /// Offsets of rows i0 … i0 + count − 1 and of output column j in c.
  void row_offsets(std::size_t i0, std::size_t count, std::size_t* out) const {
    for (std::size_t i = 0; i < count; ++i) out[i] = (i0 + i) * ldc;
  }
  std::size_t col_offset(std::size_t j) const { return j; }
};

/// Channel-major C: element (b·P + position, f) at
/// c[b·F·P + f·P + position] — a B×F×oh×ow conv output with P = oh·ow.
struct ChannelMajorStore {
  float* c = nullptr;
  std::size_t positions = 0;  ///< P
  std::size_t channels = 0;   ///< F
  const float* bias = nullptr;
  const std::uint32_t* cols = nullptr;

  void row_offsets(std::size_t i0, std::size_t count, std::size_t* out) const {
    std::size_t b = i0 / positions;
    std::size_t pos = i0 % positions;
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = b * channels * positions + pos;
      if (++pos == positions) {
        pos = 0;
        ++b;
      }
    }
  }
  std::size_t col_offset(std::size_t j) const { return j * positions; }
};

/// C = alpha·op(A)·op(B) + beta·C over any source pair and store: op(A) is
/// m×k, op(B) is k×n, C is m×n in the store's layout (before its column
/// remap). k must be positive (throws otherwise, unless m or n is 0). C must
/// not alias A or B. Instantiated in gemm_kernel.cpp for the combinations
/// the library uses.
template <class A, class B, class Store>
void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const A& a, const B& b, float beta, const Store& c);

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
