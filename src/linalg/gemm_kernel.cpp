#include "linalg/gemm_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace gs::kernel {

// ---- Sources ---------------------------------------------------------------

void MatrixSource::pack_a(std::size_t row0, std::size_t p0, std::size_t mc,
                          std::size_t kc, float* packed) const {
  for (std::size_t ir = 0; ir < mc; ir += kMR) {
    const std::size_t mr = std::min(kMR, mc - ir);
    if (trans) {
      // op(A)(i,p) = a[p*lda + i]: a panel column is contiguous in memory.
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = data + (p0 + p) * ld + (row0 + ir);
        for (std::size_t i = 0; i < mr; ++i) packed[i] = src[i];
        for (std::size_t i = mr; i < kMR; ++i) packed[i] = 0.0f;
        packed += kMR;
      }
    } else if (live_k != nullptr) {
      const float* rows = data + (row0 + ir) * ld;
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = rows + live_k[p0 + p];
        for (std::size_t i = 0; i < mr; ++i) packed[i] = src[i * ld];
        for (std::size_t i = mr; i < kMR; ++i) packed[i] = 0.0f;
        packed += kMR;
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = data + (row0 + ir) * ld + (p0 + p);
        for (std::size_t i = 0; i < mr; ++i) packed[i] = src[i * ld];
        for (std::size_t i = mr; i < kMR; ++i) packed[i] = 0.0f;
        packed += kMR;
      }
    }
  }
}

void MatrixSource::pack_b(std::size_t p0, std::size_t col0, std::size_t kc,
                          std::size_t nc, float* packed) const {
  for (std::size_t jr = 0; jr < nc; jr += kNR) {
    const std::size_t nr = std::min(kNR, nc - jr);
    if (!trans) {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = data + (p0 + p) * ld + (col0 + jr);
        for (std::size_t j = 0; j < nr; ++j) packed[j] = src[j];
        for (std::size_t j = nr; j < kNR; ++j) packed[j] = 0.0f;
        packed += kNR;
      }
    } else {
      // op(B)(p,j) = b[j*ldb + p].
      for (std::size_t p = 0; p < kc; ++p) {
        const float* src = data + (col0 + jr) * ld + (p0 + p);
        for (std::size_t j = 0; j < nr; ++j) packed[j] = src[j * ld];
        for (std::size_t j = nr; j < kNR; ++j) packed[j] = 0.0f;
        packed += kNR;
      }
    }
  }
}

PatchSource::PatchSource(const float* images, const ConvGeometry& g,
                         bool trans, const std::vector<std::uint32_t>* live)
    : images_(images),
      height_(g.in_height),
      width_(g.in_width),
      sample_(g.in_channels * g.in_height * g.in_width),
      stride_h_(g.stride_h),
      stride_w_(g.stride_w),
      pad_h_(g.pad_h),
      pad_w_(g.pad_w),
      kernel_h_(g.kernel_h),
      kernel_w_(g.kernel_w),
      out_width_(g.out_width()),
      positions_(g.out_height() * g.out_width()),
      trans_(trans) {
  const std::size_t taps = live != nullptr ? live->size() : g.patch_size();
  const std::size_t window = g.kernel_h * g.kernel_w;
  taps_.reserve(taps);
  for (std::size_t q = 0; q < taps; ++q) {
    const std::size_t t = live != nullptr ? (*live)[q] : q;
    const std::size_t c = t / window;
    const std::size_t ky = t % window / g.kernel_w;
    const std::size_t kx = t % g.kernel_w;
    taps_.push_back({static_cast<std::ptrdiff_t>(c * height_ * width_ +
                                                 ky * width_ + kx),
                     static_cast<std::ptrdiff_t>(ky),
                     static_cast<std::ptrdiff_t>(kx)});
  }
}

void PatchSource::windows(std::size_t r0, std::size_t count,
                          Window* out) const {
  std::size_t b = r0 / positions_;
  std::size_t pos = r0 % positions_;
  std::size_t oy = pos / out_width_;
  std::size_t ox = pos % out_width_;
  const auto h = static_cast<std::ptrdiff_t>(height_);
  const auto w = static_cast<std::ptrdiff_t>(width_);
  for (std::size_t i = 0; i < count; ++i) {
    const auto y0 = static_cast<std::ptrdiff_t>(oy * stride_h_) -
                    static_cast<std::ptrdiff_t>(pad_h_);
    const auto x0 = static_cast<std::ptrdiff_t>(ox * stride_w_) -
                    static_cast<std::ptrdiff_t>(pad_w_);
    out[i] = {static_cast<std::ptrdiff_t>(b * sample_) + y0 * w + x0, y0, x0,
              y0 >= 0 && x0 >= 0 &&
                  y0 + static_cast<std::ptrdiff_t>(kernel_h_) <= h &&
                  x0 + static_cast<std::ptrdiff_t>(kernel_w_) <= w};
    if (++ox == out_width_) {
      ox = 0;
      ++oy;
    }
    if (++pos == positions_) {
      pos = oy = 0;
      ++b;
    }
  }
}

float PatchSource::at(const Window& w, const Tap& t) const {
  const std::ptrdiff_t iy = w.y0 + t.ky;
  const std::ptrdiff_t ix = w.x0 + t.kx;
  return static_cast<std::size_t>(iy) < height_ &&
                 static_cast<std::size_t>(ix) < width_
             ? images_[w.base + t.offset]
             : 0.0f;
}

void PatchSource::pack_a(std::size_t row0, std::size_t p0, std::size_t mc,
                         std::size_t kc, float* packed) const {
  if (trans_) {
    // Rows are taps, K runs over output positions: one window per K index.
    Window wins[kKC];
    windows(p0, kc, wins);
    for (std::size_t ir = 0; ir < mc; ir += kMR) {
      const std::size_t mr = std::min(kMR, mc - ir);
      const Tap* taps = taps_.data() + row0 + ir;
      for (std::size_t p = 0; p < kc; ++p) {
        const Window& w = wins[p];
        if (w.inside) {
          const float* src = images_ + w.base;
          for (std::size_t i = 0; i < mr; ++i) packed[i] = src[taps[i].offset];
        } else {
          for (std::size_t i = 0; i < mr; ++i) packed[i] = at(w, taps[i]);
        }
        for (std::size_t i = mr; i < kMR; ++i) packed[i] = 0.0f;
        packed += kMR;
      }
    }
    return;
  }
  // Rows are output positions, K runs over taps: one window per row.
  for (std::size_t ir = 0; ir < mc; ir += kMR) {
    const std::size_t mr = std::min(kMR, mc - ir);
    Window wins[kMR];
    windows(row0 + ir, mr, wins);
    // Eight unit-stride windows clear of the padding (stride 1, the panel
    // within one output row): each tap is one contiguous 8-float run.
    bool run = mr == kMR;
    for (std::size_t i = 0; i < mr; ++i) {
      run = run && wins[i].inside &&
            wins[i].base == wins[0].base + static_cast<std::ptrdiff_t>(i);
    }
    for (std::size_t p = 0; p < kc; ++p) {
      const Tap& t = taps_[p0 + p];
      if (run) {
        std::memcpy(packed, images_ + wins[0].base + t.offset,
                    kMR * sizeof(float));
      } else {
        for (std::size_t i = 0; i < mr; ++i) packed[i] = at(wins[i], t);
        for (std::size_t i = mr; i < kMR; ++i) packed[i] = 0.0f;
      }
      packed += kMR;
    }
  }
}

void ChannelMajorSource::pack_a(std::size_t row0, std::size_t p0,
                                std::size_t mc, std::size_t kc,
                                float* packed) const {
  const std::size_t sample = channels * positions;
  for (std::size_t ir = 0; ir < mc; ir += kMR) {
    const std::size_t mr = std::min(kMR, mc - ir);
    std::size_t b = (row0 + ir) / positions;
    std::size_t pos = (row0 + ir) % positions;
    std::size_t base[kMR];
    for (std::size_t i = 0; i < mr; ++i) {
      base[i] = b * sample + pos;
      if (++pos == positions) {
        pos = 0;
        ++b;
      }
    }
    // Neighbouring positions of one sample: each channel is one 8-float run.
    const bool run = mr == kMR && base[kMR - 1] == base[0] + kMR - 1;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* plane = data + (p0 + p) * positions;
      if (run) {
        std::memcpy(packed, plane + base[0], kMR * sizeof(float));
      } else {
        for (std::size_t i = 0; i < mr; ++i) packed[i] = plane[base[i]];
        for (std::size_t i = mr; i < kMR; ++i) packed[i] = 0.0f;
      }
      packed += kMR;
    }
  }
}

void ChannelMajorSource::pack_b(std::size_t p0, std::size_t col0,
                                std::size_t kc, std::size_t nc,
                                float* packed) const {
  const std::size_t sample = channels * positions;
  for (std::size_t jr = 0; jr < nc; jr += kNR) {
    const std::size_t nr = std::min(kNR, nc - jr);
    std::size_t b = p0 / positions;
    std::size_t pos = p0 % positions;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = data + b * sample + (col0 + jr) * positions + pos;
      for (std::size_t j = 0; j < nr; ++j) packed[j] = src[j * positions];
      for (std::size_t j = nr; j < kNR; ++j) packed[j] = 0.0f;
      packed += kNR;
      if (++pos == positions) {
        pos = 0;
        ++b;
      }
    }
  }
}

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

/// The MR×NR accumulator of one micro-kernel call. On the vector path it is
/// kMR×(kNR/kLanes) vf values, which the compiler keeps in vector registers
/// while the tile is only passed between the inlined helpers below.
struct Tile {
#ifdef GS_GEMM_VECTOR_KERNEL
  vf v[kMR][kNR / kLanes];
#else
  float v[kMR][kNR];
#endif
};

/// MR×NR register tile over a kc-long packed A panel / packed B panel. The
/// accumulator is a *local* array with constant-bound loops: the compiler
/// proves it cannot alias the operands, promotes it to vector registers
/// (8 ZMM on AVX-512) and fuses the broadcast-multiply-adds.
inline Tile micro_kernel(std::size_t kc, const float* __restrict ap,
                         const float* __restrict bp) {
  Tile acc = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict arow = ap + p * kMR;
    const float* __restrict brow = bp + p * kNR;
#ifdef GS_GEMM_VECTOR_KERNEL
    constexpr std::size_t kCols = kNR / kLanes;
    vf b[kCols];
    for (std::size_t v = 0; v < kCols; ++v) {
      b[v] = *reinterpret_cast<const vf*>(brow + v * kLanes);
    }
    for (std::size_t i = 0; i < kMR; ++i) {
      const float ai = arow[i];  // broadcast against each b vector
      for (std::size_t v = 0; v < kCols; ++v) acc.v[i][v] += ai * b[v];
    }
#else
    for (std::size_t i = 0; i < kMR; ++i) {
      const float ai = arow[i];
      for (std::size_t j = 0; j < kNR; ++j) acc.v[i][j] += ai * brow[j];
    }
#endif
  }
  return acc;
}

/// Adds one K panel's full MR×NR tile into C. On the first K-panel beta is
/// applied here (beta==0 never uses C); later panels accumulate with an
/// implicit beta of 1.
inline void update_tile(const Tile& acc, float alpha, float beta,
                        bool first_k_panel, float* __restrict c,
                        std::size_t ldc) {
  for (std::size_t i = 0; i < kMR; ++i) {
#ifdef GS_GEMM_VECTOR_KERNEL
    for (std::size_t v = 0; v < kNR / kLanes; ++v) {
      vf* cp = reinterpret_cast<vf*>(c + i * ldc + v * kLanes);
#else
    for (std::size_t v = 0; v < kNR; ++v) {
      float* cp = c + i * ldc + v;
#endif
      const auto prod = alpha * acc.v[i][v];
      if (!first_k_panel || beta == 1.0f) {
        *cp += prod;
      } else if (beta == 0.0f) {
        *cp = prod;
      } else {
        *cp = beta * *cp + prod;
      }
    }
  }
}

/// Adds the bias to a finished staged tile. Out of line, so the compiler
/// cannot contract the sum's last multiply with this add: the bias stays a
/// separate rounding, as a bias pass over the finished C would be.
[[gnu::noinline]] void add_bias(float (*stage)[kNR], std::size_t mr,
                                std::size_t nr, const float* bias) {
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t j = 0; j < nr; ++j) stage[i][j] += bias[j];
  }
}

/// Writes one K panel's tile into the mr×nr corner of C at (i0, j0) through
/// `store`. A full row-major tile with no bias and no column remap updates
/// C in place; every other tile runs the same update_tile on a staged copy
/// of its corner and is then scattered, so every element of C, edge or
/// interior, computed by either sgemm path into either store, is rounded by
/// one sequence of instructions (the same FMA contraction included).
template <class Store>
void store_tile(const Store& store, const Tile& acc, float alpha, float beta,
                bool first_k_panel, bool last_k_panel, std::size_t i0,
                std::size_t j0, std::size_t mr, std::size_t nr) {
  if constexpr (std::is_same_v<Store, RowMajorStore>) {
    if (mr == kMR && nr == kNR && store.bias == nullptr &&
        store.cols == nullptr) {
      update_tile(acc, alpha, beta, first_k_panel,
                  store.c + i0 * store.ldc + j0, store.ldc);
      return;
    }
  }
  std::size_t rows[kMR];
  store.row_offsets(i0, mr, rows);
  std::size_t cols[kNR];
  std::size_t offsets[kNR];
  for (std::size_t j = 0; j < nr; ++j) {
    cols[j] = store.cols != nullptr ? store.cols[j0 + j] : j0 + j;
    offsets[j] = store.col_offset(cols[j]);
  }
  float stage[kMR][kNR] = {};
  if (!first_k_panel || beta != 0.0f) {
    for (std::size_t i = 0; i < mr; ++i) {
      for (std::size_t j = 0; j < nr; ++j) {
        stage[i][j] = store.c[rows[i] + offsets[j]];
      }
    }
  }
  update_tile(acc, alpha, beta, first_k_panel, &stage[0][0], kNR);
  if (last_k_panel && store.bias != nullptr) {
    float bias[kNR];
    for (std::size_t j = 0; j < nr; ++j) bias[j] = store.bias[cols[j]];
    add_bias(stage, mr, nr, bias);
  }
  // Column by column: in a channel-major C each is one mr-long run.
  for (std::size_t j = 0; j < nr; ++j) {
    for (std::size_t i = 0; i < mr; ++i) {
      store.c[rows[i] + offsets[j]] = stage[i][j];
    }
  }
}

/// One row block (m ≤ kMC) over several K panels: each work item is one K
/// panel, accumulating its tiles into a private slot; the slots are then
/// written into C in panel order — the order the serial panel loop uses, so
/// every C element gets the same bits. B is packed one kc×NR micro-panel at
/// a time, just before use: with one row block each is read once anyway.
/// The slots hold about m·n·⌈k/KC⌉ floats, n/KC times the size of op(A).
template <class A, class B, class Store>
void sgemm_k_panels(std::size_t m, std::size_t n, std::size_t k, float alpha,
                    const A& a, const B& b, float beta, const Store& c) {
  const std::size_t row_tiles = (m + kMR - 1) / kMR;
  const std::size_t panels = (k + kKC - 1) / kKC;
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t tiles = row_tiles * ((nc + kNR - 1) / kNR);
    const auto slots = std::make_unique_for_overwrite<Tile[]>(panels * tiles);
    ThreadPool::global().parallel_for(panels, [&](std::size_t q) {
      const std::size_t pc = q * kKC;
      const std::size_t kc = std::min(kKC, k - pc);
      const auto packed_a =
          std::make_unique_for_overwrite<float[]>(row_tiles * kMR * kc);
      const auto packed_b = std::make_unique_for_overwrite<float[]>(kc * kNR);
      a.pack_a(0, pc, m, kc, packed_a.get());
      Tile* out = slots.get() + q * tiles;
      for (std::size_t jr = 0; jr < nc; jr += kNR) {
        b.pack_b(pc, jc + jr, kc, std::min(kNR, nc - jr), packed_b.get());
        for (std::size_t ir = 0; ir < m; ir += kMR) {
          *out++ = micro_kernel(kc, packed_a.get() + (ir / kMR) * kc * kMR,
                                packed_b.get());
        }
      }
    });
    const Tile* in = slots.get();
    for (std::size_t q = 0; q < panels; ++q) {
      for (std::size_t jr = 0; jr < nc; jr += kNR) {
        for (std::size_t ir = 0; ir < m; ir += kMR) {
          store_tile(c, *in++, alpha, beta, q == 0, q + 1 == panels, ir,
                     jc + jr, std::min(kMR, m - ir), std::min(kNR, nc - jr));
        }
      }
    }
  }
}

}  // namespace

template <class A, class B, class Store>
void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const A& a, const B& b, float beta, const Store& c) {
  if (m == 0 || n == 0) return;
  GS_CHECK_MSG(k > 0, "sgemm over sources needs k > 0");
  if (m <= kMC && k > kKC) {
    sgemm_k_panels(m, n, k, alpha, a, b, beta, c);
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
      const bool last_k_panel = pc + kc == k;
      b.pack_b(pc, jc, kc, nc, packed_b.get());

      const std::size_t m_blocks = (m + kMC - 1) / kMC;
      pool.parallel_for(m_blocks, [&](std::size_t block) {
        const std::size_t ic = block * kMC;
        const std::size_t mc = std::min(kMC, m - ic);
        // Thread-local packed A block (~128 KiB); allocation cost is noise
        // next to the O(MC·KC·NC) flops it feeds. pack_a writes every
        // element the micro-kernel reads, so no zero-init.
        const auto packed_a = std::make_unique_for_overwrite<float[]>(
            ((mc + kMR - 1) / kMR) * kMR * kc);
        a.pack_a(ic, pc, mc, kc, packed_a.get());

        for (std::size_t jr = 0; jr < nc; jr += kNR) {
          const std::size_t nr = std::min(kNR, nc - jr);
          const float* bp = packed_b.get() + (jr / kNR) * kc * kNR;
          for (std::size_t ir = 0; ir < mc; ir += kMR) {
            const std::size_t mr = std::min(kMR, mc - ir);
            const float* ap = packed_a.get() + (ir / kMR) * kc * kMR;
            store_tile(c, micro_kernel(kc, ap, bp), alpha, beta,
                       first_k_panel, last_k_panel, ic + ir, jc + jr, mr, nr);
          }
        }
      });
    }
  }
}

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
  sgemm(m, n, k, alpha, MatrixSource{a, lda, trans_a},
        MatrixSource{b, ldb, trans_b}, beta, RowMajorStore{c, ldc});
}

// The source/store combinations of the library: plain products, a conv
// forward into a channel-major output (dense, and each low-rank stage), the
// conv dW and dX products and their low-rank chain forms.
template void sgemm(std::size_t, std::size_t, std::size_t, float,
                    const MatrixSource&, const MatrixSource&, float,
                    const RowMajorStore&);
template void sgemm(std::size_t, std::size_t, std::size_t, float,
                    const MatrixSource&, const MatrixSource&, float,
                    const ChannelMajorStore&);
template void sgemm(std::size_t, std::size_t, std::size_t, float,
                    const PatchSource&, const MatrixSource&, float,
                    const RowMajorStore&);
template void sgemm(std::size_t, std::size_t, std::size_t, float,
                    const PatchSource&, const MatrixSource&, float,
                    const ChannelMajorStore&);
template void sgemm(std::size_t, std::size_t, std::size_t, float,
                    const PatchSource&, const ChannelMajorSource&, float,
                    const RowMajorStore&);
template void sgemm(std::size_t, std::size_t, std::size_t, float,
                    const MatrixSource&, const ChannelMajorSource&, float,
                    const RowMajorStore&);
template void sgemm(std::size_t, std::size_t, std::size_t, float,
                    const ChannelMajorSource&, const MatrixSource&, float,
                    const RowMajorStore&);

}  // namespace gs::kernel
