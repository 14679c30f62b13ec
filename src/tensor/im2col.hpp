// im2col / col2im lowering for convolution.
//
// Convolutions are computed as GEMMs over im2col patch matrices — the same
// lowering Caffe (the paper's training stack) uses, and the lowering that
// defines the "unrolled" (C·kh·kw × F) weight-matrix view that the crossbar
// mapper consumes. gs::nn never materialises the patch matrix: its GEMMs
// pack patch rows straight from the images (kernel::PatchSource,
// linalg/gemm_kernel.hpp) and only col2im runs here. runtime::Executor,
// which quantises every patch row, lowers with im2col_batch and re-tiles
// with retile_batch.
#pragma once

#include "tensor/tensor.hpp"

namespace gs {

class ThreadPool;

/// Geometry of a 2-D convolution / pooling window.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_height = 0;
  std::size_t in_width = 0;
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride_h = 1;
  std::size_t stride_w = 1;
  std::size_t pad_h = 0;
  std::size_t pad_w = 0;

  /// Output spatial extents; throws if the window never fits.
  std::size_t out_height() const;
  std::size_t out_width() const;
  /// Patch length = in_channels * kernel_h * kernel_w.
  std::size_t patch_size() const;
  /// Validates all extents are positive and the window fits.
  void validate() const;
};

/// Lowers one image (C×H×W, rank-3) into a patch matrix of shape
/// (out_h*out_w, patch_size); row p holds the receptive field of output
/// position p in channel-major order. Zero padding is applied. Each
/// (p, channel, ky) is one contiguous kx run, with the padding of every
/// output column resolved once.
Tensor im2col(const Tensor& image, const ConvGeometry& g);

/// Unchecked form of the above: reads a C×H×W image from `image` and writes
/// the (out_h*out_w × patch_size) patch matrix to `out`, which must hold
/// that many floats. `g` must be valid. Lets a batched caller lower each
/// sample straight into its rows of a shared patch matrix.
void im2col(const float* image, const ConvGeometry& g, float* out);

/// Adjoint of im2col: accumulates a patch-matrix gradient back into an
/// image-shaped gradient (C×H×W). Exactly the transpose of the linear
/// im2col map, which property tests verify via <im2col(x), y> = <x, col2im(y)>.
Tensor col2im(const Tensor& columns, const ConvGeometry& g);

/// Unchecked form of the above: adds the (out_h*out_w × patch_size) patch
/// matrix at `columns` into the C×H×W image at `image` (+=, so a zeroed
/// image yields exactly col2im). `g` must be valid. Every pixel sums its
/// contributions in ascending output-position order.
void col2im(const float* columns, const ConvGeometry& g, float* image);

/// The re-tile around a conv GEMM: writes the row-major (rows × cols) block
/// at `src` transposed to `dst` as (cols × rows). Patch-major GEMM output
/// (oh*ow × F) becomes a channel-major F×oh×ow map with rows = oh*ow, and a
/// channel-major gradient becomes the patch-major dY with rows = F. A pure
/// copy, so every caller gets bitwise the same values.
void retile(const float* src, std::size_t rows, std::size_t cols, float* dst);

/// Batch forms, parallel over samples on `pool`; each sample owns a disjoint
/// slice of the output, so results are bitwise those of the per-sample calls
/// at any pool size.
///
/// im2col_batch lowers `batch` C×H×W images at `images` into one
/// (batch·out_h·out_w × patch_size) patch matrix at `out`.
void im2col_batch(const float* images, std::size_t batch, const ConvGeometry& g,
                  float* out, ThreadPool& pool);
/// col2im_batch adds each sample's (out_h·out_w × patch_size) rows of
/// `columns` into its C×H×W image at `images` (+=).
void col2im_batch(const float* columns, std::size_t batch,
                  const ConvGeometry& g, float* images, ThreadPool& pool);
/// retile_batch re-tiles `batch` consecutive (rows × cols) blocks.
void retile_batch(const float* src, std::size_t batch, std::size_t rows,
                  std::size_t cols, float* dst, ThreadPool& pool);

}  // namespace gs
