#include "tensor/im2col.hpp"

#include <algorithm>
#include <vector>

#include "common/thread_pool.hpp"

namespace gs {

std::size_t ConvGeometry::out_height() const {
  GS_CHECK_MSG(in_height + 2 * pad_h >= kernel_h,
               "kernel taller than padded input");
  return (in_height + 2 * pad_h - kernel_h) / stride_h + 1;
}

std::size_t ConvGeometry::out_width() const {
  GS_CHECK_MSG(in_width + 2 * pad_w >= kernel_w,
               "kernel wider than padded input");
  return (in_width + 2 * pad_w - kernel_w) / stride_w + 1;
}

std::size_t ConvGeometry::patch_size() const {
  return in_channels * kernel_h * kernel_w;
}

void ConvGeometry::validate() const {
  GS_CHECK(in_channels > 0 && in_height > 0 && in_width > 0);
  GS_CHECK(kernel_h > 0 && kernel_w > 0);
  GS_CHECK(stride_h > 0 && stride_w > 0);
  (void)out_height();
  (void)out_width();
}

namespace {

/// The in-image kx run of one output column: taps kx in [lo, hi) read input
/// columns first, first + 1, …; taps outside it fall in the zero padding.
struct ColumnRun {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t first = 0;
};

/// Resolves the padding of every output column once, so the patch loops
/// below copy or accumulate plain contiguous runs.
std::vector<ColumnRun> column_runs(const ConvGeometry& g) {
  const long long iw = static_cast<long long>(g.in_width);
  const long long kw = static_cast<long long>(g.kernel_w);
  std::vector<ColumnRun> runs(g.out_width());
  for (std::size_t ox = 0; ox < runs.size(); ++ox) {
    const long long x0 = static_cast<long long>(ox * g.stride_w) -
                         static_cast<long long>(g.pad_w);
    const long long lo = std::clamp(-x0, 0LL, kw);
    const long long hi = std::clamp(iw - x0, lo, kw);
    if (hi > lo) {
      runs[ox] = {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi),
                  static_cast<std::size_t>(x0 + lo)};
    }
  }
  return runs;
}

/// Offsets (iy · in_width) of the input rows that taps ky = 0… read at
/// output row oy, or -1 where the tap falls in the zero padding.
void input_rows(const ConvGeometry& g, std::size_t oy,
                std::vector<long long>& offsets) {
  for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
    const long long iy = static_cast<long long>(oy * g.stride_h + ky) -
                         static_cast<long long>(g.pad_h);
    offsets[ky] = iy >= 0 && iy < static_cast<long long>(g.in_height)
                      ? iy * static_cast<long long>(g.in_width)
                      : -1;
  }
}

}  // namespace

void im2col(const float* image, const ConvGeometry& g, float* out) {
  const std::size_t kw = g.kernel_w;
  const std::size_t plane = g.in_height * g.in_width;
  const std::vector<ColumnRun> runs = column_runs(g);
  std::vector<long long> rows(g.kernel_h);
  const std::size_t oh = g.out_height();
  float* row = out;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    input_rows(g, oy, rows);
    for (const ColumnRun& run : runs) {
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        const float* chan = image + c * plane + run.first;
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky, row += kw) {
          if (rows[ky] < 0) {
            std::fill(row, row + kw, 0.0f);
            continue;
          }
          const float* src = chan + rows[ky];
          std::size_t kx = 0;
          for (; kx < run.lo; ++kx) row[kx] = 0.0f;
          for (; kx < run.hi; ++kx) row[kx] = src[kx - run.lo];
          for (; kx < kw; ++kx) row[kx] = 0.0f;
        }
      }
    }
  }
}

Tensor im2col(const Tensor& image, const ConvGeometry& g) {
  g.validate();
  GS_CHECK_MSG(image.rank() == 3 && image.dim(0) == g.in_channels &&
                   image.dim(1) == g.in_height && image.dim(2) == g.in_width,
               "im2col input shape " << shape_to_string(image.shape()));
  Tensor cols(Shape{g.out_height() * g.out_width(), g.patch_size()});
  im2col(image.data(), g, cols.data());
  return cols;
}

Tensor col2im(const Tensor& columns, const ConvGeometry& g) {
  g.validate();
  GS_CHECK_MSG(columns.rank() == 2 &&
                   columns.rows() == g.out_height() * g.out_width() &&
                   columns.cols() == g.patch_size(),
               "col2im input shape " << shape_to_string(columns.shape()));
  Tensor image(Shape{g.in_channels, g.in_height, g.in_width});
  col2im(columns.data(), g, image.data());
  return image;
}

// Same (oy, ox, c, ky, kx) nest as im2col, so every input pixel sums
// its contributions in ascending (oy, ox) order.
void col2im(const float* columns, const ConvGeometry& g, float* image) {
  const std::size_t kw = g.kernel_w;
  const std::size_t plane = g.in_height * g.in_width;
  const std::vector<ColumnRun> runs = column_runs(g);
  std::vector<long long> rows(g.kernel_h);
  const std::size_t oh = g.out_height();
  const float* row = columns;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    input_rows(g, oy, rows);
    for (const ColumnRun& run : runs) {
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        float* chan = image + c * plane + run.first;
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky, row += kw) {
          if (rows[ky] < 0) continue;
          float* dst = chan + rows[ky];
          for (std::size_t kx = run.lo; kx < run.hi; ++kx) {
            dst[kx - run.lo] += row[kx];
          }
        }
      }
    }
  }
}

void retile(const float* src, std::size_t rows, std::size_t cols, float* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      dst[c * rows + r] = row[c];
    }
  }
}

void im2col_batch(const float* images, std::size_t batch, const ConvGeometry& g,
                  float* out, ThreadPool& pool) {
  const std::size_t sample = g.in_channels * g.in_height * g.in_width;
  const std::size_t patches = g.out_height() * g.out_width() * g.patch_size();
  pool.parallel_for(batch, [&](std::size_t b) {
    im2col(images + b * sample, g, out + b * patches);
  });
}

void col2im_batch(const float* columns, std::size_t batch,
                  const ConvGeometry& g, float* images, ThreadPool& pool) {
  const std::size_t sample = g.in_channels * g.in_height * g.in_width;
  const std::size_t patches = g.out_height() * g.out_width() * g.patch_size();
  pool.parallel_for(batch, [&](std::size_t b) {
    col2im(columns + b * patches, g, images + b * sample);
  });
}

void retile_batch(const float* src, std::size_t batch, std::size_t rows,
                  std::size_t cols, float* dst, ThreadPool& pool) {
  pool.parallel_for(batch, [&](std::size_t b) {
    retile(src + b * rows * cols, rows, cols, dst + b * rows * cols);
  });
}

}  // namespace gs
