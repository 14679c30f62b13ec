#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/matrix.hpp"

namespace gs {
namespace {

ConvGeometry simple_geometry(std::size_t c, std::size_t h, std::size_t w,
                             std::size_t k, std::size_t stride,
                             std::size_t pad) {
  ConvGeometry g;
  g.in_channels = c;
  g.in_height = h;
  g.in_width = w;
  g.kernel_h = g.kernel_w = k;
  g.stride_h = g.stride_w = stride;
  g.pad_h = g.pad_w = pad;
  return g;
}

TEST(ConvGeometry, OutputExtents) {
  const ConvGeometry g = simple_geometry(1, 28, 28, 5, 1, 0);
  EXPECT_EQ(g.out_height(), 24u);
  EXPECT_EQ(g.out_width(), 24u);
  EXPECT_EQ(g.patch_size(), 25u);
}

TEST(ConvGeometry, PaddedSameConvolution) {
  const ConvGeometry g = simple_geometry(3, 32, 32, 5, 1, 2);
  EXPECT_EQ(g.out_height(), 32u);
  EXPECT_EQ(g.out_width(), 32u);
  EXPECT_EQ(g.patch_size(), 75u);
}

TEST(ConvGeometry, StridedOutput) {
  const ConvGeometry g = simple_geometry(1, 7, 7, 3, 2, 0);
  EXPECT_EQ(g.out_height(), 3u);
  EXPECT_EQ(g.out_width(), 3u);
}

TEST(ConvGeometry, KernelLargerThanInputThrows) {
  const ConvGeometry g = simple_geometry(1, 3, 3, 5, 1, 0);
  EXPECT_THROW(g.validate(), Error);
}

TEST(Im2col, IdentityKernelExtractsPixels) {
  // 1×1 kernel: each patch row is exactly one pixel.
  Tensor img(Shape{1, 2, 2});
  img.at(0, 0, 0) = 1;
  img.at(0, 0, 1) = 2;
  img.at(0, 1, 0) = 3;
  img.at(0, 1, 1) = 4;
  const ConvGeometry g = simple_geometry(1, 2, 2, 1, 1, 0);
  Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.rows(), 4u);
  EXPECT_EQ(cols.cols(), 1u);
  EXPECT_EQ(cols.at(0, 0), 1.0f);
  EXPECT_EQ(cols.at(3, 0), 4.0f);
}

TEST(Im2col, PatchContentsChannelMajor) {
  Tensor img(Shape{2, 2, 2});
  for (std::size_t i = 0; i < img.numel(); ++i) {
    img[i] = static_cast<float>(i);
  }
  const ConvGeometry g = simple_geometry(2, 2, 2, 2, 1, 0);
  Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.rows(), 1u);
  EXPECT_EQ(cols.cols(), 8u);
  // Channel-major order: channel 0 rows, then channel 1 rows.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cols.at(0, i), static_cast<float>(i));
  }
}

TEST(Im2col, ZeroPaddingFillsBorder) {
  Tensor img(Shape{1, 1, 1}, 5.0f);
  const ConvGeometry g = simple_geometry(1, 1, 1, 3, 1, 1);
  Tensor cols = im2col(img, g);
  EXPECT_EQ(cols.rows(), 1u);
  EXPECT_EQ(cols.cols(), 9u);
  float sum = 0.0f;
  for (std::size_t i = 0; i < 9; ++i) sum += cols.at(0, i);
  EXPECT_EQ(sum, 5.0f);          // only the centre is the pixel
  EXPECT_EQ(cols.at(0, 4), 5.0f);  // centre of the 3×3 patch
}

TEST(Im2col, RejectsShapeMismatch) {
  Tensor img(Shape{2, 4, 4});
  const ConvGeometry g = simple_geometry(1, 4, 4, 3, 1, 0);
  EXPECT_THROW(im2col(img, g), Error);
}

TEST(Col2im, RejectsShapeMismatch) {
  const ConvGeometry g = simple_geometry(1, 4, 4, 3, 1, 0);
  Tensor bad(Shape{3, 9});
  EXPECT_THROW(col2im(bad, g), Error);
}

TEST(Col2im, AccumulatesOverlappingPatches) {
  // 2×2 input, 1×1 kernel stride 1: col2im of all-ones gives all-ones.
  const ConvGeometry g = simple_geometry(1, 2, 2, 1, 1, 0);
  Tensor cols(Shape{4, 1}, 1.0f);
  Tensor img = col2im(cols, g);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(img[i], 1.0f);
}

/// Property sweep: col2im is the exact adjoint of im2col —
/// <im2col(x), y> = <x, col2im(y)> for random x, y across geometries
/// (including both paper conv shapes).
class Im2colAdjointSweep
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                     std::size_t>> {};

TEST_P(Im2colAdjointSweep, AdjointIdentity) {
  const auto [c, hw, k, stride, pad] = GetParam();
  const ConvGeometry g = simple_geometry(c, hw, hw, k, stride, pad);
  g.validate();
  Rng rng(c * 100 + hw * 10 + k + stride + pad);

  Tensor x(Shape{c, hw, hw});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor y(Shape{g.out_height() * g.out_width(), g.patch_size()});
  y.fill_gaussian(rng, 0.0f, 1.0f);

  const double lhs = frobenius_dot(im2col(x, g), y);
  const Tensor back = col2im(y, g);
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjointSweep,
    ::testing::Values(
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(1, 8, 3, 1, 0),
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(1, 28, 5, 1, 0),   // LeNet conv1
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(3, 32, 5, 1, 2),   // ConvNet conv1
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(2, 9, 3, 2, 1),
        std::make_tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                        std::size_t>(4, 6, 2, 2, 0)));

/// Per-element reference of both lowerings: one bounds check per tap, in
/// the (oy, ox, c, ky, kx) order of the patch matrix.
template <typename Tap>
void for_each_tap(const ConvGeometry& g, Tap&& tap) {
  std::size_t idx = 0;
  for (std::size_t oy = 0; oy < g.out_height(); ++oy) {
    for (std::size_t ox = 0; ox < g.out_width(); ++ox) {
      for (std::size_t c = 0; c < g.in_channels; ++c) {
        for (std::size_t ky = 0; ky < g.kernel_h; ++ky) {
          for (std::size_t kx = 0; kx < g.kernel_w; ++kx, ++idx) {
            const long long iy = static_cast<long long>(oy * g.stride_h + ky) -
                                 static_cast<long long>(g.pad_h);
            const long long ix = static_cast<long long>(ox * g.stride_w + kx) -
                                 static_cast<long long>(g.pad_w);
            const bool inside =
                iy >= 0 && iy < static_cast<long long>(g.in_height) &&
                ix >= 0 && ix < static_cast<long long>(g.in_width);
            const std::size_t pixel =
                inside ? (c * g.in_height + static_cast<std::size_t>(iy)) *
                                 g.in_width +
                             static_cast<std::size_t>(ix)
                       : 0;
            tap(idx, inside, pixel);
          }
        }
      }
    }
  }
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Geometries for the row-run kernels: the 5-wide kernels take the
/// fixed-width path, the others the generic one; padding as wide as the
/// kernel leaves whole patch columns in the border, and strides skip input
/// columns.
std::vector<ConvGeometry> run_geometries() {
  std::vector<ConvGeometry> out;
  for (const std::size_t kw : {1, 3, 5, 7}) {
    for (const std::size_t stride : {1, 2, 3}) {
      for (const std::size_t pad : {0, 1, 2, 5}) {
        ConvGeometry g = simple_geometry(2, 9, 11, kw, stride, pad);
        g.kernel_h = kw == 1 ? 2 : kw - 1;  // non-square windows too
        g.stride_h = stride == 1 ? 2 : 1;
        if (g.in_height + 2 * g.pad_h < g.kernel_h) continue;
        out.push_back(g);
      }
    }
  }
  return out;
}

TEST(Im2col, RowRunKernelsMatchPerElementLoopsBitwise) {
  Rng rng(31);
  for (const ConvGeometry& g : run_geometries()) {
    SCOPED_TRACE(::testing::Message()
                 << "k" << g.kernel_h << "x" << g.kernel_w << " s"
                 << g.stride_h << "," << g.stride_w << " p" << g.pad_w);
    Tensor image(Shape{g.in_channels, g.in_height, g.in_width});
    image.fill_gaussian(rng, 0.0f, 1.0f);
    Tensor expected_cols(Shape{g.out_height() * g.out_width(), g.patch_size()});
    for_each_tap(g, [&](std::size_t idx, bool inside, std::size_t pixel) {
      expected_cols[idx] = inside ? image[pixel] : 0.0f;
    });
    EXPECT_TRUE(bitwise_equal(im2col(image, g), expected_cols));

    Tensor cols(expected_cols.shape());
    cols.fill_gaussian(rng, 0.0f, 1.0f);
    Tensor expected_image(image.shape());
    for_each_tap(g, [&](std::size_t idx, bool inside, std::size_t pixel) {
      if (inside) expected_image[pixel] += cols[idx];
    });
    EXPECT_TRUE(bitwise_equal(col2im(cols, g), expected_image));
  }
}

TEST(Im2col, BatchHelpersMatchPerSampleCallsBitwise) {
  Rng rng(37);
  ThreadPool pool(3);
  const ConvGeometry g = simple_geometry(3, 10, 10, 5, 1, 2);
  const std::size_t batch = 7;
  const std::size_t sample = 3 * 10 * 10;
  const std::size_t rows = g.out_height() * g.out_width();
  const std::size_t patch = rows * g.patch_size();
  Tensor images(Shape{batch, 3, 10, 10});
  images.fill_gaussian(rng, 0.0f, 1.0f);

  Tensor cols(Shape{batch * rows, g.patch_size()});
  im2col_batch(images.data(), batch, g, cols.data(), pool);
  Tensor back(images.shape());
  col2im_batch(cols.data(), batch, g, back.data(), pool);
  Tensor tiled(Shape{batch, g.patch_size(), rows});
  retile_batch(cols.data(), batch, rows, g.patch_size(), tiled.data(), pool);

  Tensor expected_cols(cols.shape());
  Tensor expected_back(images.shape());
  Tensor expected_tiled(tiled.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    im2col(images.data() + b * sample, g, expected_cols.data() + b * patch);
    col2im(cols.data() + b * patch, g, expected_back.data() + b * sample);
    retile(cols.data() + b * patch, rows, g.patch_size(),
           expected_tiled.data() + b * patch);
  }
  EXPECT_TRUE(bitwise_equal(cols, expected_cols));
  EXPECT_TRUE(bitwise_equal(back, expected_back));
  EXPECT_TRUE(bitwise_equal(tiled, expected_tiled));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < g.patch_size(); ++c) {
      ASSERT_EQ(tiled.data()[c * rows + r], cols.at(r, c));
    }
  }
}

TEST(Im2col, ConvViaGemmMatchesDirectConvolution) {
  // Full pipeline check: im2col + GEMM equals the textbook convolution sum.
  Rng rng(9);
  const ConvGeometry g = simple_geometry(2, 6, 6, 3, 1, 1);
  Tensor img(Shape{2, 6, 6});
  img.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor weight(Shape{g.patch_size(), 4});  // 4 filters
  weight.fill_gaussian(rng, 0.0f, 1.0f);

  Tensor cols = im2col(img, g);
  Tensor out = matmul(cols, weight);  // (36, 4)

  for (std::size_t f = 0; f < 4; ++f) {
    for (std::size_t oy = 0; oy < 6; ++oy) {
      for (std::size_t ox = 0; ox < 6; ++ox) {
        double acc = 0.0;
        std::size_t idx = 0;
        for (std::size_t c = 0; c < 2; ++c) {
          for (std::size_t ky = 0; ky < 3; ++ky) {
            for (std::size_t kx = 0; kx < 3; ++kx, ++idx) {
              const long long iy = static_cast<long long>(oy + ky) - 1;
              const long long ix = static_cast<long long>(ox + kx) - 1;
              if (iy >= 0 && iy < 6 && ix >= 0 && ix < 6) {
                acc += static_cast<double>(
                           img.at(c, static_cast<std::size_t>(iy),
                                  static_cast<std::size_t>(ix))) *
                       weight.at(idx, f);
              }
            }
          }
        }
        EXPECT_NEAR(out.at(oy * 6 + ox, f), acc, 1e-3);
      }
    }
  }
}

}  // namespace
}  // namespace gs
