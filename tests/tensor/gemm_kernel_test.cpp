// Randomized cross-checks of the packed/blocked SGEMM against a naive
// double-accumulation reference: shapes straddling and not dividing the
// MC/KC/NC/MR/NR block sizes, all four transpose combinations, and the
// alpha/beta fold-in paths; and bitwise checks that the operand sources and
// stores give exactly the products of the materialised matrices.
#include "linalg/gemm_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor.hpp"

namespace gs {
namespace {

Tensor random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Tensor t(Shape{r, c});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

/// Reference C = alpha*op(A)*op(B) + beta*C with double accumulation.
Tensor reference_gemm(const Tensor& a, bool ta, const Tensor& b, bool tb,
                      const Tensor& c0, float alpha, float beta) {
  const std::size_t m = ta ? a.cols() : a.rows();
  const std::size_t k = ta ? a.rows() : a.cols();
  const std::size_t n = tb ? b.rows() : b.cols();
  Tensor c = c0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(alpha * acc + beta * c0.at(i, j));
    }
  }
  return c;
}

void check_case(std::size_t m, std::size_t n, std::size_t k, bool ta, bool tb,
                float alpha, float beta, std::uint64_t seed) {
  Rng rng(seed);
  Tensor a = ta ? random_matrix(k, m, rng) : random_matrix(m, k, rng);
  Tensor b = tb ? random_matrix(n, k, rng) : random_matrix(k, n, rng);
  Tensor c = random_matrix(m, n, rng);
  const Tensor expected = reference_gemm(a, ta, b, tb, c, alpha, beta);

  kernel::sgemm(m, n, k, alpha, a.data(), a.cols(), ta, b.data(), b.cols(),
                tb, beta, c.data(), n);

  // Scale tolerance with the k-sum length: float accumulation drifts from
  // the double reference by O(sqrt(k))·eps per element.
  const float tol = 1e-4f * (1.0f + static_cast<float>(k) / 64.0f);
  EXPECT_LE(max_abs_diff(c, expected), tol)
      << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
      << " tb=" << tb << " alpha=" << alpha << " beta=" << beta;
}

TEST(GemmKernel, BlockBoundaryShapeSweep) {
  // Shapes chosen to hit: exact multiples of MR/NR, off-by-one remainders,
  // single-row/column panels, and sizes crossing the MC/KC block edges.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1},     {3, 5, 7},     {8, 8, 8},     {9, 7, 8},
      {16, 16, 17},  {31, 33, 29},  {64, 64, 64},  {65, 63, 66},
      {127, 130, 129}, {128, 128, 256}, {130, 8, 257}, {8, 130, 300},
      {200, 1, 100}, {1, 200, 100}};
  std::uint64_t seed = 1;
  for (const auto& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        check_case(s[0], s[1], s[2], ta, tb, 1.0f, 0.0f, seed++);
      }
    }
  }
}

TEST(GemmKernel, AlphaBetaCombos) {
  std::uint64_t seed = 100;
  for (const float alpha : {1.0f, 0.5f, -2.0f, 0.0f}) {
    for (const float beta : {0.0f, 1.0f, 0.25f, -1.0f}) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          check_case(33, 41, 37, ta, tb, alpha, beta, seed++);
        }
      }
    }
  }
}

TEST(GemmKernel, BetaZeroIgnoresGarbageOutput) {
  // beta==0 must never read C — fill C with NaN and expect a clean product.
  Rng rng(7);
  Tensor a = random_matrix(40, 30, rng);
  Tensor b = random_matrix(30, 50, rng);
  Tensor c(Shape{40, 50}, std::numeric_limits<float>::quiet_NaN());
  kernel::sgemm(40, 50, 30, 1.0f, a.data(), 30, false, b.data(), 50, false,
                0.0f, c.data(), 50);
  const Tensor expected =
      reference_gemm(a, false, b, false, Tensor(Shape{40, 50}), 1.0f, 0.0f);
  EXPECT_LE(max_abs_diff(c, expected), 1e-4f);
}

TEST(GemmKernel, KZeroScalesExistingOutput) {
  Tensor c(Shape{3, 3}, 2.0f);
  kernel::sgemm(3, 3, 0, 1.0f, nullptr, 1, false, nullptr, 1, false, 0.5f,
                c.data(), 3);
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c[i], 1.0f);
}

TEST(GemmKernel, DeterministicAcrossRepeatedCalls) {
  // The pc barrier + disjoint row ownership make results bitwise stable
  // regardless of how the pool schedules macro-tiles.
  Rng rng(11);
  Tensor a = random_matrix(150, 90, rng);
  Tensor b = random_matrix(90, 140, rng);
  Tensor first(Shape{150, 140});
  kernel::sgemm(150, 140, 90, 1.0f, a.data(), 90, false, b.data(), 140, false,
                0.0f, first.data(), 140);
  for (int rep = 0; rep < 3; ++rep) {
    Tensor again(Shape{150, 140});
    kernel::sgemm(150, 140, 90, 1.0f, a.data(), 90, false, b.data(), 140,
                  false, 0.0f, again.data(), 140);
    EXPECT_EQ(max_abs_diff(first, again), 0.0f);
  }
}

TEST(GemmKernel, DispatcherMatchesKernelAcrossThreshold) {
  // gs::gemm is the checked shim over the packed kernel for every size; it
  // must agree with the reference on either side of 32³ flops, where a
  // separate small-product loop once took over.
  std::uint64_t seed = 500;
  for (const std::size_t side : {4u, 16u, 31u, 32u, 33u, 48u, 96u}) {
    Rng rng(seed++);
    Tensor a = random_matrix(side, side, rng);
    Tensor b = random_matrix(side, side, rng);
    const Tensor via_dispatcher = matmul(a, b);
    const Tensor expected = reference_gemm(
        a, false, b, false, Tensor(Shape{side, side}), 1.0f, 0.0f);
    EXPECT_LE(max_abs_diff(via_dispatcher, expected), 1e-3f) << side;
  }
}

TEST(GemmKernel, RandomizedStressSweep) {
  Rng shape_rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const auto m = static_cast<std::size_t>(1 + shape_rng.uniform_index(160));
    const auto n = static_cast<std::size_t>(1 + shape_rng.uniform_index(160));
    const auto k = static_cast<std::size_t>(1 + shape_rng.uniform_index(160));
    const bool ta = shape_rng.uniform_index(2) == 0;
    const bool tb = shape_rng.uniform_index(2) == 0;
    check_case(m, n, k, ta, tb, 1.0f, 0.0f, 1000 + trial);
  }
}

// ---- Sources and stores -----------------------------------------------------
// A product fed from a PatchSource or ChannelMajorSource, or stored
// channel-major with a bias, must equal the same product over materialised
// operands — im2col rows, re-tiled dY, a row-major C then add_row_vector and
// a re-tile — bit for bit. The filter counts put n off the 16-column tile
// grid and the row counts put m off the 8-row grid; the shapes cover the
// panel loop and the K-panel path (m ≤ kMC, k > kKC) for each product.

using kernel::ChannelMajorSource;
using kernel::ChannelMajorStore;
using kernel::MatrixSource;
using kernel::PatchSource;
using kernel::RowMajorStore;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct SourceCase {
  std::size_t batch, channels, size, kernel, stride, pad, filters;

  ConvGeometry geometry() const {
    ConvGeometry g;
    g.in_channels = channels;
    g.in_height = g.in_width = size;
    g.kernel_h = g.kernel_w = kernel;
    g.stride_h = g.stride_w = stride;
    g.pad_h = g.pad_w = pad;
    return g;
  }
};

void PrintTo(const SourceCase& c, std::ostream* os) {
  *os << "b" << c.batch << "_c" << c.channels << "_" << c.size << "_k"
      << c.kernel << "_s" << c.stride << "_p" << c.pad << "_f" << c.filters;
}

/// One case's operands: images, their im2col rows, a weight matrix, a
/// bias, a channel-major dY and its re-tiled (rows × F) form.
struct SourceOperands {
  ConvGeometry g;
  std::size_t batch, positions, rows, patch, filters;
  Tensor images, cols, w, bias, dy, dy_rows;

  explicit SourceOperands(const SourceCase& c)
      : g(c.geometry()),
        batch(c.batch),
        positions(g.out_height() * g.out_width()),
        rows(c.batch * positions),
        patch(g.patch_size()),
        filters(c.filters) {
    Rng rng(c.batch * 131 + c.size * 7 + c.filters);
    images = Tensor(Shape{batch, c.channels, c.size, c.size});
    images.fill_gaussian(rng, 0.0f, 1.0f);
    cols = Tensor(Shape{rows, patch});
    im2col_batch(images.data(), batch, g, cols.data(), ThreadPool::global());
    w = random_matrix(patch, filters, rng);
    bias = Tensor(Shape{filters});
    bias.fill_gaussian(rng, 0.0f, 1.0f);
    dy = Tensor(Shape{batch, filters, positions});
    dy.fill_gaussian(rng, 0.0f, 1.0f);
    dy_rows = Tensor(Shape{rows, filters});
    retile_batch(dy.data(), batch, filters, positions, dy_rows.data(),
                 ThreadPool::global());
  }
};

class GemmSources : public ::testing::TestWithParam<SourceCase> {};

TEST_P(GemmSources, PatchSourceForwardMatchesIm2colRowsBitwise) {
  const SourceOperands o(GetParam());
  Tensor expected(Shape{o.rows, o.filters});
  kernel::sgemm(o.rows, o.filters, o.patch, 1.0f,
                MatrixSource{o.cols.data(), o.patch},
                MatrixSource{o.w.data(), o.filters}, 0.0f,
                RowMajorStore{expected.data(), o.filters});
  Tensor got(Shape{o.rows, o.filters});
  kernel::sgemm(o.rows, o.filters, o.patch, 1.0f,
                PatchSource(o.images.data(), o.g),
                MatrixSource{o.w.data(), o.filters}, 0.0f,
                RowMajorStore{got.data(), o.filters});
  EXPECT_TRUE(bitwise_equal(got, expected));

  // Channel-major with the bias: the old bias pass and re-tile.
  add_row_vector(expected, o.bias);
  Tensor tiled(Shape{o.batch, o.filters, o.positions});
  retile_batch(expected.data(), o.batch, o.positions, o.filters, tiled.data(),
               ThreadPool::global());
  Tensor out(Shape{o.batch, o.filters, o.positions});
  kernel::sgemm(o.rows, o.filters, o.patch, 1.0f,
                PatchSource(o.images.data(), o.g),
                MatrixSource{o.w.data(), o.filters}, 0.0f,
                ChannelMajorStore{out.data(), o.positions, o.filters,
                                  o.bias.data()});
  EXPECT_TRUE(bitwise_equal(out, tiled));
}

TEST_P(GemmSources, BackwardSourcesMatchMaterialisedOperandsBitwise) {
  const SourceOperands o(GetParam());
  // dW += colsᵀ·dY onto a non-zero gradient (beta = 1).
  Rng rng(5);
  const Tensor grad0 = random_matrix(o.patch, o.filters, rng);
  Tensor expected = grad0;
  kernel::sgemm(o.patch, o.filters, o.rows, 1.0f,
                MatrixSource{o.cols.data(), o.patch, true},
                MatrixSource{o.dy_rows.data(), o.filters}, 1.0f,
                RowMajorStore{expected.data(), o.filters});
  Tensor got = grad0;
  kernel::sgemm(o.patch, o.filters, o.rows, 1.0f,
                PatchSource(o.images.data(), o.g, true),
                ChannelMajorSource{o.dy.data(), o.positions, o.filters}, 1.0f,
                RowMajorStore{got.data(), o.filters});
  EXPECT_TRUE(bitwise_equal(got, expected)) << "dW";

  // dcols = dY·Wᵀ.
  Tensor dcols(Shape{o.rows, o.patch});
  kernel::sgemm(o.rows, o.patch, o.filters, 1.0f,
                MatrixSource{o.dy_rows.data(), o.filters},
                MatrixSource{o.w.data(), o.filters, true}, 0.0f,
                RowMajorStore{dcols.data(), o.patch});
  Tensor dcols_src(Shape{o.rows, o.patch});
  kernel::sgemm(o.rows, o.patch, o.filters, 1.0f,
                ChannelMajorSource{o.dy.data(), o.positions, o.filters},
                MatrixSource{o.w.data(), o.filters, true}, 0.0f,
                RowMajorStore{dcols_src.data(), o.patch});
  EXPECT_TRUE(bitwise_equal(dcols_src, dcols)) << "dX";
}

TEST_P(GemmSources, LiveTapsAndColumnStoreMatchGatherScatterBitwise) {
  const SourceOperands o(GetParam());
  // Every third tap and every second output column are live.
  std::vector<std::uint32_t> taps;
  for (std::uint32_t q = 0; q < o.patch; q += 3) taps.push_back(q);
  std::vector<std::uint32_t> cols;
  for (std::uint32_t j = 0; j < o.filters; j += 2) cols.push_back(j);
  Tensor gathered(Shape{o.rows, taps.size()});
  for (std::size_t r = 0; r < o.rows; ++r) {
    for (std::size_t q = 0; q < taps.size(); ++q) {
      gathered.at(r, q) = o.cols.at(r, taps[q]);
    }
  }
  const Tensor packed(Shape{taps.size(), cols.size()}, 0.5f);
  Tensor product(Shape{o.rows, cols.size()});
  kernel::sgemm(o.rows, cols.size(), taps.size(), 1.0f,
                MatrixSource{gathered.data(), taps.size()},
                MatrixSource{packed.data(), cols.size()}, 0.0f,
                RowMajorStore{product.data(), cols.size()});
  Tensor expected(Shape{o.rows, o.filters});
  for (std::size_t r = 0; r < o.rows; ++r) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      expected.at(r, cols[j]) = product.at(r, j) + o.bias[cols[j]];
    }
  }
  Tensor from_rows(Shape{o.rows, o.filters});
  kernel::sgemm(o.rows, cols.size(), taps.size(), 1.0f,
                MatrixSource{o.cols.data(), o.patch, false, taps.data()},
                MatrixSource{packed.data(), cols.size()}, 0.0f,
                RowMajorStore{from_rows.data(), o.filters, o.bias.data(),
                              cols.data()});
  EXPECT_TRUE(bitwise_equal(from_rows, expected)) << "live K rows";
  Tensor from_images(Shape{o.rows, o.filters});
  kernel::sgemm(o.rows, cols.size(), taps.size(), 1.0f,
                PatchSource(o.images.data(), o.g, false, &taps),
                MatrixSource{packed.data(), cols.size()}, 0.0f,
                RowMajorStore{from_images.data(), o.filters, o.bias.data(),
                              cols.data()});
  EXPECT_TRUE(bitwise_equal(from_images, expected)) << "live taps";
}

// {batch, channels, size, kernel, stride, pad, filters}:
//  - 243 rows × 75 taps, pad 2: the panel loop everywhere;
//  - 18 rows × 300 taps, stride 2: the forward on the K-panel path;
//  - 320 rows × 300 taps, pad 1: two K panels in the panel loop, dW too;
//  - 484 rows × 18 taps, pad 1: dW on the K-panel path;
//  - 49 rows × 500 taps: LeNet conv2's patch, every product one row block.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSources,
    ::testing::Values(SourceCase{3, 3, 9, 5, 1, 2, 13},
                      SourceCase{2, 12, 9, 5, 2, 0, 13},
                      SourceCase{5, 12, 10, 5, 1, 1, 21},
                      SourceCase{4, 2, 11, 3, 1, 1, 5},
                      SourceCase{1, 20, 11, 5, 1, 0, 50}));

}  // namespace
}  // namespace gs
