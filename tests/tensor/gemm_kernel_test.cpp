// Randomized cross-checks of the packed/blocked SGEMM against a naive
// double-accumulation reference: shapes straddling and not dividing the
// MC/KC/NC/MR/NR block sizes, all four transpose combinations, and the
// alpha/beta fold-in paths.
#include "linalg/gemm_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <vector>

#include "common/rng.hpp"
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

}  // namespace
}  // namespace gs
