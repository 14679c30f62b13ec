#include "tensor/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

#include "common/rng.hpp"

namespace gs {
namespace {

/// Naive reference O(n³) multiply for validating the blocked kernel.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(Shape{a.rows(), b.cols()});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(Matrix, TransposeSwapsIndices) {
  Tensor a = Tensor::from_rows({{1, 2, 3}, {4, 5, 6}});
  Tensor t = transposed(a);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(t.at(j, i), a.at(i, j));
    }
  }
}

TEST(Matrix, DoubleTransposeIsIdentity) {
  Rng rng(1);
  Tensor a(Shape{37, 53});
  a.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(transposed(transposed(a)), a, 0.0f));
}

TEST(Matrix, MatmulSmallKnownValues) {
  Tensor a = Tensor::from_rows({{1, 2}, {3, 4}});
  Tensor b = Tensor::from_rows({{5, 6}, {7, 8}});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Matrix, MatmulIdentityIsNoop) {
  Rng rng(2);
  Tensor a(Shape{13, 13});
  a.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(matmul(a, identity(13)), a, 1e-5f));
  EXPECT_TRUE(allclose(matmul(identity(13), a), a, 1e-5f));
}

TEST(Matrix, GemmInnerDimensionMismatchThrows) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{4, 5});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Matrix, GemmOutputShapeValidated) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{3, 4});
  Tensor wrong(Shape{2, 5});
  EXPECT_THROW(gemm(a, false, b, false, wrong), Error);
}

TEST(Matrix, GemmAliasRejected) {
  Tensor a(Shape{3, 3}, 1.0f);
  EXPECT_THROW(gemm(a, false, a, false, a), Error);
}

TEST(Matrix, GemmAlphaBetaSemantics) {
  Tensor a = Tensor::from_rows({{1, 0}, {0, 1}});
  Tensor b = Tensor::from_rows({{2, 0}, {0, 2}});
  Tensor c(Shape{2, 2}, 1.0f);
  gemm(a, false, b, false, c, /*alpha=*/3.0f, /*beta=*/2.0f);
  // c = 3·(a·b) + 2·ones ⇒ diagonal 6+2=8, off-diagonal 0+2=2.
  EXPECT_FLOAT_EQ(c.at(0, 0), 8.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 2.0f);
}

/// Property sweep: blocked GEMM agrees with the naive reference for all
/// transpose combinations across shapes (including the paper's matrix
/// geometries).
class GemmSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t, bool, bool>> {};

TEST_P(GemmSweep, MatchesNaiveReference) {
  const auto [m, k, n, ta, tb] = GetParam();
  Rng rng(m * 1000 + k * 100 + n + ta * 2 + tb);
  Tensor a = ta ? Tensor(Shape{k, m}) : Tensor(Shape{m, k});
  Tensor b = tb ? Tensor(Shape{n, k}) : Tensor(Shape{k, n});
  a.fill_gaussian(rng, 0.0f, 1.0f);
  b.fill_gaussian(rng, 0.0f, 1.0f);

  Tensor fast = matmul(a, b, ta, tb);
  Tensor ref = naive_matmul(ta ? transposed(a) : a, tb ? transposed(b) : b);
  EXPECT_LE(max_abs_diff(fast, ref), 1e-3f)
      << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
      << " tb=" << tb;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 7, 25, 64),
                       ::testing::Values<std::size_t>(1, 13, 50),
                       ::testing::Values<std::size_t>(1, 9, 36),
                       ::testing::Bool(), ::testing::Bool()));

// A row of op(A)·op(B) depends only on that row of op(A) and on op(B), not
// on how many rows share the call: computing a batch in blocks of rows must
// give one whole call's bits. The shapes put some block products at or under
// 32³ flops and others above it, so a size-selected second kernel would show.
// K = 300 and 800 span several kKC panels: the 1-, 7- and 64-row blocks then
// take the K-panel-parallel path and the 200-row call the serial panel loop,
// so the two must round alike, with alpha and beta as well as without.
TEST(Matrix, GemmRowsDoNotDependOnBatchRows) {
  constexpr std::size_t kRows = 200;
  const std::pair<std::size_t, std::size_t> kn_shapes[] = {
      {5, 5}, {13, 12}, {25, 20}, {32, 32}, {50, 40}, {300, 20}, {800, 40}};
  const std::pair<float, float> scalings[] = {{1.0f, 0.0f}, {0.75f, 0.5f}};
  std::uint64_t seed = 70;
  for (const auto& [k, n] : kn_shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        Rng rng(seed++);
        Tensor a = ta ? Tensor(Shape{k, kRows}) : Tensor(Shape{kRows, k});
        Tensor b = tb ? Tensor(Shape{n, k}) : Tensor(Shape{k, n});
        Tensor c0(Shape{kRows, n});
        a.fill_gaussian(rng, 0.0f, 1.0f);
        b.fill_gaussian(rng, 0.0f, 1.0f);
        c0.fill_gaussian(rng, 0.0f, 1.0f);
        for (const auto& [alpha, beta] : scalings) {
          Tensor whole = c0;
          gemm(a, ta, b, tb, whole, alpha, beta);
          for (const std::size_t block : {1u, 7u, 64u}) {
            SCOPED_TRACE(::testing::Message()
                         << "k=" << k << " n=" << n << " ta=" << ta
                         << " tb=" << tb << " alpha=" << alpha
                         << " beta=" << beta << " block=" << block);
            for (std::size_t r0 = 0; r0 < kRows; r0 += block) {
              const std::size_t rows = std::min(block, kRows - r0);
              Tensor part_a =
                  ta ? Tensor(Shape{k, rows}) : Tensor(Shape{rows, k});
              Tensor part(Shape{rows, n});
              for (std::size_t i = 0; i < rows; ++i) {
                for (std::size_t p = 0; p < k; ++p) {
                  if (ta) {
                    part_a.at(p, i) = a.at(p, r0 + i);
                  } else {
                    part_a.at(i, p) = a.at(r0 + i, p);
                  }
                }
                for (std::size_t j = 0; j < n; ++j) {
                  part.at(i, j) = c0.at(r0 + i, j);
                }
              }
              gemm(part_a, ta, b, tb, part, alpha, beta);
              EXPECT_EQ(std::memcmp(part.data(), whole.data() + r0 * n,
                                    part.numel() * sizeof(float)),
                        0)
                  << "rows " << r0 << ".." << r0 + rows;
            }
          }
        }
      }
    }
  }
}

TEST(Matrix, AddRowVectorBroadcasts) {
  Tensor a = Tensor::from_rows({{1, 2}, {3, 4}});
  Tensor b(Shape{2});
  b[0] = 10.0f;
  b[1] = 20.0f;
  add_row_vector(a, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 24.0f);
}

TEST(Matrix, SumRowsAggregates) {
  Tensor a = Tensor::from_rows({{1, 2}, {3, 4}, {5, 6}});
  Tensor s = sum_rows(a);
  EXPECT_FLOAT_EQ(s[0], 9.0f);
  EXPECT_FLOAT_EQ(s[1], 12.0f);
}

TEST(Matrix, SumRowsIsAdjointOfAddRowVector) {
  // <A + 1·bᵀ − A, C> relation reduces to <b, sum_rows(C)>; verify the
  // adjoint identity <1·bᵀ, C> = <b, sum_rows(C)>.
  Rng rng(5);
  Tensor b(Shape{6});
  b.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor c(Shape{4, 6});
  c.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor broadcast(Shape{4, 6});
  add_row_vector(broadcast, b);
  const double lhs = frobenius_dot(broadcast, c);
  const Tensor sums = sum_rows(c);
  double rhs = 0.0;
  for (std::size_t j = 0; j < 6; ++j) rhs += double(b[j]) * sums[j];
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(Matrix, FrobeniusDotOfOrthogonalPatterns) {
  Tensor a = Tensor::from_rows({{1, 0}, {0, 0}});
  Tensor b = Tensor::from_rows({{0, 0}, {0, 1}});
  EXPECT_EQ(frobenius_dot(a, b), 0.0);
}

TEST(Matrix, IdentityStructure) {
  Tensor eye = identity(4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(eye.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

}  // namespace
}  // namespace gs
