#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace gs {
namespace {

TEST(Shape, NumelOfEmptyShapeIsZero) { EXPECT_EQ(shape_numel({}), 0u); }

TEST(Shape, NumelMultipliesExtents) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24u);
  EXPECT_EQ(shape_numel({7}), 7u);
}

TEST(Shape, ToStringFormats) {
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_to_string({}), "[]");
}

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ConstructionZeroFills) {
  Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6u);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, RejectsZeroExtent) {
  EXPECT_THROW(Tensor(Shape{2, 0, 3}), Error);
}

TEST(Tensor, FillValueConstructor) {
  Tensor t(Shape{4}, 2.5f);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, DataConstructorChecksSize) {
  EXPECT_NO_THROW(Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3}), Error);
}

TEST(Tensor, FromRowsLaysOutRowMajor) {
  Tensor t = Tensor::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.at(0, 2), 3.0f);
  EXPECT_EQ(t.at(1, 0), 4.0f);
}

TEST(Tensor, FromRowsRejectsRagged) {
  EXPECT_THROW(Tensor::from_rows({{1, 2}, {3}}), Error);
}

TEST(Tensor, MultiIndexAccessors) {
  Tensor t3(Shape{2, 3, 4});
  t3.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(t3[1 * 12 + 2 * 4 + 3], 9.0f);

  Tensor t4(Shape{2, 2, 2, 2});
  t4.at(1, 0, 1, 0) = 5.0f;
  EXPECT_EQ(t4[1 * 8 + 0 * 4 + 1 * 2 + 0], 5.0f);
}

TEST(Tensor, AccessorsValidateRankAndBounds) {
  Tensor t(Shape{2, 3});
  EXPECT_THROW(t.at(2, 0), Error);   // row out of bounds
  EXPECT_THROW(t.at(0, 3), Error);   // col out of bounds
  EXPECT_THROW(t.at(0), Error);      // wrong rank
  EXPECT_THROW(t.at(0, 0, 0), Error);
}

TEST(Tensor, RowsColsRequireRank2) {
  Tensor t(Shape{4});
  EXPECT_THROW(t.rows(), Error);
  EXPECT_THROW(t.cols(), Error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from_rows({{1, 2}, {3, 4}});
  t.reshape({4});
  EXPECT_EQ(t.rank(), 1u);
  EXPECT_EQ(t.at(3), 4.0f);
}

TEST(Tensor, ReshapeRejectsNumelChange) {
  Tensor t(Shape{2, 2});
  EXPECT_THROW(t.reshape({3}), Error);
}

TEST(Tensor, ReshapedReturnsCopy) {
  Tensor t(Shape{2, 2}, 1.0f);
  Tensor r = t.reshaped({4});
  r[0] = 7.0f;
  EXPECT_EQ(t[0], 1.0f);  // original untouched
}

TEST(Tensor, ReleaseMovesStorageOut) {
  Tensor t(Shape{2, 3}, 4.0f);
  const std::vector<float> data = t.release();
  EXPECT_EQ(data, std::vector<float>(6, 4.0f));
  EXPECT_EQ(t.numel(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a = Tensor::from_rows({{1, 2}});
  Tensor b = Tensor::from_rows({{3, 4}});
  Tensor sum = a + b;
  EXPECT_EQ(sum.at(0, 0), 4.0f);
  EXPECT_EQ(sum.at(0, 1), 6.0f);
  Tensor diff = b - a;
  EXPECT_EQ(diff.at(0, 0), 2.0f);
  Tensor scaled = a * 2.0f;
  EXPECT_EQ(scaled.at(0, 1), 4.0f);
}

TEST(Tensor, ArithmeticChecksShapes) {
  Tensor a(Shape{2});
  Tensor b(Shape{3});
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(a -= b, Error);
}

TEST(Tensor, AddScaledIsAxpy) {
  Tensor a(Shape{3}, 1.0f);
  Tensor b(Shape{3}, 2.0f);
  a.add_scaled(b, 0.5f);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(a[i], 2.0f);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from_rows({{-1, 2}, {3, -4}});
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.min(), -4.0f);
  EXPECT_FLOAT_EQ(t.max(), 3.0f);
  EXPECT_NEAR(t.squared_norm(), 30.0, 1e-9);
  EXPECT_NEAR(t.norm(), std::sqrt(30.0), 1e-9);
  EXPECT_EQ(t.argmax(), 2u);
}

TEST(Tensor, CountZerosWithTolerance) {
  Tensor t = Tensor::from_rows({{0.0f, 1e-7f, 0.5f}});
  EXPECT_EQ(t.count_zeros(), 1u);
  EXPECT_EQ(t.count_zeros(1e-6f), 2u);
}

TEST(Tensor, ApplyTransformsElementwise) {
  Tensor t(Shape{3}, 2.0f);
  t.apply([](float x) { return x * x; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(t[i], 4.0f);
}

TEST(Tensor, FillUniformRespectsRange) {
  Rng rng(1);
  Tensor t(Shape{1000});
  t.fill_uniform(rng, -1.0f, 1.0f);
  EXPECT_GE(t.min(), -1.0f);
  EXPECT_LT(t.max(), 1.0f);
  EXPECT_NEAR(t.sum() / 1000.0f, 0.0f, 0.1f);
}

TEST(Tensor, FillGaussianMoments) {
  Rng rng(2);
  Tensor t(Shape{20000});
  t.fill_gaussian(rng, 1.0f, 2.0f);
  EXPECT_NEAR(t.sum() / 20000.0f, 1.0f, 0.1f);
}

TEST(Tensor, MaxAbsDiffAndAllclose) {
  Tensor a = Tensor::from_rows({{1, 2}});
  Tensor b = Tensor::from_rows({{1.0f, 2.001f}});
  EXPECT_NEAR(max_abs_diff(a, b), 0.001f, 1e-6f);
  EXPECT_TRUE(allclose(a, b, 0.01f));
  EXPECT_FALSE(allclose(a, b, 1e-5f));
}

TEST(Tensor, AllcloseFalseForShapeMismatch) {
  EXPECT_FALSE(allclose(Tensor(Shape{2}), Tensor(Shape{3})));
}

/// Property sweep: matrix factory shape invariants across sizes.
class TensorShapeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(TensorShapeSweep, MatrixFactoryShapes) {
  const auto [r, c] = GetParam();
  Tensor m = Tensor::matrix(r, c, 1.5f);
  EXPECT_EQ(m.rows(), r);
  EXPECT_EQ(m.cols(), c);
  EXPECT_EQ(m.numel(), r * c);
  EXPECT_EQ(m.at(r - 1, c - 1), 1.5f);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TensorShapeSweep,
    ::testing::Values(std::make_pair<std::size_t, std::size_t>(1, 1),
                      std::make_pair<std::size_t, std::size_t>(1, 17),
                      std::make_pair<std::size_t, std::size_t>(17, 1),
                      std::make_pair<std::size_t, std::size_t>(25, 20),
                      std::make_pair<std::size_t, std::size_t>(64, 64),
                      std::make_pair<std::size_t, std::size_t>(800, 36)));

}  // namespace
}  // namespace gs
