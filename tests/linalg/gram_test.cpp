// Tests of the double-precision Gram kernel (linalg/gram.hpp) against a
// naive double reference, on both sides (AᵀA and A·Aᵀ) and on extents around
// its 64-wide output tile, including LeNet's conv1 (25×20) and conv2
// (500×50) clipping shapes.
#include "linalg/gram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <vector>

#include "common/rng.hpp"

namespace gs::linalg::detail {
namespace {

struct GramCase {
  std::size_t rows, cols;
  bool right;
};

void PrintTo(const GramCase& c, std::ostream* os) {
  *os << c.rows << "x" << c.cols << (c.right ? "_AtA" : "_AAt");
}

std::vector<GramCase> gram_cases() {
  std::vector<GramCase> cases;
  const std::size_t extents[] = {1, 7, 63, 64, 65};
  for (const bool right : {true, false}) {
    for (const std::size_t r : extents) {
      for (const std::size_t c : extents) cases.push_back({r, c, right});
    }
    cases.push_back({25, 20, right});
    cases.push_back({500, 50, right});
  }
  return cases;
}

class GramSweep : public ::testing::TestWithParam<GramCase> {};

TEST_P(GramSweep, MatchesNaiveDoubleReference) {
  const GramCase c = GetParam();
  Rng rng(c.rows * 131 + c.cols * 7 + c.right);
  Tensor a(Shape{c.rows, c.cols});
  a.fill_gaussian(rng, 0.0f, 1.0f);
  const std::vector<double> g = gram_double(a, c.right);

  // G[p][q] = Σ_t x_p(t)·x_q(t), with x_p column p (AᵀA) or row p (A·Aᵀ).
  const std::size_t side = c.right ? c.cols : c.rows;
  const std::size_t len = c.right ? c.rows : c.cols;
  const auto x = [&](std::size_t p, std::size_t t) -> double {
    return c.right ? a.at(t, p) : a.at(p, t);
  };
  ASSERT_EQ(g.size(), side * side);
  for (std::size_t p = 0; p < side; ++p) {
    for (std::size_t q = 0; q < side; ++q) {
      double want = 0.0;
      double magnitude = 0.0;
      for (std::size_t t = 0; t < len; ++t) {
        want += x(p, t) * x(q, t);
        magnitude += std::fabs(x(p, t) * x(q, t));
      }
      // Products of floats are exact in double, so two summation orders
      // differ by a few ulps of the sum of magnitudes.
      ASSERT_NEAR(g[p * side + q], want, 1e-13 * (1.0 + magnitude))
          << "entry (" << p << ", " << q << ")";
      ASSERT_EQ(g[p * side + q], g[q * side + p]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GramSweep, ::testing::ValuesIn(gram_cases()));

}  // namespace
}  // namespace gs::linalg::detail
