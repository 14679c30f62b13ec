#include "hw/analog.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace gs::hw {
namespace {

Tensor random_weights(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w(Shape{r, c});
  w.fill_gaussian(rng, 0.0f, 0.3f);
  return w;
}

AnalogParams ideal_params() {
  AnalogParams p;
  p.levels = 0;
  p.variation_sigma = 0.0;
  p.wire_resistance = 0.0;
  return p;
}

TEST(AnalogParams, ValidationRejectsBadRanges) {
  AnalogParams p = ideal_params();
  p.g_min = 0.0;
  EXPECT_THROW(p.validate(), Error);
  p = ideal_params();
  p.g_max = p.g_min;
  EXPECT_THROW(p.validate(), Error);
  p = ideal_params();
  p.variation_sigma = -0.1;
  EXPECT_THROW(p.validate(), Error);
}

TEST(AnalogCrossbar, IdealProgrammingIsExact) {
  Rng rng(1);
  const Tensor w = random_weights(16, 8, 2);
  const float w_max = std::max(std::fabs(w.min()), std::fabs(w.max()));
  const AnalogCrossbar xbar(w, w_max, ideal_params(), rng);
  EXPECT_LE(max_abs_diff(xbar.effective_weights(), w), 1e-5f * w_max);
}

TEST(AnalogCrossbar, ConductancesWithinRange) {
  Rng rng(2);
  const Tensor w = random_weights(10, 10, 3);
  AnalogParams p = ideal_params();
  p.levels = 16;
  const AnalogCrossbar xbar(w, 1.0, p, rng);
  EXPECT_GE(xbar.conductance_plus().min(), static_cast<float>(p.g_min) * 0.99f);
  EXPECT_LE(xbar.conductance_plus().max(), static_cast<float>(p.g_max) * 1.01f);
  EXPECT_GE(xbar.conductance_minus().min(),
            static_cast<float>(p.g_min) * 0.99f);
}

TEST(AnalogCrossbar, DifferentialEncodingUsesOneSide) {
  // A positive weight programs G⁺ above g_min and leaves G⁻ at g_min.
  Rng rng(3);
  Tensor w(Shape{1, 2});
  w.at(0, 0) = 0.5f;
  w.at(0, 1) = -0.5f;
  const AnalogCrossbar xbar(w, 1.0, ideal_params(), rng);
  EXPECT_GT(xbar.conductance_plus().at(0, 0),
            xbar.conductance_minus().at(0, 0));
  EXPECT_LT(xbar.conductance_plus().at(0, 1),
            xbar.conductance_minus().at(0, 1));
}

TEST(AnalogCrossbar, QuantizationBoundsError) {
  Rng rng(4);
  const Tensor w = random_weights(20, 10, 5);
  const float w_max = std::max(std::fabs(w.min()), std::fabs(w.max()));
  AnalogParams p = ideal_params();
  p.levels = 32;
  const AnalogCrossbar xbar(w, w_max, p, rng);
  // One quantisation step in weight units: w_max/(levels−1) per side.
  const float step = w_max / 31.0f;
  EXPECT_LE(max_abs_diff(xbar.effective_weights(), w), step * 1.01f);
}

TEST(AnalogCrossbar, FewerLevelsMoreError) {
  Rng rng(5);
  const Tensor w = random_weights(30, 12, 6);
  const float w_max = std::max(std::fabs(w.min()), std::fabs(w.max()));
  double prev = 0.0;
  for (std::size_t levels : {64u, 16u, 4u}) {
    AnalogParams p = ideal_params();
    p.levels = levels;
    Rng r(6);
    const AnalogCrossbar xbar(w, w_max, p, r);
    const double err = weight_rms_error(w, xbar.effective_weights());
    EXPECT_GE(err, prev);
    prev = err;
  }
}

TEST(AnalogCrossbar, VariationIsDeterministicPerRng) {
  const Tensor w = random_weights(8, 8, 7);
  AnalogParams p = ideal_params();
  p.variation_sigma = 0.1;
  Rng r1(9);
  Rng r2(9);
  const AnalogCrossbar a(w, 1.0, p, r1);
  const AnalogCrossbar b(w, 1.0, p, r2);
  EXPECT_TRUE(allclose(a.effective_weights(), b.effective_weights(), 0.0f));
}

TEST(AnalogCrossbar, IrDropAttenuatesFarCells) {
  // With wire resistance, the far corner (row 0, last column) is attenuated
  // more than the near corner (last row, column 0).
  Tensor w(Shape{32, 32}, 0.5f);
  AnalogParams p = ideal_params();
  p.wire_resistance = 10.0;
  Rng rng(10);
  const AnalogCrossbar xbar(w, 1.0, p, rng);
  const Tensor& eff = xbar.effective_weights();
  EXPECT_LT(eff.at(0, 31), eff.at(31, 0));
  EXPECT_LT(eff.at(0, 31), 0.5f);
}

TEST(AnalogCrossbar, LargerCrossbarsSufferMoreIrDrop) {
  // The paper's size-limit motivation: at fixed wire resistance, mean
  // weight degradation grows with crossbar dimension.
  AnalogParams p = ideal_params();
  p.wire_resistance = 5.0;
  double prev = 0.0;
  for (std::size_t dim : {16u, 64u, 128u}) {
    Tensor w(Shape{dim, dim}, 0.5f);
    Rng rng(11);
    const AnalogCrossbar xbar(w, 1.0, p, rng);
    const double err = weight_rms_error(w, xbar.effective_weights());
    EXPECT_GT(err, prev) << "dim=" << dim;
    prev = err;
  }
}

TEST(AnalogCrossbar, MatvecMatchesEffectiveWeights) {
  Rng rng(12);
  const Tensor w = random_weights(6, 4, 13);
  const AnalogCrossbar xbar(w, 1.0, ideal_params(), rng);
  Tensor x(Shape{6});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  const Tensor y = xbar.matvec(x);
  for (std::size_t j = 0; j < 4; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      acc += double(x[i]) * xbar.effective_weights().at(i, j);
    }
    EXPECT_NEAR(y[j], acc, 1e-4);
  }
}

TEST(AnalogCrossbar, AccumulateMatmulMatchesScalarLoopBitwise) {
  // The register-blocked kernel against the plain per-vector loop (zero
  // inputs skipped, as the per-row loop did), over micro-tile row tails and
  // 16/8/scalar column tails, starting from nonzero accumulators.
  Rng rng(30);
  for (const std::size_t p : {1u, 7u, 64u}) {
    for (const std::size_t q : {1u, 7u, 8u, 10u, 16u, 25u, 50u, 64u}) {
      AnalogParams params = ideal_params();
      params.levels = 64;
      const AnalogCrossbar xbar(random_weights(p, q, 31 + p * q), 1.0,
                                params, rng);
      const float* w = xbar.effective_weights().data();
      for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 9u}) {
        std::vector<float> x(rows * p);
        for (std::size_t i = 0; i < x.size(); ++i) {
          x[i] = i % 3 == 0 ? 0.0f : static_cast<float>(rng.gaussian());
        }
        std::vector<double> y(rows * q);
        for (double& v : y) v = rng.gaussian();
        std::vector<double> want = y;
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t i = 0; i < p; ++i) {
            const double xi = x[r * p + i];
            if (xi == 0.0) continue;
            for (std::size_t j = 0; j < q; ++j) {
              want[r * q + j] += xi * static_cast<double>(w[i * q + j]);
            }
          }
        }
        xbar.accumulate_matmul(x.data(), rows, y.data());
        EXPECT_EQ(std::memcmp(y.data(), want.data(), y.size() * sizeof(double)),
                  0)
            << p << "x" << q << " rows " << rows;
      }
    }
  }
}

TEST(AnalogCrossbar, SetConductancesRejectsNonFinite) {
  Rng rng(32);
  AnalogCrossbar xbar(random_weights(4, 3, 33), 1.0, ideal_params(), rng);
  const Tensor before = xbar.effective_weights();
  for (const float bad : {std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN(), 0.0f,
                          -1e-6f}) {
    Tensor gp = xbar.conductance_plus();
    Tensor gm = xbar.conductance_minus();
    gp.at(1, 2) = bad;
    EXPECT_THROW(xbar.set_conductances(gp, xbar.conductance_minus()), Error)
        << bad;
    gm.at(3, 0) = bad;
    EXPECT_THROW(xbar.set_conductances(xbar.conductance_plus(), gm), Error)
        << bad;
  }
  // A rejected write leaves the programmed array untouched.
  EXPECT_EQ(std::memcmp(xbar.effective_weights().data(), before.data(),
                        before.numel() * sizeof(float)),
            0);
  Tensor gp = xbar.conductance_plus();
  gp.at(0, 0) = 5e-5f;
  EXPECT_NO_THROW(xbar.set_conductances(gp, xbar.conductance_minus()));
}

TEST(AnalogEffectiveMatrix, TiledMatchesShapeAndIdealCase) {
  Rng rng(14);
  Tensor m(Shape{150, 24});
  m.fill_gaussian(rng, 0.0f, 0.2f);
  const TileGrid grid = make_tile_grid(150, 24, paper_technology());
  const Tensor eff = analog_effective_matrix(m, grid, ideal_params());
  EXPECT_EQ(eff.shape(), m.shape());
  EXPECT_LE(max_abs_diff(eff, m), 1e-5f);
}

TEST(AnalogEffectiveMatrix, SeedChangesVariation) {
  Rng rng(15);
  Tensor m(Shape{64, 16});
  m.fill_gaussian(rng, 0.0f, 0.2f);
  const TileGrid grid = make_tile_grid(64, 16, paper_technology());
  AnalogParams p = ideal_params();
  p.variation_sigma = 0.2;
  p.seed = 1;
  const Tensor a = analog_effective_matrix(m, grid, p);
  p.seed = 2;
  const Tensor b = analog_effective_matrix(m, grid, p);
  EXPECT_GT(max_abs_diff(a, b), 1e-4f);
}

TEST(WeightRmsError, ZeroForIdentical) {
  const Tensor w = random_weights(5, 5, 16);
  EXPECT_EQ(weight_rms_error(w, w), 0.0);
}

/// Property sweep: variation σ monotonically degrades fidelity (averaged
/// over the whole matrix).
class VariationSweep : public ::testing::TestWithParam<double> {};

TEST_P(VariationSweep, RmsErrorGrowsWithSigma) {
  Rng rng(17);
  Tensor m(Shape{128, 32});
  m.fill_gaussian(rng, 0.0f, 0.2f);
  const TileGrid grid = make_tile_grid(128, 32, paper_technology());
  AnalogParams p = ideal_params();
  p.variation_sigma = GetParam();
  const double err =
      weight_rms_error(m, analog_effective_matrix(m, grid, p));
  // Lognormal multiplicative noise with σ gives relative error ≈ σ on the
  // programmed side; allow a generous band.
  EXPECT_GT(err, GetParam() * 0.2);
  EXPECT_LT(err, GetParam() * 3.0 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, VariationSweep,
                         ::testing::Values(0.02, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace gs::hw
