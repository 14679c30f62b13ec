// Property test of the shared DAC/ADC converter model.
//
// quantize_uniform_span is the one converter arithmetic of the executor and
// the training-time noise model. Its loop is branch-free so it vectorises;
// this suite pins it bitwise to the plain scalar formula (a test-local copy,
// below) over ties, near-ties, overload, signed zeros, infinities and NaN,
// across full scales from 3e-200 to 7e200 and level counts from 2 to 65535
// plus the 2^52 bound.
#include "runtime/program.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace gs::runtime {
namespace {

/// The converter formula as a scalar: round half away from zero, clamp to
/// the rails, exact 0 at the mid state of an odd level count.
double reference_quantize(double v, double full_scale, std::size_t levels) {
  const double step = 2.0 * full_scale / static_cast<double>(levels - 1);
  double idx = std::round((v + full_scale) / step);
  idx = std::clamp(idx, 0.0, static_cast<double>(levels - 1));
  if (levels % 2 == 1 && idx == static_cast<double>((levels - 1) / 2)) {
    return 0.0;
  }
  return -full_scale + idx * step;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::uint32_t bits(float v) {
  std::uint32_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Inputs for one (full scale, levels) pair: every class the converter
/// must get right, plus seeded uniform draws across and beyond the range.
std::vector<double> probe_values(double fs, std::size_t levels, Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> v{0.0,  -0.0,      inf,      -inf,
                        std::numeric_limits<double>::quiet_NaN(),
                        fs,   -fs,       2.0 * fs, -2.0 * fs,
                        1e300, -1e300,   std::numeric_limits<double>::min(),
                        -std::numeric_limits<double>::denorm_min()};
  const double step = 2.0 * fs / static_cast<double>(levels - 1);
  // Ties and near-ties: the half-way point between two states, and its
  // neighbours a few ulps either side, at both rails, the middle and a few
  // seeded interior states.
  std::vector<double> states{0.0, 1.0, static_cast<double>(levels / 2),
                             static_cast<double>(levels - 2),
                             static_cast<double>(levels - 1)};
  for (int k = 0; k < 8; ++k) {
    states.push_back(std::floor(rng.uniform() * static_cast<double>(levels)));
  }
  for (const double k : states) {
    for (const double half : {-0.5, 0.5}) {
      double t = -fs + (k + half) * step;
      for (int u = 0; u < 3; ++u) t = std::nextafter(t, -inf);
      for (int u = 0; u < 7; ++u) {
        v.push_back(t);
        v.push_back(-t);
        t = std::nextafter(t, inf);
      }
    }
  }
  for (int i = 0; i < 512; ++i) {
    v.push_back(fs * 2.5 * (2.0 * rng.uniform() - 1.0));
  }
  return v;
}

TEST(QuantizeUniformSpan, BitwiseEqualToScalarFormula) {
  Rng rng(2024);
  std::vector<std::size_t> level_counts{2,   3,    4,    5,    7,    15,  16,
                                        17,  63,   64,   65,   127,  255, 256,
                                        257, 1023, 1024, 4095, 4096, 65535,
                                        (std::size_t{1} << 52) - 1,
                                        std::size_t{1} << 52};
  for (int i = 0; i < 12; ++i) {
    level_counts.push_back(2 + static_cast<std::size_t>(rng.uniform() * 65533));
  }
  std::vector<double> full_scales{3e-200, 1e-30, 1e-6,  0.125, 0.3, 1.0,
                                  1.7,    4.0,   1e10,  1e100, 7e200};
  for (int i = 0; i < 8; ++i) {
    full_scales.push_back(std::pow(10.0, 400.0 * rng.uniform() - 200.0));
  }

  std::size_t checked = 0;
  std::size_t nans = 0;
  for (const double fs : full_scales) {
    for (const std::size_t levels : level_counts) {
      const std::vector<double> in = probe_values(fs, levels, rng);
      std::vector<double> out(in.size());
      quantize_uniform_span(in.data(), out.data(), in.size(), fs, levels);
      std::vector<double> in_place = in;
      quantize_uniform_span(in_place.data(), in_place.data(), in.size(), fs,
                            levels);

      std::vector<float> in_f(in.size());
      for (std::size_t i = 0; i < in.size(); ++i) {
        in_f[i] = static_cast<float>(in[i]);
      }
      std::vector<float> out_f(in.size());
      quantize_uniform_span(in_f.data(), out_f.data(), in.size(), fs, levels);

      for (std::size_t i = 0; i < in.size(); ++i) {
        const double want = reference_quantize(in[i], fs, levels);
        const float want_f = static_cast<float>(
            reference_quantize(static_cast<double>(in_f[i]), fs, levels));
        if (std::isnan(want)) {
          ++nans;
          ASSERT_TRUE(std::isnan(out[i])) << in[i] << " fs " << fs;
          ASSERT_TRUE(std::isnan(in_place[i]));
          ASSERT_TRUE(std::isnan(quantize_uniform(in[i], fs, levels)));
        } else {
          ASSERT_EQ(bits(out[i]), bits(want))
              << "v " << in[i] << " fs " << fs << " levels " << levels
              << ": got " << out[i] << " want " << want;
          ASSERT_EQ(bits(in_place[i]), bits(want));
          ASSERT_EQ(bits(quantize_uniform(in[i], fs, levels)), bits(want));
        }
        if (std::isnan(want_f)) {
          ASSERT_TRUE(std::isnan(out_f[i]));
        } else {
          ASSERT_EQ(bits(out_f[i]), bits(want_f))
              << "v " << in_f[i] << " fs " << fs << " levels " << levels;
        }
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 400000u);
  EXPECT_GT(nans, 0u);
}

TEST(QuantizeUniformSpan, ConverterResolutionIsBoundedByTheMantissa) {
  // The span is exact up to 2^52 states; configurations past that throw.
  DacAdcParams p;
  p.dac_levels = std::size_t{1} << 52;
  p.adc_levels = 2;
  EXPECT_NO_THROW(p.validate());
  p.dac_levels = (std::size_t{1} << 52) + 1;
  EXPECT_THROW(p.validate(), Error);
  p.dac_levels = 0;
  p.adc_levels = (std::size_t{1} << 52) + 1;
  EXPECT_THROW(p.validate(), Error);
}

TEST(QuantizeUniformSpan, OddCountsMapZeroToExactZero) {
  for (const std::size_t levels : {3u, 255u, 4095u, 65535u}) {
    for (const double fs : {1e-9, 0.7, 3.0, 1e9}) {
      const double in[2] = {0.0, -0.0};
      double out[2] = {1.0, 1.0};
      quantize_uniform_span(in, out, 2, fs, levels);
      EXPECT_EQ(bits(out[0]), bits(0.0));
      EXPECT_EQ(bits(out[1]), bits(0.0));
    }
  }
}

TEST(QuantizeUniformSpan, SpansLongerThanOneBlock) {
  // The float span widens through fixed-size stack blocks; lengths around
  // and across the block boundary must all match the scalar formula.
  Rng rng(7);
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 1000u}) {
    std::vector<float> in(n);
    for (float& x : in) x = static_cast<float>(4.0 * rng.uniform() - 2.0);
    std::vector<float> out(n);
    quantize_uniform_span(in.data(), out.data(), n, 1.5, 255);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(out[i]),
                bits(static_cast<float>(reference_quantize(in[i], 1.5, 255))))
          << "n " << n << " i " << i;
    }
  }
}

}  // namespace
}  // namespace gs::runtime
