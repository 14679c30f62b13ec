#include "hw/analog.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace gs::hw {

void AnalogParams::validate() const {
  GS_CHECK(g_min > 0.0 && g_max > g_min);
  GS_CHECK(variation_sigma >= 0.0);
  GS_CHECK(wire_resistance >= 0.0);
}

namespace {

/// Quantises a conductance to the nearest of `levels` states in
/// [g_min, g_max]; levels == 0 means continuous programming.
double quantize(double g, const AnalogParams& p) {
  if (p.levels == 0) return g;
  GS_CHECK(p.levels >= 2);
  const double step = (p.g_max - p.g_min) / static_cast<double>(p.levels - 1);
  const double idx = std::round((g - p.g_min) / step);
  const double clamped =
      std::clamp(idx, 0.0, static_cast<double>(p.levels - 1));
  return p.g_min + clamped * step;
}

}  // namespace

AnalogCrossbar::AnalogCrossbar(const Tensor& weights, double w_max,
                               const AnalogParams& params, Rng& rng)
    : params_(params), w_max_(w_max) {
  params_.validate();
  GS_CHECK_MSG(weights.rank() == 2, "crossbar weights must be a matrix");
  GS_CHECK_MSG(w_max > 0.0, "w_max must be positive");
  const std::size_t p = weights.rows();
  const std::size_t q = weights.cols();
  g_plus_ = Tensor(Shape{p, q});
  g_minus_ = Tensor(Shape{p, q});
  effective_ = Tensor(Shape{p, q});

  // Weight-to-conductance scale: |w| = w_max maps to the full conductance
  // swing g_max − g_min on one side of the differential pair.
  const double swing = params_.g_max - params_.g_min;
  const double scale = swing / w_max;

  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      const double w =
          std::clamp(static_cast<double>(weights.at(i, j)), -w_max, w_max);
      double gp = params_.g_min + std::max(w, 0.0) * scale;
      double gm = params_.g_min + std::max(-w, 0.0) * scale;
      gp = quantize(gp, params_);
      gm = quantize(gm, params_);
      if (params_.variation_sigma > 0.0) {
        gp *= std::exp(rng.gaussian(0.0, params_.variation_sigma));
        gm *= std::exp(rng.gaussian(0.0, params_.variation_sigma));
      }
      g_plus_.at(i, j) = static_cast<float>(gp);
      g_minus_.at(i, j) = static_cast<float>(gm);
    }
  }

  recompute_effective();
}

void AnalogCrossbar::set_conductances(Tensor g_plus, Tensor g_minus) {
  GS_CHECK_MSG(g_plus.same_shape(g_plus_) && g_minus.same_shape(g_minus_),
               "set_conductances: shape mismatch with the programmed array");
  for (std::size_t i = 0; i < g_plus.numel(); ++i) {
    GS_CHECK_MSG(g_plus[i] > 0.0f && g_minus[i] > 0.0f &&
                     std::isfinite(g_plus[i]) && std::isfinite(g_minus[i]),
                 "set_conductances: conductances must be positive and "
                 "finite");
  }
  g_plus_ = std::move(g_plus);
  g_minus_ = std::move(g_minus);
  recompute_effective();
}

void AnalogCrossbar::recompute_effective() {
  // Effective weights: differential read-out with first-order IR-drop.
  // Drivers sit at column 0 (row wires) and row P−1 (column wires, where
  // the sense amplifiers integrate), so the farthest cell is (0, Q−1).
  const std::size_t p = g_plus_.rows();
  const std::size_t q = g_plus_.cols();
  const double scale = (params_.g_max - params_.g_min) / w_max_;
  const double mean_g = 0.5 * (params_.g_min + params_.g_max);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      const double segments =
          static_cast<double>(j + 1) + static_cast<double>(p - i);
      const double attenuation =
          1.0 /
          (1.0 + params_.wire_resistance * mean_g * segments);
      const double diff = static_cast<double>(g_plus_.at(i, j)) -
                          static_cast<double>(g_minus_.at(i, j));
      effective_.at(i, j) =
          static_cast<float>(diff / scale * attenuation);
    }
  }
}

Tensor AnalogCrossbar::matvec(const Tensor& x) const {
  GS_CHECK(x.rank() == 1 && x.dim(0) == effective_.rows());
  Tensor y(Shape{effective_.cols()});
  std::vector<double> acc(effective_.cols(), 0.0);
  accumulate_matvec(x.data(), acc.data());
  for (std::size_t j = 0; j < effective_.cols(); ++j) {
    y[j] = static_cast<float>(acc[j]);
  }
  return y;
}

namespace {

// The micro-kernel uses GCC/Clang vector extensions, like the GEMM kernel
// (linalg/gemm_kernel.cpp), one vector = one register of the target: 8
// doubles on AVX-512, 4 on AVX, 2 on baseline SSE2. A micro-tile holds
// 4 rows × 2 vectors, 8 accumulator registers, which fits every target
// (a fixed 8-double vector spills on SSE2 and runs slower than a scalar
// loop). aligned(4/8) because packed rows and weight rows are only element-
// aligned; may_alias because the vectors pun float/double buffers.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 8;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 4;
#else
constexpr std::size_t kLanes = 2;
#endif
typedef float vf __attribute__((vector_size(kLanes * sizeof(float)),
                                aligned(4), may_alias));
typedef double vd __attribute__((vector_size(kLanes * sizeof(double)),
                                 aligned(8), may_alias));

/// R input vectors × V·kLanes columns starting at column j0. The
/// accumulator is a local array with constant-bound loops, so it lives in
/// registers; each element still adds its p terms in ascending i.
template <std::size_t R, std::size_t V>
void micro_tile(const float* __restrict x, std::size_t p,
                const float* __restrict w, std::size_t q,
                double* __restrict y, std::size_t j0) {
  vd c[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      c[r][v] = *reinterpret_cast<const vd*>(y + r * q + j0 + v * kLanes);
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    vd wv[V];
    for (std::size_t v = 0; v < V; ++v) {
      wv[v] = __builtin_convertvector(
          *reinterpret_cast<const vf*>(w + i * q + j0 + v * kLanes), vd);
    }
    for (std::size_t r = 0; r < R; ++r) {
      const double xi = static_cast<double>(x[r * p + i]);
      for (std::size_t v = 0; v < V; ++v) c[r][v] += xi * wv[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      *reinterpret_cast<vd*>(y + r * q + j0 + v * kLanes) = c[r][v];
    }
  }
}

/// R input vectors across all q columns: two-vector micro-tiles, then one
/// one-vector tile, then the last < kLanes columns one at a time.
template <std::size_t R>
void row_tile(const float* x, std::size_t p, const float* w, std::size_t q,
              double* y) {
  std::size_t j = 0;
  for (; j + 2 * kLanes <= q; j += 2 * kLanes) {
    micro_tile<R, 2>(x, p, w, q, y, j);
  }
  if (j + kLanes <= q) {
    micro_tile<R, 1>(x, p, w, q, y, j);
    j += kLanes;
  }
  for (; j < q; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      double c = y[r * q + j];
      for (std::size_t i = 0; i < p; ++i) {
        c += static_cast<double>(x[r * p + i]) *
             static_cast<double>(w[i * q + j]);
      }
      y[r * q + j] = c;
    }
  }
}

}  // namespace

void AnalogCrossbar::accumulate_matmul(const float* x, std::size_t rows,
                                       double* y) const {
  const std::size_t p = effective_.rows();
  const std::size_t q = effective_.cols();
  const float* w = effective_.data();
  std::size_t r = 0;
  for (; r + kMicroRows <= rows; r += kMicroRows) {
    row_tile<kMicroRows>(x + r * p, p, w, q, y + r * q);
  }
  // Row tails: one 2-row and one 1-row pass cover any kMicroRows == 4 rest.
  static_assert(kMicroRows == 4);
  if (r + 2 <= rows) {
    row_tile<2>(x + r * p, p, w, q, y + r * q);
    r += 2;
  }
  if (r < rows) row_tile<1>(x + r * p, p, w, q, y + r * q);
}

void AnalogCrossbar::accumulate_matvec(const float* x, double* acc) const {
  accumulate_matmul(x, 1, acc);
}

Tensor analog_effective_matrix(const Tensor& m, const TileGrid& grid,
                               const AnalogParams& params) {
  GS_CHECK(m.rank() == 2 && m.rows() == grid.rows && m.cols() == grid.cols);
  params.validate();
  Rng rng(params.seed);

  // Full-scale weight shared across tiles of the matrix (a per-matrix DAC
  // reference): the maximum |w|, floored to avoid a zero range.
  double w_max = 1e-6;
  for (std::size_t i = 0; i < m.numel(); ++i) {
    w_max = std::max(w_max, static_cast<double>(std::fabs(m[i])));
  }

  Tensor effective(m.shape());
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      const std::size_t r0 = tr * grid.tile.rows;
      const std::size_t r1 = std::min(r0 + grid.tile.rows, grid.rows);
      const std::size_t c0 = tc * grid.tile.cols;
      const std::size_t c1 = std::min(c0 + grid.tile.cols, grid.cols);
      Tensor tile(Shape{r1 - r0, c1 - c0});
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = c0; j < c1; ++j) {
          tile.at(i - r0, j - c0) = m.at(i, j);
        }
      }
      const AnalogCrossbar xbar(tile, w_max, params, rng);
      const Tensor& eff = xbar.effective_weights();
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = c0; j < c1; ++j) {
          effective.at(i, j) = eff.at(i - r0, j - c0);
        }
      }
    }
  }
  return effective;
}

double weight_rms_error(const Tensor& ideal, const Tensor& effective) {
  GS_CHECK(ideal.same_shape(effective));
  GS_CHECK(ideal.numel() > 0);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < ideal.numel(); ++i) {
    const double d = static_cast<double>(ideal[i]) - effective[i];
    num += d * d;
    den += static_cast<double>(ideal[i]) * ideal[i];
  }
  if (den <= 0.0) return 0.0;
  return std::sqrt(num / den);
}

}  // namespace gs::hw
