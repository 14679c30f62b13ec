// Low-rank (factorised) layers — the hardware-facing form of Eq. (1).
//
// A factorised layer holds W ≈ U·Vᵀ as two trainable matrices:
//   U : (N, K)  and  Vᵀ : (K, M),   N = fan-in, M = fan-out.
// Forward is two back-to-back linear stages with no nonlinearity between
// them, i.e. exactly the two interconnected crossbar arrays of Figure 4.
// Rank clipping (Algorithm 2) re-factorises U mid-training and *shrinks K in
// place* via set_factors(); group connection deletion applies group-Lasso
// regularisation to both factors.
#pragma once

#include "common/rng.hpp"
#include "nn/matrix_layer.hpp"

namespace gs::nn {

/// A weight layer whose matrices are the factor pair {U, Vᵀ}: what the
/// compressor inspects and rewrites without knowing whether the layer is
/// dense or convolutional.
class FactorizedLayer : public MatrixLayer {
 public:
  const Tensor& factor_u() const { return u_; }   ///< (N, K)
  const Tensor& factor_vt() const { return vt_; }  ///< (K, M)
  Tensor& mutable_u() { return u_; }
  Tensor& mutable_vt() { return vt_; }
  /// Gradient accumulators of the factors (regulariser entry points).
  Tensor& mutable_u_grad() { return u_grad_; }
  Tensor& mutable_vt_grad() { return vt_grad_; }

  /// Replaces both factors; the new pair may have a different rank K but
  /// must keep N and M. Gradient buffers are resized to match, and the
  /// compressed panels (which snapshot the old factors) are dropped.
  void set_factors(Tensor u, Tensor vt);

  std::size_t full_rows() const { return u_.rows(); }   ///< N (fan-in)
  std::size_t full_cols() const { return vt_.cols(); }  ///< M (fan-out)
  std::size_t current_rank() const { return vt_.rows(); }
  std::string factor_name() const { return name(); }

  /// U·Vᵀ — the effective dense weight this layer realises.
  Tensor effective_weight() const;

  std::vector<ParamRef> matrices() override;
  std::vector<ParamRef> params() override;

 protected:
  /// Takes ownership of the factors, which must chain (U's columns = Vᵀ's
  /// rows) and match the bias length.
  FactorizedLayer(std::string name, Tensor u, Tensor vt, Tensor bias);

 private:
  Tensor u_;   // (N, K)
  Tensor vt_;  // (K, M)
  Tensor u_grad_;
  Tensor vt_grad_;
};

/// Fully-connected low-rank layer: y = (x·U)·Vᵀ + b.
class LowRankDense final : public FactorizedLayer {
 public:
  /// Random (Xavier) initialisation at the given starting rank.
  LowRankDense(std::string name, std::size_t in_features,
               std::size_t out_features, std::size_t rank, Rng& rng);

  /// Builds from explicit factors and bias (e.g. after LRA of a trained
  /// dense layer).
  LowRankDense(std::string name, Tensor u, Tensor vt, Tensor bias);
};

/// Convolutional low-rank layer: a K-filter convolution (Vᵀ of the *unrolled*
/// weight acts as U of the first stage) followed by a 1×1 convolution.
/// Stored factors keep the (in, out) orientation of the unrolled weight:
/// U (C·kh·kw, K), Vᵀ (K, F).
class LowRankConv2d final : public FactorizedLayer {
 public:
  using Spec = Conv2dSpec;

  LowRankConv2d(std::string name, Spec spec, std::size_t rank, Rng& rng);
  LowRankConv2d(std::string name, Spec spec, Tensor u, Tensor vt, Tensor bias);

  const Conv2dSpec* conv_spec() const override { return &spec_; }
  const Spec& spec() const { return spec_; }

 private:
  Spec spec_;
};

}  // namespace gs::nn
