// Fully-connected layer, weight stored (in, out).
#pragma once

#include "common/rng.hpp"
#include "nn/matrix_layer.hpp"

namespace gs::nn {

/// y = x·W + b for a batch of row-vector inputs: one crossbar matrix.
class DenseLayer final : public MatrixLayer {
 public:
  /// Xavier-initialised weights, zero bias.
  DenseLayer(std::string name, std::size_t in_features,
             std::size_t out_features, Rng& rng);

  std::vector<ParamRef> matrices() override;
  std::vector<ParamRef> params() override;

  /// Direct weight access — used by the compressor to factorise the layer.
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }

 private:
  Tensor weight_;       // (in, out)
  Tensor weight_grad_;  // same shape
};

}  // namespace gs::nn
