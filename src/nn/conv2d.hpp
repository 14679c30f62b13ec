// 2-D convolution computed as im2col + GEMM (the Caffe lowering; the shared
// whole-batch lowering is MatrixLayer's, nn/matrix_layer.hpp).
//
// The weight is held directly in the unrolled orientation (C·kh·kw, F) —
// each *column* is one filter, matching both the crossbar mapping of
// Figure 1(a) (one column of memristors per filter) and the (in, out)
// matrix convention of the compressor.
#pragma once

#include "common/rng.hpp"
#include "nn/matrix_layer.hpp"

namespace gs::nn {

class Conv2dLayer final : public MatrixLayer {
 public:
  Conv2dLayer(std::string name, Conv2dSpec spec, Rng& rng);

  std::vector<ParamRef> matrices() override;
  std::vector<ParamRef> params() override;
  const Conv2dSpec* conv_spec() const override { return &spec_; }

  const Conv2dSpec& spec() const { return spec_; }
  /// Unrolled weight (C·kh·kw, F).
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  std::size_t patch_size() const { return weight_.rows(); }

 private:
  Conv2dSpec spec_;
  Tensor weight_;  // (patch, F)
  Tensor weight_grad_;
};

}  // namespace gs::nn
