// 2-D convolution computed as im2col + GEMM (the Caffe lowering).
//
// The weight is held directly in the unrolled orientation (C·kh·kw, F) —
// each *column* is one filter, matching both the crossbar mapping of
// Figure 1(a) (one column of memristors per filter) and the (in, out)
// matrix convention of the compressor.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "linalg/compressed.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace gs::nn {

/// Convolution hyper-parameters.
struct Conv2dSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 0;   ///< square kernels (paper networks use 5×5)
  std::size_t stride = 1;
  std::size_t pad = 0;
};

class Conv2dLayer final : public Layer {
 public:
  Conv2dLayer(std::string name, Conv2dSpec spec, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

  const Conv2dSpec& spec() const { return spec_; }
  /// Unrolled weight (C·kh·kw, F).
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }
  std::size_t patch_size() const { return weight_.rows(); }

  /// Block-compressed inference panel over the unrolled weight (deleted
  /// patch rows / filter columns) — see DenseLayer::pack_compressed for the
  /// snapshot contract. Eval-mode forwards gather the live patch columns of
  /// each im2col matrix and multiply the packed panel.
  void pack_compressed(float tol = 0.0f);
  void clear_compressed();
  bool compressed() const { return compressed_; }

 private:
  std::string name_;
  Conv2dSpec spec_;
  Tensor weight_;       // (patch, F)
  Tensor bias_;         // (F)
  Tensor weight_grad_;
  Tensor bias_grad_;
  linalg::CompressedPanel panel_;  // eval-only snapshot of weight_
  bool compressed_ = false;

  // Train-forward caches for backward; eval forwards release them.
  ConvGeometry geometry_;             // geometry of the last forward
  std::vector<Tensor> cached_cols_;   // per-sample im2col matrices
  std::size_t cached_batch_ = 0;

  ConvGeometry make_geometry(const Shape& input_shape) const;
};

}  // namespace gs::nn
