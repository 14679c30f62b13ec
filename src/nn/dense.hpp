// Fully-connected layer, weight stored (in, out).
#pragma once

#include "common/rng.hpp"
#include "linalg/compressed.hpp"
#include "nn/layer.hpp"

namespace gs::nn {

/// y = x·W + b for a batch of row-vector inputs.
class DenseLayer final : public Layer {
 public:
  /// Xavier-initialised weights, zero bias.
  DenseLayer(std::string name, std::size_t in_features,
             std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  /// Direct weight access — used by the compressor to factorise the layer.
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Builds a block-compressed inference panel from the CURRENT weights
  /// (linalg/compressed.hpp): eval-mode forwards then multiply the packed
  /// live-rows × live-cols matrix instead of the padded one. The panel is a
  /// snapshot — mutate the weights and it goes stale; callers re-pack or
  /// clear_compressed(). Training forwards/backwards never use it.
  void pack_compressed(float tol = 0.0f);
  void clear_compressed();
  bool compressed() const { return compressed_; }
  const linalg::CompressedPanel& compressed_panel() const { return panel_; }

 private:
  std::string name_;
  std::size_t in_;
  std::size_t out_;
  Tensor weight_;       // (in, out)
  Tensor bias_;         // (out)
  Tensor weight_grad_;  // same shapes
  Tensor bias_grad_;
  Tensor cached_input_;  // (B, in) from the last train forward
  linalg::CompressedPanel panel_;  // eval-only snapshot of weight_
  bool compressed_ = false;
};

}  // namespace gs::nn
