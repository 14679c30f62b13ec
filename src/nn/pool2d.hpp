// 2-D max / average pooling.
//
// Supports the two geometries the paper's networks need: LeNet's 2×2/2 max
// pooling and ConvNet's (cifar10_quick) 3×3/2 max+avg pooling, including the
// Caffe convention of *ceil-mode* output sizing with implicit zero padding
// at the bottom/right edge (average pooling divides by the full window size,
// as Caffe does).
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace gs {
class ThreadPool;
}

namespace gs::nn {

enum class PoolMode { kMax, kAvg };

/// Ceil-mode (Caffe) pooled extent of an `in`-long axis.
std::size_t pool_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride);

/// Pools `batch`×`channels` row-major ih×iw planes of `input` into
/// `output` (planes of pool_out_extent(ih)×pool_out_extent(iw)), in
/// parallel over samples on `pool`. Max mode may record in `argmax` the
/// in-plane index of each output's maximum (nullptr skips it); average mode
/// divides by the full kernel², as Caffe does. Each sample writes only its
/// own planes, so the result is bitwise that of a serial loop.
void pool2d(const float* input, std::size_t batch, std::size_t channels,
            std::size_t ih, std::size_t iw, PoolMode mode, std::size_t kernel,
            std::size_t stride, float* output, std::size_t* argmax,
            ThreadPool& pool);

class Pool2dLayer final : public Layer {
 public:
  Pool2dLayer(std::string name, PoolMode mode, std::size_t kernel,
              std::size_t stride);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

  PoolMode mode() const { return mode_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }

 private:
  std::string name_;
  PoolMode mode_;
  std::size_t kernel_;
  std::size_t stride_;

  // Train-forward caches for backward; eval forwards release them.
  Shape cached_input_shape_;
  std::vector<std::size_t> argmax_;  // in-plane input index per output
};

}  // namespace gs::nn
