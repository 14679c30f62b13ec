#include "nn/pool2d.hpp"

#include <algorithm>
#include <limits>

#include "common/thread_pool.hpp"

namespace gs::nn {

Pool2dLayer::Pool2dLayer(std::string name, PoolMode mode, std::size_t kernel,
                         std::size_t stride)
    : name_(std::move(name)), mode_(mode), kernel_(kernel), stride_(stride) {
  GS_CHECK(kernel_ > 0 && stride_ > 0);
}

std::size_t Pool2dLayer::out_extent(std::size_t in) const {
  GS_CHECK_MSG(in >= 1, "pooling input too small");
  if (in <= kernel_) return 1;
  // ceil((in - kernel) / stride) + 1  (Caffe ceil mode).
  return (in - kernel_ + stride_ - 1) / stride_ + 1;
}

Tensor Pool2dLayer::forward(const Tensor& input, bool train) {
  GS_CHECK_MSG(input.rank() == 4, name_ << ": pool input must be B×C×H×W");
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t ih = input.dim(2);
  const std::size_t iw = input.dim(3);
  const std::size_t oh = out_extent(ih);
  const std::size_t ow = out_extent(iw);

  // Only a train forward records what backward needs.
  const bool record_argmax = train && mode_ == PoolMode::kMax;
  cached_input_shape_ = train ? input.shape() : Shape{};
  if (record_argmax) {
    argmax_.assign(batch * channels * oh * ow, 0);
  } else {
    std::vector<std::size_t>().swap(argmax_);
  }
  Tensor output(Shape{batch, channels, oh, ow});

  // Parallel over samples: each (b, c) plane writes only its own output and
  // argmax plane, so the result is bitwise that of a serial loop. (An index
  // per plane costs more to dispatch than LeNet's 8×8 pool2 planes take.)
  ThreadPool::global().parallel_for(batch, [&](std::size_t b) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* in_plane = input.data() + (b * channels + c) * ih * iw;
      float* out_plane = output.data() + (b * channels + c) * oh * ow;
      std::size_t* arg_plane =
          record_argmax ? argmax_.data() + (b * channels + c) * oh * ow
                        : nullptr;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::size_t y0 = oy * stride_;
          const std::size_t x0 = ox * stride_;
          const std::size_t y1 = std::min(y0 + kernel_, ih);
          const std::size_t x1 = std::min(x0 + kernel_, iw);
          if (mode_ == PoolMode::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            std::size_t best_idx = y0 * iw + x0;
            for (std::size_t y = y0; y < y1; ++y) {
              for (std::size_t x = x0; x < x1; ++x) {
                const float v = in_plane[y * iw + x];
                if (v > best) {
                  best = v;
                  best_idx = y * iw + x;
                }
              }
            }
            out_plane[oy * ow + ox] = best;
            if (arg_plane) arg_plane[oy * ow + ox] = best_idx;
          } else {
            double acc = 0.0;
            for (std::size_t y = y0; y < y1; ++y) {
              for (std::size_t x = x0; x < x1; ++x) {
                acc += in_plane[y * iw + x];
              }
            }
            // Caffe divides by the nominal window size (zero padding).
            out_plane[oy * ow + ox] =
                static_cast<float>(acc / static_cast<double>(kernel_ * kernel_));
          }
        }
      }
    }
  });
  return output;
}

Tensor Pool2dLayer::backward(const Tensor& grad_output) {
  GS_CHECK_MSG(!cached_input_shape_.empty(),
               name_ << ": backward before forward");
  const std::size_t batch = cached_input_shape_[0];
  const std::size_t channels = cached_input_shape_[1];
  const std::size_t ih = cached_input_shape_[2];
  const std::size_t iw = cached_input_shape_[3];
  const std::size_t oh = out_extent(ih);
  const std::size_t ow = out_extent(iw);
  GS_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
           grad_output.dim(1) == channels && grad_output.dim(2) == oh &&
           grad_output.dim(3) == ow);

  Tensor grad_input(cached_input_shape_);
  // Argmax indices stay inside their plane, so samples run independently.
  ThreadPool::global().parallel_for(batch, [&](std::size_t b) {
    for (std::size_t c = 0; c < channels; ++c) {
      const float* gout = grad_output.data() + (b * channels + c) * oh * ow;
      float* gin = grad_input.data() + (b * channels + c) * ih * iw;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = gout[oy * ow + ox];
          if (mode_ == PoolMode::kMax) {
            gin[argmax_[((b * channels + c) * oh + oy) * ow + ox]] += g;
          } else {
            const std::size_t y0 = oy * stride_;
            const std::size_t x0 = ox * stride_;
            const std::size_t y1 = std::min(y0 + kernel_, ih);
            const std::size_t x1 = std::min(x0 + kernel_, iw);
            const float share =
                g / static_cast<float>(kernel_ * kernel_);
            for (std::size_t y = y0; y < y1; ++y) {
              for (std::size_t x = x0; x < x1; ++x) {
                gin[y * iw + x] += share;
              }
            }
          }
        }
      }
    }
  });
  return grad_input;
}

Shape Pool2dLayer::output_shape(const Shape& input_shape) const {
  GS_CHECK(input_shape.size() == 3);
  return {input_shape[0], out_extent(input_shape[1]),
          out_extent(input_shape[2])};
}

}  // namespace gs::nn
