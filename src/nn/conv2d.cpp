#include "nn/conv2d.hpp"

#include "nn/init.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {

Conv2dLayer::Conv2dLayer(std::string name, Conv2dSpec spec, Rng& rng)
    : name_(std::move(name)),
      spec_(spec),
      weight_(Shape{spec.in_channels * spec.kernel * spec.kernel,
                    spec.out_channels}),
      bias_(Shape{spec.out_channels}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  GS_CHECK(spec.in_channels > 0 && spec.out_channels > 0 && spec.kernel > 0 &&
           spec.stride > 0);
  he_normal(weight_, weight_.rows(), rng);
}

ConvGeometry Conv2dLayer::make_geometry(const Shape& chw) const {
  GS_CHECK_MSG(chw.size() == 3 && chw[0] == spec_.in_channels,
               name_ << ": bad input shape " << shape_to_string(chw));
  ConvGeometry g;
  g.in_channels = chw[0];
  g.in_height = chw[1];
  g.in_width = chw[2];
  g.kernel_h = g.kernel_w = spec_.kernel;
  g.stride_h = g.stride_w = spec_.stride;
  g.pad_h = g.pad_w = spec_.pad;
  g.validate();
  return g;
}

Tensor Conv2dLayer::forward(const Tensor& input, bool train) {
  GS_CHECK_MSG(input.rank() == 4, name_ << ": conv input must be B×C×H×W");
  const std::size_t batch = input.dim(0);
  const Shape chw{input.dim(1), input.dim(2), input.dim(3)};
  geometry_ = make_geometry(chw);
  const std::size_t oh = geometry_.out_height();
  const std::size_t ow = geometry_.out_width();
  const std::size_t f = spec_.out_channels;
  const std::size_t sample = shape_numel(chw);
  const bool use_compressed = !train && compressed_;

  if (train) {
    cached_cols_.assign(batch, Tensor());
    cached_batch_ = batch;
  } else {
    std::vector<Tensor>().swap(cached_cols_);
    cached_batch_ = 0;
  }
  Tensor output(Shape{batch, f, oh, ow});

  // Per-sample scratch hoisted out of the loop; gemm writes into the reused
  // buffer instead of allocating a fresh product per sample.
  Tensor image(chw);
  Tensor out_mat(Shape{oh * ow, f});
  for (std::size_t b = 0; b < batch; ++b) {
    std::copy(input.data() + b * sample, input.data() + (b + 1) * sample,
              image.data());
    Tensor cols = im2col(image, geometry_);       // (oh*ow, patch)
    if (use_compressed) {
      // Eval-only compressed product: gather the live patch columns, run
      // the packed panel, scatter filters (deleted filters are zero until
      // the bias lands).
      linalg::compressed_gemm(cols, panel_, out_mat);
    } else {
      gemm(cols, /*ta=*/false, weight_, /*tb=*/false, out_mat);
    }
    add_row_vector(out_mat, bias_);
    // Transpose (oh*ow, F) into channel-major (F, oh, ow).
    float* dst = output.data() + b * f * oh * ow;
    for (std::size_t p = 0; p < oh * ow; ++p) {
      const float* row = out_mat.data() + p * f;
      for (std::size_t c = 0; c < f; ++c) {
        dst[c * oh * ow + p] = row[c];
      }
    }
    if (train) cached_cols_[b] = std::move(cols);
  }
  return output;
}

Tensor Conv2dLayer::backward(const Tensor& grad_output) {
  GS_CHECK_MSG(cached_batch_ > 0, name_ << ": backward before forward");
  const std::size_t batch = cached_batch_;
  const std::size_t f = spec_.out_channels;
  const std::size_t oh = geometry_.out_height();
  const std::size_t ow = geometry_.out_width();
  GS_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
           grad_output.dim(1) == f && grad_output.dim(2) == oh &&
           grad_output.dim(3) == ow);

  const Shape chw{geometry_.in_channels, geometry_.in_height,
                  geometry_.in_width};
  const std::size_t sample = shape_numel(chw);
  Tensor grad_input(Shape{batch, chw[0], chw[1], chw[2]});

  // Per-sample scratch hoisted out of the loop. The dY·Wᵀ product runs
  // through the packed kernel, which absorbs the transpose during packing —
  // no per-sample Wᵀ copy.
  Tensor dy(Shape{oh * ow, f});
  Tensor dcols(Shape{oh * ow, geometry_.patch_size()});
  for (std::size_t b = 0; b < batch; ++b) {
    // Reassemble dY as an (oh*ow, F) matrix.
    const float* src = grad_output.data() + b * f * oh * ow;
    for (std::size_t p = 0; p < oh * ow; ++p) {
      float* row = dy.data() + p * f;
      for (std::size_t c = 0; c < f; ++c) {
        row[c] = src[c * oh * ow + p];
      }
    }
    // dW += colsᵀ·dY ; db += Σ rows dY ; dcols = dY·Wᵀ.
    gemm(cached_cols_[b], /*ta=*/true, dy, /*tb=*/false, weight_grad_, 1.0f,
         1.0f);
    bias_grad_ += sum_rows(dy);
    gemm(dy, /*ta=*/false, weight_, /*tb=*/true, dcols);
    Tensor dimage = col2im(dcols, geometry_);
    std::copy(dimage.data(), dimage.data() + sample,
              grad_input.data() + b * sample);
  }
  return grad_input;
}

std::vector<ParamRef> Conv2dLayer::params() {
  return {{&weight_, &weight_grad_, name_ + ".weight"},
          {&bias_, &bias_grad_, name_ + ".bias"}};
}

Shape Conv2dLayer::output_shape(const Shape& input_shape) const {
  const ConvGeometry g = make_geometry(input_shape);
  return {spec_.out_channels, g.out_height(), g.out_width()};
}

void Conv2dLayer::pack_compressed(float tol) {
  panel_ = linalg::compress_panel(weight_, tol);
  compressed_ = true;
}

void Conv2dLayer::clear_compressed() {
  panel_ = linalg::CompressedPanel{};
  compressed_ = false;
}

}  // namespace gs::nn
