#include "nn/dense.hpp"

#include "nn/init.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {

DenseLayer::DenseLayer(std::string name, std::size_t in_features,
                       std::size_t out_features, Rng& rng)
    : name_(std::move(name)),
      in_(in_features),
      out_(out_features),
      weight_(Shape{in_features, out_features}),
      bias_(Shape{out_features}),
      weight_grad_(Shape{in_features, out_features}),
      bias_grad_(Shape{out_features}) {
  GS_CHECK(in_ > 0 && out_ > 0);
  xavier_uniform(weight_, in_, out_, rng);
}

Tensor DenseLayer::forward(const Tensor& input, bool train) {
  GS_CHECK_MSG(input.rank() == 2 && input.cols() == in_,
               name_ << ": input shape " << shape_to_string(input.shape())
                     << " vs in_features " << in_);
  // Eval forwards keep no input — backward is a training-path concern.
  if (train) {
    cached_input_ = input;
  } else {
    cached_input_ = Tensor();
  }
  if (!train && compressed_) {
    // Eval-only compressed path: multiply the packed live-rows × live-cols
    // panel (deleted output columns come back as exact zeros, so the bias
    // add below matches the dense product bitwise on truly-zero weights).
    Tensor out = linalg::compressed_matmul(input, panel_);
    add_row_vector(out, bias_);
    return out;
  }
  Tensor out = matmul(input, weight_);
  add_row_vector(out, bias_);
  return out;
}

Tensor DenseLayer::backward(const Tensor& grad_output) {
  GS_CHECK(grad_output.rank() == 2 && grad_output.cols() == out_);
  GS_CHECK_MSG(cached_input_.numel() > 0, name_ << ": backward before forward");
  GS_CHECK(grad_output.rows() == cached_input_.rows());
  // dW += Xᵀ·dY ; db += Σ_rows dY ; dX = dY·Wᵀ. Both transposed products
  // run through the packed kernel, which absorbs the transpose during
  // packing — neither Xᵀ nor Wᵀ is ever materialised.
  gemm(cached_input_, /*ta=*/true, grad_output, /*tb=*/false, weight_grad_,
       1.0f, 1.0f);
  bias_grad_ += sum_rows(grad_output);
  return matmul(grad_output, weight_, /*ta=*/false, /*tb=*/true);
}

std::vector<ParamRef> DenseLayer::params() {
  return {{&weight_, &weight_grad_, name_ + ".weight"},
          {&bias_, &bias_grad_, name_ + ".bias"}};
}

Shape DenseLayer::output_shape(const Shape& input_shape) const {
  GS_CHECK(shape_numel(input_shape) == in_);
  return {out_};
}

void DenseLayer::pack_compressed(float tol) {
  panel_ = linalg::compress_panel(weight_, tol);
  compressed_ = true;
}

void DenseLayer::clear_compressed() {
  panel_ = linalg::CompressedPanel{};
  compressed_ = false;
}

}  // namespace gs::nn
