#include "nn/matrix_layer.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {

ConvGeometry Conv2dSpec::geometry(const Shape& chw) const {
  GS_CHECK_MSG(chw.size() == 3 && chw[0] == in_channels,
               "conv input shape " << shape_to_string(chw)
                                   << " does not match " << in_channels
                                   << " input channels");
  ConvGeometry g;
  g.in_channels = chw[0];
  g.in_height = chw[1];
  g.in_width = chw[2];
  g.kernel_h = g.kernel_w = kernel;
  g.stride_h = g.stride_w = stride;
  g.pad_h = g.pad_w = pad;
  g.validate();
  return g;
}

MatrixLayer::MatrixLayer(std::string name, Tensor bias)
    : name_(std::move(name)),
      bias_(std::move(bias)),
      bias_grad_(bias_.shape()) {
  GS_CHECK_MSG(bias_.rank() == 1, name_ << ": bias must be rank 1");
}

void MatrixLayer::pack_compressed(float tol) {
  std::vector<linalg::CompressedPanel> panels;
  for (const ParamRef& m : matrices()) {
    panels.push_back(linalg::compress_panel(*m.value, tol));
  }
  panels_ = std::move(panels);
}

void MatrixLayer::clear_compressed() {
  std::vector<linalg::CompressedPanel>().swap(panels_);
}

Tensor MatrixLayer::chain_forward(const std::vector<ParamRef>& ms,
                                  const Tensor& x, bool train) {
  // Eval-only compressed chain: each stage multiplies its packed live panel
  // (deleted output columns come back as exact zeros, so the bias add below
  // matches the dense product bitwise on truly-zero weights).
  const bool packed = !train && compressed();
  Tensor cur;
  for (std::size_t s = 0; s < ms.size(); ++s) {
    const Tensor& in = s == 0 ? x : cur;
    Tensor out = packed ? linalg::compressed_matmul(in, panels_[s])
                        : matmul(in, *ms[s].value);
    if (train && s > 0) cache_.push_back(std::move(cur));
    cur = std::move(out);
  }
  add_row_vector(cur, bias_);
  return cur;
}

Tensor MatrixLayer::chain_backward(const std::vector<ParamRef>& ms,
                                   const Tensor& dy,
                                   std::vector<Tensor> inputs) {
  bias_grad_ += sum_rows(dy);
  // Both transposed products run through the packed kernel, which absorbs
  // the transpose during packing — no inputᵀ or Msᵀ is materialised.
  Tensor d;
  const Tensor* cur = &dy;
  for (std::size_t s = ms.size(); s-- > 0;) {
    gemm(inputs[s], /*ta=*/true, *cur, /*tb=*/false, *ms[s].grad, 1.0f, 1.0f);
    // Free the stage input before d·Msᵀ allocates its like-sized gradient:
    // for a conv layer both are whole-batch patch matrices.
    inputs[s] = Tensor();
    d = matmul(*cur, *ms[s].value, /*ta=*/false, /*tb=*/true);
    cur = &d;
  }
  return d;
}

Tensor MatrixLayer::forward(const Tensor& input, bool train) {
  const std::vector<ParamRef> ms = matrices();
  cache_.clear();
  // Stage inputs are cached before the core reads them, so reserve the
  // whole cache up front: a reallocation would move a tensor the core is
  // still reading.
  if (train) cache_.reserve(ms.size());
  const Conv2dSpec* conv = conv_spec();
  if (conv == nullptr) {
    GS_CHECK_MSG(input.rank() == 2 && input.cols() == ms.front().value->rows(),
                 name_ << ": input shape " << shape_to_string(input.shape())
                       << " vs in_features " << ms.front().value->rows());
    if (!train) return chain_forward(ms, input, false);
    cache_.push_back(input);
    return chain_forward(ms, cache_.back(), true);
  }

  GS_CHECK_MSG(input.rank() == 4, name_ << ": conv input must be B×C×H×W");
  const std::size_t batch = input.dim(0);
  const Shape chw{input.dim(1), input.dim(2), input.dim(3)};
  geometry_ = conv->geometry(chw);
  const std::size_t patches = geometry_.out_height() * geometry_.out_width();
  const std::size_t patch_floats = patches * geometry_.patch_size();
  const std::size_t f = ms.back().value->cols();
  const std::size_t sample = shape_numel(chw);
  // A train forward keeps the whole-batch patch matrix for backward; an eval
  // forward lowers at most kEvalPatchFloats of it at a time.
  const std::size_t block =
      train ? batch
            : std::clamp<std::size_t>(kEvalPatchFloats / patch_floats, 1,
                                      std::max<std::size_t>(batch, 1));
  ThreadPool& pool = ThreadPool::global();

  Tensor output(Shape{batch, f, geometry_.out_height(), geometry_.out_width()});
  for (std::size_t b0 = 0; b0 < batch; b0 += block) {
    const std::size_t n = std::min(block, batch - b0);
    Tensor cols(Shape{n * patches, geometry_.patch_size()});
    im2col_batch(input.data() + b0 * sample, n, geometry_, cols.data(), pool);
    const Tensor* x = &cols;
    if (train) {
      cache_.push_back(std::move(cols));
      x = &cache_.back();
    }
    const Tensor out_mat = chain_forward(ms, *x, train);  // (n·oh·ow, F)
    retile_batch(out_mat.data(), n, patches, f,
                 output.data() + b0 * f * patches, pool);
  }
  return output;
}

Tensor MatrixLayer::backward(const Tensor& grad_output) {
  GS_CHECK_MSG(!cache_.empty(), name_ << ": backward before forward");
  const std::vector<ParamRef> ms = matrices();
  const std::size_t f = ms.back().value->cols();
  if (conv_spec() == nullptr) {
    GS_CHECK(grad_output.rank() == 2 && grad_output.cols() == f &&
             grad_output.rows() == cache_.front().rows());
    return chain_backward(ms, grad_output, std::move(cache_));
  }

  const std::size_t oh = geometry_.out_height();
  const std::size_t ow = geometry_.out_width();
  const std::size_t patches = oh * ow;
  const std::size_t batch = cache_.front().rows() / patches;
  GS_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
           grad_output.dim(1) == f && grad_output.dim(2) == oh &&
           grad_output.dim(3) == ow);
  ThreadPool& pool = ThreadPool::global();
  Tensor dy(Shape{batch * patches, f});
  retile_batch(grad_output.data(), batch, f, patches, dy.data(), pool);
  const Tensor dcols = chain_backward(ms, dy, std::move(cache_));
  Tensor grad_input(Shape{batch, geometry_.in_channels, geometry_.in_height,
                          geometry_.in_width});
  col2im_batch(dcols.data(), batch, geometry_, grad_input.data(), pool);
  return grad_input;
}

Shape MatrixLayer::output_shape(const Shape& input_shape) const {
  const std::vector<ParamRef> ms = matrices();
  if (const Conv2dSpec* conv = conv_spec()) {
    const ConvGeometry g = conv->geometry(input_shape);
    return {ms.back().value->cols(), g.out_height(), g.out_width()};
  }
  GS_CHECK(shape_numel(input_shape) == ms.front().value->rows());
  return {ms.back().value->cols()};
}

}  // namespace gs::nn
