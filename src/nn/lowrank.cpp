#include "nn/lowrank.hpp"

#include "nn/init.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {

Tensor FactorizedLayer::effective_weight() const {
  return matmul(factor_u(), factor_vt());
}

// ---------------------------------------------------------------- dense ----

LowRankDense::LowRankDense(std::string name, std::size_t in_features,
                           std::size_t out_features, std::size_t rank,
                           Rng& rng)
    : name_(std::move(name)),
      in_(in_features),
      out_(out_features),
      u_(Shape{in_features, rank}),
      vt_(Shape{rank, out_features}),
      bias_(Shape{out_features}),
      u_grad_(u_.shape()),
      vt_grad_(vt_.shape()),
      bias_grad_(bias_.shape()) {
  GS_CHECK(in_ > 0 && out_ > 0 && rank > 0);
  xavier_uniform(u_, in_, rank, rng);
  xavier_uniform(vt_, rank, out_, rng);
}

LowRankDense::LowRankDense(std::string name, Tensor u, Tensor vt, Tensor bias)
    : name_(std::move(name)),
      in_(u.rows()),
      out_(vt.cols()),
      u_(std::move(u)),
      vt_(std::move(vt)),
      bias_(std::move(bias)),
      u_grad_(u_.shape()),
      vt_grad_(vt_.shape()),
      bias_grad_(bias_.shape()) {
  GS_CHECK_MSG(u_.rank() == 2 && vt_.rank() == 2 && u_.cols() == vt_.rows(),
               name_ << ": inconsistent factors");
  GS_CHECK(bias_.rank() == 1 && bias_.dim(0) == out_);
}

Tensor LowRankDense::forward(const Tensor& input, bool train) {
  GS_CHECK_MSG(input.rank() == 2 && input.cols() == in_,
               name_ << ": input " << shape_to_string(input.shape()));
  if (!train) {
    // Eval: no caches — backward is a training-path concern. The compressed
    // chain runs both factor products on their packed live panels.
    cached_input_ = Tensor();
    cached_hidden_ = Tensor();
    const Tensor hidden = compressed_
                              ? linalg::compressed_matmul(input, u_panel_)
                              : matmul(input, u_);
    Tensor out = compressed_ ? linalg::compressed_matmul(hidden, vt_panel_)
                             : matmul(hidden, vt_);
    add_row_vector(out, bias_);
    return out;
  }
  cached_input_ = input;
  cached_hidden_ = matmul(input, u_);          // (B, K)
  Tensor out = matmul(cached_hidden_, vt_);    // (B, out)
  add_row_vector(out, bias_);
  return out;
}

Tensor LowRankDense::backward(const Tensor& grad_output) {
  GS_CHECK_MSG(cached_input_.numel() > 0, name_ << ": backward before forward");
  GS_CHECK(grad_output.rank() == 2 && grad_output.cols() == out_ &&
           grad_output.rows() == cached_input_.rows());
  // Stage 2: dVᵀ += Hᵀ·dY, db += Σ dY, dH = dY·V.
  gemm(cached_hidden_, /*ta=*/true, grad_output, /*tb=*/false, vt_grad_, 1.0f,
       1.0f);
  bias_grad_ += sum_rows(grad_output);
  Tensor dh = matmul(grad_output, vt_, /*ta=*/false, /*tb=*/true);  // (B, K)
  // Stage 1: dU += Xᵀ·dH, dX = dH·Uᵀ.
  gemm(cached_input_, /*ta=*/true, dh, /*tb=*/false, u_grad_, 1.0f, 1.0f);
  return matmul(dh, u_, /*ta=*/false, /*tb=*/true);
}

std::vector<ParamRef> LowRankDense::params() {
  return {{&u_, &u_grad_, name_ + ".u"},
          {&vt_, &vt_grad_, name_ + ".vt"},
          {&bias_, &bias_grad_, name_ + ".bias"}};
}

Shape LowRankDense::output_shape(const Shape& input_shape) const {
  GS_CHECK(shape_numel(input_shape) == in_);
  return {out_};
}

void LowRankDense::set_factors(Tensor u, Tensor vt) {
  GS_CHECK_MSG(u.rank() == 2 && vt.rank() == 2 && u.cols() == vt.rows(),
               name_ << ": inconsistent replacement factors");
  GS_CHECK_MSG(u.rows() == in_ && vt.cols() == out_,
               name_ << ": replacement factors change layer dimensions");
  u_ = std::move(u);
  vt_ = std::move(vt);
  u_grad_ = Tensor(u_.shape());
  vt_grad_ = Tensor(vt_.shape());
  clear_compressed();  // the panels snapshot factors that no longer exist
}

void LowRankDense::pack_compressed(float tol) {
  u_panel_ = linalg::compress_panel(u_, tol);
  vt_panel_ = linalg::compress_panel(vt_, tol);
  compressed_ = true;
}

void LowRankDense::clear_compressed() {
  u_panel_ = linalg::CompressedPanel{};
  vt_panel_ = linalg::CompressedPanel{};
  compressed_ = false;
}

// ----------------------------------------------------------------- conv ----

LowRankConv2d::LowRankConv2d(std::string name, Spec spec, std::size_t rank,
                             Rng& rng)
    : name_(std::move(name)),
      spec_(spec),
      patch_(spec.in_channels * spec.kernel * spec.kernel),
      u_(Shape{patch_, rank}),
      vt_(Shape{rank, spec.out_channels}),
      bias_(Shape{spec.out_channels}),
      u_grad_(u_.shape()),
      vt_grad_(vt_.shape()),
      bias_grad_(bias_.shape()) {
  GS_CHECK(patch_ > 0 && spec.out_channels > 0 && rank > 0);
  he_normal(u_, patch_, rng);
  xavier_uniform(vt_, rank, spec.out_channels, rng);
}

LowRankConv2d::LowRankConv2d(std::string name, Spec spec, Tensor u, Tensor vt,
                             Tensor bias)
    : name_(std::move(name)),
      spec_(spec),
      patch_(spec.in_channels * spec.kernel * spec.kernel),
      u_(std::move(u)),
      vt_(std::move(vt)),
      bias_(std::move(bias)),
      u_grad_(u_.shape()),
      vt_grad_(vt_.shape()),
      bias_grad_(bias_.shape()) {
  GS_CHECK_MSG(u_.rank() == 2 && u_.rows() == patch_ && vt_.rank() == 2 &&
                   u_.cols() == vt_.rows() &&
                   vt_.cols() == spec_.out_channels,
               name_ << ": inconsistent factors");
  GS_CHECK(bias_.rank() == 1 && bias_.dim(0) == spec_.out_channels);
}

ConvGeometry LowRankConv2d::make_geometry(const Shape& chw) const {
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

Tensor LowRankConv2d::forward(const Tensor& input, bool train) {
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
    cached_hidden_.assign(batch, Tensor());
    cached_batch_ = batch;
  } else {
    std::vector<Tensor>().swap(cached_cols_);
    std::vector<Tensor>().swap(cached_hidden_);
    cached_batch_ = 0;
  }
  Tensor output(Shape{batch, f, oh, ow});

  for (std::size_t b = 0; b < batch; ++b) {
    Tensor image(chw);
    std::copy(input.data() + b * sample, input.data() + (b + 1) * sample,
              image.data());
    Tensor cols = im2col(image, geometry_);    // (oh·ow, patch)
    // Eval-only compressed chain over both factor products.
    Tensor hidden = use_compressed
                        ? linalg::compressed_matmul(cols, u_panel_)
                        : matmul(cols, u_);    // (oh·ow, K)
    Tensor out_mat = use_compressed
                         ? linalg::compressed_matmul(hidden, vt_panel_)
                         : matmul(hidden, vt_);  // (oh·ow, F)
    add_row_vector(out_mat, bias_);
    float* dst = output.data() + b * f * oh * ow;
    for (std::size_t p = 0; p < oh * ow; ++p) {
      const float* row = out_mat.data() + p * f;
      for (std::size_t c = 0; c < f; ++c) {
        dst[c * oh * ow + p] = row[c];
      }
    }
    if (train) {
      cached_cols_[b] = std::move(cols);
      cached_hidden_[b] = std::move(hidden);
    }
  }
  return output;
}

Tensor LowRankConv2d::backward(const Tensor& grad_output) {
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

  for (std::size_t b = 0; b < batch; ++b) {
    Tensor dy(Shape{oh * ow, f});
    const float* src = grad_output.data() + b * f * oh * ow;
    for (std::size_t p = 0; p < oh * ow; ++p) {
      float* row = dy.data() + p * f;
      for (std::size_t c = 0; c < f; ++c) {
        row[c] = src[c * oh * ow + p];
      }
    }
    // Stage 2 (1×1): dVᵀ += Hᵀ·dY ; db += Σ dY ; dH = dY·V.
    gemm(cached_hidden_[b], /*ta=*/true, dy, /*tb=*/false, vt_grad_, 1.0f,
         1.0f);
    bias_grad_ += sum_rows(dy);
    Tensor dh = matmul(dy, vt_, /*ta=*/false, /*tb=*/true);  // (oh·ow, K)
    // Stage 1 (K-filter conv): dU += colsᵀ·dH ; dcols = dH·Uᵀ.
    gemm(cached_cols_[b], /*ta=*/true, dh, /*tb=*/false, u_grad_, 1.0f, 1.0f);
    Tensor dcols = matmul(dh, u_, /*ta=*/false, /*tb=*/true);
    Tensor dimage = col2im(dcols, geometry_);
    std::copy(dimage.data(), dimage.data() + sample,
              grad_input.data() + b * sample);
  }
  return grad_input;
}

std::vector<ParamRef> LowRankConv2d::params() {
  return {{&u_, &u_grad_, name_ + ".u"},
          {&vt_, &vt_grad_, name_ + ".vt"},
          {&bias_, &bias_grad_, name_ + ".bias"}};
}

Shape LowRankConv2d::output_shape(const Shape& input_shape) const {
  const ConvGeometry g = make_geometry(input_shape);
  return {spec_.out_channels, g.out_height(), g.out_width()};
}

void LowRankConv2d::set_factors(Tensor u, Tensor vt) {
  GS_CHECK_MSG(u.rank() == 2 && vt.rank() == 2 && u.cols() == vt.rows(),
               name_ << ": inconsistent replacement factors");
  GS_CHECK_MSG(u.rows() == patch_ && vt.cols() == spec_.out_channels,
               name_ << ": replacement factors change layer dimensions");
  u_ = std::move(u);
  vt_ = std::move(vt);
  u_grad_ = Tensor(u_.shape());
  vt_grad_ = Tensor(vt_.shape());
  clear_compressed();  // the panels snapshot factors that no longer exist
}

void LowRankConv2d::pack_compressed(float tol) {
  u_panel_ = linalg::compress_panel(u_, tol);
  vt_panel_ = linalg::compress_panel(vt_, tol);
  compressed_ = true;
}

void LowRankConv2d::clear_compressed() {
  u_panel_ = linalg::CompressedPanel{};
  vt_panel_ = linalg::CompressedPanel{};
  compressed_ = false;
}

}  // namespace gs::nn
