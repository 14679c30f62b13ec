#include "nn/matrix_layer.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"
#include "linalg/gemm_kernel.hpp"
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

namespace {

using kernel::ChannelMajorSource;
using kernel::ChannelMajorStore;
using kernel::MatrixSource;
using kernel::PatchSource;
using kernel::RowMajorStore;
using LiveRows = const std::vector<std::uint32_t>*;

/// A stage input held as a row-major matrix, as a function of the live
/// rows of the stage's compressed panel (null: all of them).
auto matrix_rows(const Tensor& x) {
  return [&x](LiveRows live) {
    return MatrixSource{x.data(), x.cols(), false,
                        live != nullptr ? live->data() : nullptr};
  };
}

/// out = x·w, or, given the stage's compressed panel, x over the panel's
/// live rows times the packed panel, stored to its live columns. Deleted
/// columns are left as the zeros of the fresh output, plus the bias when the
/// store carries one.
template <class X, class Store>
void stage_product(std::size_t rows, const X& x, const Tensor& w,
                   const linalg::CompressedPanel* panel, Store out) {
  if (panel == nullptr) {
    kernel::sgemm(rows, w.cols(), w.rows(), 1.0f, x(nullptr),
                  MatrixSource{w.data(), w.cols()}, 0.0f, out);
    return;
  }
  const bool all_live = panel->all_live();
  if (!all_live) out.cols = panel->col_map.data();
  kernel::sgemm(rows, panel->live_cols(), panel->live_rows(), 1.0f,
                x(all_live ? nullptr : &panel->row_map),
                MatrixSource{panel->packed.data(), panel->live_cols()}, 0.0f,
                out);
  if (all_live || out.bias == nullptr) return;
  std::vector<std::size_t> dead;
  for (std::size_t c = 0, q = 0; c < panel->cols; ++c) {
    if (q < panel->live_cols() && panel->col_map[q] == c) {
      ++q;
    } else {
      dead.push_back(c);
    }
  }
  std::size_t offsets[kernel::kKC];
  for (std::size_t r0 = 0; r0 < rows; r0 += kernel::kKC) {
    const std::size_t count = std::min(kernel::kKC, rows - r0);
    out.row_offsets(r0, count, offsets);
    for (const std::size_t c : dead) {
      const float value = 0.0f + out.bias[c];
      for (std::size_t i = 0; i < count; ++i) {
        out.c[offsets[i] + out.col_offset(c)] = value;
      }
    }
  }
}

/// The matrix core forward: x·M0 (·M1) into `out`, whose store adds the
/// bias. Appends a low-rank layer's middle activation to `cache` if given.
template <class X, class Store>
void chain_forward(const std::vector<ParamRef>& ms,
                   const std::vector<linalg::CompressedPanel>& panels,
                   std::size_t rows, const X& x, const Store& out,
                   std::vector<Tensor>* cache) {
  const auto panel = [&](std::size_t s) {
    return panels.empty() ? nullptr : &panels[s];
  };
  if (ms.size() == 1) {
    stage_product(rows, x, *ms[0].value, panel(0), out);
    return;
  }
  Tensor h(Shape{rows, ms[0].value->cols()});
  stage_product(rows, x, *ms[0].value, panel(0),
                RowMajorStore{h.data(), h.cols()});
  stage_product(rows, matrix_rows(h), *ms[1].value, panel(1), out);
  if (cache != nullptr) cache->push_back(std::move(h));
}

/// dM += xᵀ·d over `rows` rows; `x_t` reads the stage input transposed.
template <class XT, class D>
void accumulate_grad(const ParamRef& m, std::size_t rows, const XT& x_t,
                     const D& d) {
  kernel::sgemm(m.value->rows(), m.value->cols(), rows, 1.0f, x_t, d, 1.0f,
                RowMajorStore{m.grad->data(), m.grad->cols()});
}

/// d·Wᵀ as a fresh (rows, W.rows) matrix.
template <class D>
Tensor propagate(const Tensor& w, std::size_t rows, const D& d) {
  Tensor out(Shape{rows, w.rows()});
  kernel::sgemm(rows, w.rows(), w.cols(), 1.0f, d,
                MatrixSource{w.data(), w.cols(), true}, 0.0f,
                RowMajorStore{out.data(), out.cols()});
  return out;
}

/// The matrix core backward below the bias: per stage, last first,
/// dMs += inputᵀ·d and d = d·Msᵀ. `x_t` reads the layer input transposed,
/// `cache` holds the stage inputs. Returns d of the layer input, or an
/// empty tensor when `input_grad` is false.
template <class XT, class D>
Tensor chain_backward(const std::vector<ParamRef>& ms, std::size_t rows,
                      const XT& x_t, const D& dy,
                      const std::vector<Tensor>& cache, bool input_grad) {
  if (ms.size() == 1) {
    accumulate_grad(ms[0], rows, x_t, dy);
    return input_grad ? propagate(*ms[0].value, rows, dy) : Tensor();
  }
  const Tensor& h = cache[1];
  accumulate_grad(ms[1], rows, MatrixSource{h.data(), h.cols(), true}, dy);
  const Tensor dh = propagate(*ms[1].value, rows, dy);
  const MatrixSource d{dh.data(), dh.cols()};
  accumulate_grad(ms[0], rows, x_t, d);
  return input_grad ? propagate(*ms[0].value, rows, d) : Tensor();
}

/// db of a B×F×P channel-major dY: per channel, the sum over samples and
/// positions in row order — the order sum_rows adds the patch-major rows.
Tensor channel_sums(const Tensor& dy) {
  const std::size_t batch = dy.dim(0);
  const std::size_t f = dy.dim(1);
  const std::size_t positions = dy.dim(2) * dy.dim(3);
  Tensor out(Shape{f});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t ch = 0; ch < f; ++ch) {
      const float* plane = dy.data() + (b * f + ch) * positions;
      for (std::size_t p = 0; p < positions; ++p) out[ch] += plane[p];
    }
  }
  return out;
}

}  // namespace

Tensor MatrixLayer::forward(const Tensor& input, bool train) {
  const std::vector<ParamRef> ms = matrices();
  GS_CHECK(ms.size() == 1 || ms.size() == 2);
  cache_.clear();
  std::vector<Tensor>* cache = train ? &cache_ : nullptr;
  if (train) cache_.push_back(input);
  const std::vector<linalg::CompressedPanel> none;
  const std::vector<linalg::CompressedPanel>& panels = train ? none : panels_;
  const std::size_t f = ms.back().value->cols();
  const Conv2dSpec* conv = conv_spec();
  if (conv == nullptr) {
    GS_CHECK_MSG(input.rank() == 2 && input.cols() == ms.front().value->rows(),
                 name_ << ": input shape " << shape_to_string(input.shape())
                       << " vs in_features " << ms.front().value->rows());
    Tensor output(Shape{input.rows(), f});
    chain_forward(ms, panels, input.rows(), matrix_rows(input),
                  RowMajorStore{output.data(), f, bias_.data()}, cache);
    return output;
  }

  GS_CHECK_MSG(input.rank() == 4, name_ << ": conv input must be B×C×H×W");
  const std::size_t batch = input.dim(0);
  const Shape chw{input.dim(1), input.dim(2), input.dim(3)};
  geometry_ = conv->geometry(chw);
  const std::size_t oh = geometry_.out_height();
  const std::size_t ow = geometry_.out_width();
  const std::size_t positions = oh * ow;
  Tensor output(Shape{batch, f, oh, ow});
  // Samples [b0, b0 + n): their patch rows and their output planes.
  const auto lower = [&](std::size_t b0, std::size_t n) {
    const float* images = input.data() + b0 * shape_numel(chw);
    chain_forward(ms, panels, n * positions,
                  [&](LiveRows live) {
                    return PatchSource(images, geometry_, false, live);
                  },
                  ChannelMajorStore{output.data() + b0 * f * positions,
                                    positions, f, bias_.data()},
                  cache);
  };
  if (train || ms.size() == 1) {
    lower(0, batch);
    return output;
  }
  const std::size_t block = std::max<std::size_t>(
      1, kEvalHiddenFloats / (positions * ms[0].value->cols()));
  for (std::size_t b0 = 0; b0 < batch; b0 += block) {
    lower(b0, std::min(block, batch - b0));
  }
  return output;
}

Tensor MatrixLayer::backward(const Tensor& grad_output) {
  return backward_impl(grad_output, true);
}

void MatrixLayer::backward_params(const Tensor& grad_output) {
  backward_impl(grad_output, false);
}

Tensor MatrixLayer::backward_impl(const Tensor& grad_output,
                                  bool input_grad) {
  GS_CHECK_MSG(!cache_.empty(), name_ << ": backward before forward");
  const std::vector<Tensor> cache = std::move(cache_);
  cache_.clear();
  const std::vector<ParamRef> ms = matrices();
  const std::size_t f = ms.back().value->cols();
  const Tensor& x = cache.front();
  if (conv_spec() == nullptr) {
    GS_CHECK(grad_output.rank() == 2 && grad_output.cols() == f &&
             grad_output.rows() == x.rows());
    bias_grad_ += sum_rows(grad_output);
    return chain_backward(ms, x.rows(), MatrixSource{x.data(), x.cols(), true},
                          MatrixSource{grad_output.data(), f}, cache,
                          input_grad);
  }

  const std::size_t batch = x.dim(0);
  const std::size_t oh = geometry_.out_height();
  const std::size_t ow = geometry_.out_width();
  GS_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
           grad_output.dim(1) == f && grad_output.dim(2) == oh &&
           grad_output.dim(3) == ow);
  bias_grad_ += channel_sums(grad_output);
  const Tensor dcols = chain_backward(
      ms, batch * oh * ow, PatchSource(x.data(), geometry_, true),
      ChannelMajorSource{grad_output.data(), oh * ow, f}, cache, input_grad);
  if (!input_grad) return Tensor();
  Tensor grad_input(x.shape());
  col2im_batch(dcols.data(), batch, geometry_, grad_input.data(),
               ThreadPool::global());
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
