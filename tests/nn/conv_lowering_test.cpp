// Differential test of the shared conv lowering (nn/matrix_layer.hpp).
//
// Conv2dLayer and LowRankConv2d run one whole-batch implicit GEMM: the
// patch source packs patch rows straight from the input, the store writes
// the channel-major output with the bias, and backward reads dY in place.
// The reference below is a test-local copy of the per-sample loops each
// layer ran before (an image copy, a fresh im2col tensor, the layer's own
// GEMM calls, an inline transpose). Outputs and input gradients must match
// it BITWISE — in train and eval mode, at batches 1 to 820, with padding
// and stride 2, with a patch longer than one K panel (LeNet conv2, 500), and
// on the compressed eval path. Parameter gradients are one product with
// K = B·oh·ow in the layer, so they match a batched reference (one GEMM over
// every sample's materialised rows) bitwise and the per-sample sums only to
// rounding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "linalg/compressed.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

ConvGeometry reference_geometry(const Conv2dSpec& spec, const Tensor& input) {
  ConvGeometry g;
  g.in_channels = input.dim(1);
  g.in_height = input.dim(2);
  g.in_width = input.dim(3);
  g.kernel_h = g.kernel_w = spec.kernel;
  g.stride_h = g.stride_w = spec.stride;
  g.pad_h = g.pad_w = spec.pad;
  g.validate();
  return g;
}

/// The reference: one or two weight matrices (W, or U and Vᵀ), their
/// gradients, and the per-sample caches of a train forward.
struct Reference {
  Conv2dSpec spec;
  std::vector<Tensor> weights;
  std::vector<Tensor> grads;
  std::vector<linalg::CompressedPanel> panels;  // filled for compressed eval
  Tensor bias;
  Tensor bias_grad;
  ConvGeometry g;
  std::vector<Tensor> cols;
  std::vector<Tensor> hidden;
  std::vector<Tensor> dys;

  // The old per-sample forward of Conv2dLayer (one matrix) and
  // LowRankConv2d (two).
  Tensor forward(const Tensor& input, bool train) {
    const bool compressed = !train && !panels.empty();
    const std::size_t batch = input.dim(0);
    const Shape chw{input.dim(1), input.dim(2), input.dim(3)};
    g = reference_geometry(spec, input);
    const std::size_t oh = g.out_height();
    const std::size_t ow = g.out_width();
    const std::size_t f = spec.out_channels;
    const std::size_t sample = shape_numel(chw);
    cols.assign(batch, Tensor());
    hidden.assign(batch, Tensor());
    Tensor output(Shape{batch, f, oh, ow});
    Tensor image(chw);
    Tensor out_mat(Shape{oh * ow, f});
    for (std::size_t b = 0; b < batch; ++b) {
      std::copy(input.data() + b * sample, input.data() + (b + 1) * sample,
                image.data());
      Tensor c = im2col(image, g);
      if (weights.size() == 1) {
        if (compressed) {
          linalg::compressed_gemm(c, panels[0], out_mat);
        } else {
          gemm(c, false, weights[0], false, out_mat);
        }
      } else {
        Tensor h = compressed ? linalg::compressed_matmul(c, panels[0])
                              : matmul(c, weights[0]);
        out_mat = compressed ? linalg::compressed_matmul(h, panels[1])
                             : matmul(h, weights[1]);
        hidden[b] = std::move(h);
      }
      add_row_vector(out_mat, bias);
      float* dst = output.data() + b * f * oh * ow;
      for (std::size_t p = 0; p < oh * ow; ++p) {
        const float* row = out_mat.data() + p * f;
        for (std::size_t ch = 0; ch < f; ++ch) {
          dst[ch * oh * ow + p] = row[ch];
        }
      }
      cols[b] = std::move(c);
    }
    return output;
  }

  // The old per-sample backward of both layers.
  Tensor backward(const Tensor& grad_output) {
    const std::size_t batch = cols.size();
    const std::size_t f = spec.out_channels;
    const std::size_t oh = g.out_height();
    const std::size_t ow = g.out_width();
    const std::size_t sample = g.in_channels * g.in_height * g.in_width;
    Tensor grad_input(Shape{batch, g.in_channels, g.in_height, g.in_width});
    Tensor dcols(Shape{oh * ow, g.patch_size()});
    dys.assign(batch, Tensor());
    for (std::size_t b = 0; b < batch; ++b) {
      Tensor& dy = dys[b];
      dy = Tensor(Shape{oh * ow, f});
      const float* src = grad_output.data() + b * f * oh * ow;
      for (std::size_t p = 0; p < oh * ow; ++p) {
        float* row = dy.data() + p * f;
        for (std::size_t ch = 0; ch < f; ++ch) {
          row[ch] = src[ch * oh * ow + p];
        }
      }
      if (weights.size() == 1) {
        gemm(cols[b], true, dy, false, grads[0], 1.0f, 1.0f);
        bias_grad += sum_rows(dy);
        gemm(dy, false, weights[0], true, dcols);
      } else {
        gemm(hidden[b], true, dy, false, grads[1], 1.0f, 1.0f);
        bias_grad += sum_rows(dy);
        const Tensor dh = matmul(dy, weights[1], false, true);
        gemm(cols[b], true, dh, false, grads[0], 1.0f, 1.0f);
        dcols = matmul(dh, weights[0], false, true);
      }
      const Tensor dimage = col2im(dcols, g);
      std::copy(dimage.data(), dimage.data() + sample,
                grad_input.data() + b * sample);
    }
    return grad_input;
  }

  // The parameter gradients of the batched lowering: every sample's rows
  // stacked into one matrix, then one dW product (K = B·oh·ow) per matrix
  // and one sum_rows for the bias. Call after backward().
  std::pair<std::vector<Tensor>, Tensor> batched_param_grads() const {
    const Tensor cols_all = stack(cols);
    const Tensor dy_all = stack(dys);
    std::vector<Tensor> dw;
    for (const Tensor& w : weights) dw.emplace_back(w.shape());
    if (weights.size() == 1) {
      gemm(cols_all, true, dy_all, false, dw[0], 1.0f, 1.0f);
    } else {
      gemm(stack(hidden), true, dy_all, false, dw[1], 1.0f, 1.0f);
      const Tensor dh_all = matmul(dy_all, weights[1], false, true);
      gemm(cols_all, true, dh_all, false, dw[0], 1.0f, 1.0f);
    }
    Tensor db(bias.shape());
    db += sum_rows(dy_all);
    return {std::move(dw), std::move(db)};
  }

  static Tensor stack(const std::vector<Tensor>& parts) {
    std::size_t rows = 0;
    for (const Tensor& t : parts) rows += t.rows();
    Tensor all(Shape{rows, parts.front().cols()});
    float* dst = all.data();
    for (const Tensor& t : parts) dst = std::copy_n(t.data(), t.numel(), dst);
    return all;
  }
};

Reference reference_of(MatrixLayer& layer) {
  Reference ref;
  ref.spec = *layer.conv_spec();
  for (const ParamRef& m : layer.matrices()) {
    ref.weights.push_back(*m.value);
    ref.grads.emplace_back(m.value->shape());
  }
  ref.bias = layer.bias();
  ref.bias_grad = Tensor(layer.bias().shape());
  return ref;
}

/// Deletes rows and columns of every matrix (zeroes them) so the compressed
/// panels really gather and scatter.
void delete_groups(MatrixLayer& layer) {
  for (const ParamRef& m : layer.matrices()) {
    Tensor& w = *m.value;
    for (std::size_t i = 0; i < w.rows(); i += 3) {
      for (std::size_t j = 0; j < w.cols(); ++j) w.at(i, j) = 0.0f;
    }
    for (std::size_t j = 1; j < w.cols(); j += 4) {
      for (std::size_t i = 0; i < w.rows(); ++i) w.at(i, j) = 0.0f;
    }
  }
}

/// max |a − b| over max |b|: the gap between two summation orders of the
/// same gradient, relative to its scale.
float relative_gap(const Tensor& a, const Tensor& b) {
  float gap = 0.0f;
  float scale = std::numeric_limits<float>::min();
  for (std::size_t i = 0; i < b.numel(); ++i) {
    gap = std::max(gap, std::fabs(a[i] - b[i]));
    scale = std::max(scale, std::fabs(b[i]));
  }
  return gap / scale;
}

// Re-ordering the float sums of these shapes moves a gradient by a few ulps
// of its largest entry; 1e-5 leaves an order of magnitude spare.
constexpr float kSumOrderTolerance = 1e-5f;

/// The convolution of a case: its input channels and square size, filter
/// count, and the rank of its low-rank form.
struct ConvShape {
  const char* name;
  std::size_t channels, size, filters, rank;
};

// 3 channels of 12×12, 5×5 kernels, 8 filters: 64 to 144 patches × 75 per
// sample, and rank 5 in the low-rank layer.
constexpr ConvShape kSmall{nullptr, 3, 12, 8, 5};
// LeNet conv2: patch 20·5·5 = 500 spans two K panels (kKC = 256).
constexpr ConvShape kLeNetConv2{"lenet_conv2", 20, 12, 50, 12};
// ConvNet conv1: 32 filters over 3×32×32 with a 2-pixel pad.
constexpr ConvShape kConvNetConv1{"convnet_conv1", 3, 32, 32, 5};

struct Case {
  bool lowrank;
  std::size_t batch, stride, pad;
  const ConvShape* shape = &kSmall;

  Conv2dSpec spec() const {
    return Conv2dSpec{shape->channels, shape->filters, 5, stride, pad};
  }
  Shape sample_shape() const {
    return {shape->channels, shape->size, shape->size};
  }
};

void PrintTo(const Case& c, std::ostream* os) {
  if (c.shape->name != nullptr) *os << c.shape->name << "_";
  *os << (c.lowrank ? "lowrank" : "conv") << "_b" << c.batch << "_s"
      << c.stride << "_p" << c.pad;
}

class ConvLowering : public ::testing::TestWithParam<Case> {
 protected:
  std::unique_ptr<MatrixLayer> make_layer(Rng& rng) const {
    const Case& c = GetParam();
    const Conv2dSpec spec = c.spec();
    if (c.lowrank) {
      return std::make_unique<LowRankConv2d>("lrc", spec, c.shape->rank, rng);
    }
    return std::make_unique<Conv2dLayer>("conv", spec, rng);
  }

  Tensor input(Rng& rng) const {
    Shape shape{GetParam().batch};
    const Shape sample = GetParam().sample_shape();
    shape.insert(shape.end(), sample.begin(), sample.end());
    Tensor x(shape);
    x.fill_gaussian(rng, 0.0f, 1.0f);
    return x;
  }

  /// One train forward and backward of the layer and of the reference.
  struct TrainStep {
    std::unique_ptr<MatrixLayer> layer;
    Reference ref;
    Tensor y, y_ref, dx, dx_ref;
  };

  TrainStep train_step() const {
    Rng rng(17);
    TrainStep step;
    step.layer = make_layer(rng);
    step.layer->bias().fill_gaussian(rng, 0.0f, 0.1f);
    step.ref = reference_of(*step.layer);
    const Tensor x = input(rng);
    step.y = step.layer->forward(x, /*train=*/true);
    step.y_ref = step.ref.forward(x, true);
    Tensor dy(step.y.shape());
    dy.fill_gaussian(rng, 0.0f, 1.0f);
    step.dx = step.layer->backward(dy);
    step.dx_ref = step.ref.backward(dy);
    return step;
  }

  void expect_eval_matches() const {
    Rng rng(23);
    auto layer = make_layer(rng);
    Reference ref = reference_of(*layer);
    const Tensor x = input(rng);
    EXPECT_TRUE(
        bitwise_equal(layer->forward(x, false), ref.forward(x, false)));
  }

  void expect_compressed_eval_matches() const {
    Rng rng(29);
    auto layer = make_layer(rng);
    layer->bias().fill_gaussian(rng, 0.0f, 0.1f);
    delete_groups(*layer);
    layer->pack_compressed();
    Reference ref = reference_of(*layer);
    for (const Tensor& w : ref.weights) {
      ref.panels.push_back(linalg::compress_panel(w));
      ASSERT_FALSE(ref.panels.back().all_live());
    }
    const Tensor x = input(rng);
    EXPECT_TRUE(
        bitwise_equal(layer->forward(x, false), ref.forward(x, false)));
  }
};

TEST_P(ConvLowering, TrainForwardAndBackwardMatchPerSampleLoopsBitwise) {
  TrainStep step = train_step();
  EXPECT_TRUE(bitwise_equal(step.y, step.y_ref));
  EXPECT_TRUE(bitwise_equal(step.dx, step.dx_ref));
}

TEST_P(ConvLowering, TrainParamGradsMatchOneBatchedProductBitwise) {
  TrainStep step = train_step();
  const auto [batched_dw, batched_db] = step.ref.batched_param_grads();
  const std::vector<ParamRef> ms = step.layer->matrices();
  for (std::size_t s = 0; s < ms.size(); ++s) {
    EXPECT_TRUE(bitwise_equal(*ms[s].grad, batched_dw[s])) << ms[s].name;
    EXPECT_LE(relative_gap(*ms[s].grad, step.ref.grads[s]),
              kSumOrderTolerance)
        << ms[s].name;
  }
  const Tensor& db = *step.layer->params().back().grad;
  EXPECT_TRUE(bitwise_equal(db, batched_db));
  EXPECT_LE(relative_gap(db, step.ref.bias_grad), kSumOrderTolerance);
}

TEST_P(ConvLowering, EvalForwardMatchesPerSampleLoopsBitwise) {
  expect_eval_matches();
}

TEST_P(ConvLowering, CompressedEvalMatchesPerSampleLoopsBitwise) {
  expect_compressed_eval_matches();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvLowering,
    ::testing::Values(Case{false, 1, 1, 0}, Case{false, 3, 1, 2},
                      Case{false, 3, 2, 0}, Case{false, 1, 2, 2},
                      Case{true, 1, 1, 0}, Case{true, 3, 1, 2},
                      Case{true, 3, 2, 0}, Case{true, 1, 2, 2}));

// Large batches: many GEMM row blocks, and K = B·oh·ow panels for dW. An
// eval forward of the low-rank layer at s1_p0 (8×8 positions, rank 5) runs
// kLowRankBlock samples per block, so the last two cases fill exactly one
// block and spill one sample into a second.
constexpr std::size_t kLowRankBlock =
    MatrixLayer::kEvalHiddenFloats / (8 * 8 * kSmall.rank);
INSTANTIATE_TEST_SUITE_P(
    Blocks, ConvLowering,
    ::testing::Values(Case{false, 24, 1, 2}, Case{false, 25, 1, 2},
                      Case{false, 100, 1, 2}, Case{true, 54, 1, 0},
                      Case{true, 55, 1, 0}, Case{true, 100, 1, 0},
                      Case{true, kLowRankBlock, 1, 0},
                      Case{true, kLowRankBlock + 1, 1, 0}));

// The network layers at their training and serving batches. LeNet conv2's
// 500-long patch takes two K panels: at batch 1 (64 rows) the forward runs
// the K-panel path, at 7 and 25 the panel loop, and dW (m = 500) the panel
// loop; at stride 2 each sample has 4×4 positions. ConvNet conv1 pads by 2.
INSTANTIATE_TEST_SUITE_P(
    Networks, ConvLowering,
    ::testing::Values(Case{false, 1, 1, 0, &kLeNetConv2},
                      Case{false, 7, 1, 0, &kLeNetConv2},
                      Case{false, 25, 1, 0, &kLeNetConv2},
                      Case{true, 1, 1, 0, &kLeNetConv2},
                      Case{true, 25, 1, 0, &kLeNetConv2},
                      Case{false, 7, 2, 0, &kLeNetConv2},
                      Case{false, 7, 1, 2, &kConvNetConv1},
                      Case{false, 32, 1, 2, &kConvNetConv1},
                      Case{true, 32, 1, 2, &kConvNetConv1}));

// Backward consumes the train cache (the layer input and a low-rank
// layer's middle activation), so a second backward needs a new train
// forward.
TEST(MatrixLayerCache, BackwardConsumesTheTrainCache) {
  Rng rng(41);
  const Conv2dSpec spec{3, 8, 5, 1, 0};
  std::vector<std::pair<std::unique_ptr<MatrixLayer>, Shape>> layers;
  layers.emplace_back(std::make_unique<Conv2dLayer>("conv", spec, rng),
                      Shape{2, 3, 12, 12});
  layers.emplace_back(std::make_unique<LowRankConv2d>("lrc", spec, 5, rng),
                      Shape{2, 3, 12, 12});
  layers.emplace_back(std::make_unique<DenseLayer>("fc", 6, 4, rng),
                      Shape{2, 6});
  layers.emplace_back(std::make_unique<LowRankDense>("lrd", 6, 4, 2, rng),
                      Shape{2, 6});
  for (auto& [layer, shape] : layers) {
    Tensor x(shape);
    x.fill_gaussian(rng, 0.0f, 1.0f);
    const Tensor dy(layer->forward(x, /*train=*/true).shape(), 1.0f);
    layer->backward(dy);
    EXPECT_THROW(layer->backward(dy), Error) << layer->name();
    layer->forward(x, /*train=*/true);
    EXPECT_NO_THROW(layer->backward(dy)) << layer->name();
  }
}

}  // namespace
}  // namespace gs::nn
