// Differential test of the shared conv lowering (nn/matrix_layer.hpp).
//
// Conv2dLayer and LowRankConv2d run one whole-batch shell: batch im2col →
// matrix core → bias → re-tile, and re-tile dY → core backward → batch
// col2im. The reference below is a test-local copy of the per-sample loops
// each layer ran before (an image copy, a fresh im2col tensor, the layer's
// own GEMM calls, an inline transpose). Outputs and input gradients must
// match it BITWISE — in train mode, in eval mode across the eval block
// boundary, and on the compressed eval path. Parameter gradients are one
// product with K = B·oh·ow in the layer, so they match a batched reference
// (one GEMM over every sample's rows) bitwise and the per-sample sums only
// to rounding.
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

// Re-ordering the ≤ 432-term float sums of these shapes moves a gradient by
// a few ulps of its largest entry; 1e-5 leaves an order of magnitude spare.
constexpr float kSumOrderTolerance = 1e-5f;

// The input of every case: 3 channels of 12×12.
const Shape kSampleShape{3, 12, 12};

// How a case sizes its batch: its own `batch`, or from the eval block of its
// layer's geometry — exactly one block, or one block plus one sample.
enum class Sizing { kFixed, kOneBlock, kOneBlockPlusOne };

struct Case {
  bool lowrank;
  std::size_t batch, stride, pad;
  Sizing sizing = Sizing::kFixed;

  Conv2dSpec spec() const { return Conv2dSpec{3, 8, 5, stride, pad}; }

  std::size_t resolved_batch() const {
    if (sizing == Sizing::kFixed) return batch;
    const ConvGeometry g = spec().geometry(kSampleShape);
    const std::size_t block = MatrixLayer::kEvalPatchFloats /
                              (g.out_height() * g.out_width() * g.patch_size());
    return sizing == Sizing::kOneBlock ? block : block + 1;
  }
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << (c.lowrank ? "lowrank" : "conv") << "_b" << c.resolved_batch()
      << "_s" << c.stride << "_p" << c.pad;
}

class ConvLowering : public ::testing::TestWithParam<Case> {
 protected:
  // 3 channels of 12×12, 5×5 kernels, 8 filters: 144 patches × 75 × 8 at
  // stride 1 takes the packed GEMM kernel, the strided shapes the direct
  // loop — both lowerings see both.
  std::unique_ptr<MatrixLayer> make_layer(Rng& rng) const {
    const Case& c = GetParam();
    const Conv2dSpec spec = c.spec();
    if (c.lowrank) return std::make_unique<LowRankConv2d>("lrc", spec, 5, rng);
    return std::make_unique<Conv2dLayer>("conv", spec, rng);
  }

  Tensor input(Rng& rng) const {
    Shape shape{GetParam().resolved_batch()};
    shape.insert(shape.end(), kSampleShape.begin(), kSampleShape.end());
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

// Eval forwards whose batch spans several eval blocks. Train forwards lower
// the whole batch at once, so these batches add nothing there; their
// low-rank backward would also compare the packed GEMM kernel against the
// per-sample reference's direct loop, which rounds a transposed product
// differently.
class ConvLoweringEvalBlocks : public ConvLowering {};

TEST_P(ConvLoweringEvalBlocks, EvalForwardMatchesPerSampleLoopsBitwise) {
  expect_eval_matches();
}

TEST_P(ConvLoweringEvalBlocks, CompressedEvalMatchesPerSampleLoopsBitwise) {
  expect_compressed_eval_matches();
}

// 24 samples per eval block at s1_p2, 54 at s1_p0.
INSTANTIATE_TEST_SUITE_P(
    Blocks, ConvLoweringEvalBlocks,
    ::testing::Values(Case{false, 0, 1, 2, Sizing::kOneBlock},
                      Case{false, 0, 1, 2, Sizing::kOneBlockPlusOne},
                      Case{false, 100, 1, 2},
                      Case{true, 0, 1, 0, Sizing::kOneBlock},
                      Case{true, 0, 1, 0, Sizing::kOneBlockPlusOne},
                      Case{true, 100, 1, 0}));

// Backward frees each stage input once its dW is done (a conv layer's is the
// whole-batch patch matrix), so a second backward needs a new train forward.
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
