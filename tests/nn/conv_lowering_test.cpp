// Differential test of the shared conv lowering (nn/matrix_layer.hpp).
//
// Conv2dLayer and LowRankConv2d run one per-sample shell: pointer-form
// im2col → matrix core → bias → re-tile, and re-tile dY → core backward →
// col2im. The reference below is a test-local copy of the per-sample loops
// each layer ran before they shared that shell (an image copy, a fresh
// im2col tensor, the layer's own GEMM calls, an inline transpose). Outputs,
// input gradients and parameter gradients must match it BITWISE — in train
// mode and on the compressed eval path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "linalg/compressed.hpp"
#include "nn/conv2d.hpp"
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
    Tensor dy(Shape{oh * ow, f});
    Tensor dcols(Shape{oh * ow, g.patch_size()});
    for (std::size_t b = 0; b < batch; ++b) {
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

struct Case {
  bool lowrank;
  std::size_t batch, stride, pad;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << (c.lowrank ? "lowrank" : "conv") << "_b" << c.batch << "_s"
      << c.stride << "_p" << c.pad;
}

class ConvLowering : public ::testing::TestWithParam<Case> {
 protected:
  // 3 channels of 12×12, 5×5 kernels, 8 filters: 144 patches × 75 × 8 at
  // stride 1 takes the packed GEMM kernel, the strided shapes the direct
  // loop — both lowerings see both.
  std::unique_ptr<MatrixLayer> make_layer(Rng& rng) const {
    const Case& c = GetParam();
    const Conv2dSpec spec{3, 8, 5, c.stride, c.pad};
    if (c.lowrank) return std::make_unique<LowRankConv2d>("lrc", spec, 5, rng);
    return std::make_unique<Conv2dLayer>("conv", spec, rng);
  }

  Tensor input(Rng& rng) const {
    Tensor x(Shape{GetParam().batch, 3, 12, 12});
    x.fill_gaussian(rng, 0.0f, 1.0f);
    return x;
  }
};

TEST_P(ConvLowering, TrainForwardAndBackwardMatchPerSampleLoopsBitwise) {
  Rng rng(17);
  auto layer = make_layer(rng);
  layer->bias().fill_gaussian(rng, 0.0f, 0.1f);
  Reference ref = reference_of(*layer);
  const Tensor x = input(rng);

  const Tensor y = layer->forward(x, /*train=*/true);
  EXPECT_TRUE(bitwise_equal(y, ref.forward(x, true)));

  Tensor dy(y.shape());
  dy.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_TRUE(bitwise_equal(layer->backward(dy), ref.backward(dy)));
  const std::vector<ParamRef> ms = layer->matrices();
  for (std::size_t s = 0; s < ms.size(); ++s) {
    EXPECT_TRUE(bitwise_equal(*ms[s].grad, ref.grads[s])) << ms[s].name;
  }
  const std::vector<ParamRef> params = layer->params();
  EXPECT_TRUE(bitwise_equal(*params.back().grad, ref.bias_grad));
}

TEST_P(ConvLowering, EvalForwardMatchesPerSampleLoopsBitwise) {
  Rng rng(23);
  auto layer = make_layer(rng);
  Reference ref = reference_of(*layer);
  const Tensor x = input(rng);
  EXPECT_TRUE(bitwise_equal(layer->forward(x, false), ref.forward(x, false)));
}

TEST_P(ConvLowering, CompressedEvalMatchesPerSampleLoopsBitwise) {
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
  EXPECT_TRUE(bitwise_equal(layer->forward(x, false), ref.forward(x, false)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvLowering,
    ::testing::Values(Case{false, 1, 1, 0}, Case{false, 3, 1, 2},
                      Case{false, 3, 2, 0}, Case{false, 1, 2, 2},
                      Case{true, 1, 1, 0}, Case{true, 3, 1, 2},
                      Case{true, 3, 2, 0}, Case{true, 1, 2, 2}));

}  // namespace
}  // namespace gs::nn
