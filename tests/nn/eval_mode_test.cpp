// Eval-mode forwards keep no backward state.
//
// A forward with train == false computes only the output: every layer that
// caches for backward (conv, low-rank conv, dense, low-rank dense, ReLU,
// pooling, flatten) releases what an earlier train forward left, so a
// backward after it throws "backward before forward" instead of
// back-propagating through a stale batch. The output itself is bitwise the
// one a train forward computes.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"

namespace gs::nn {
namespace {

/// One of every caching layer kind: 2×1×12×12 in, 2×10 logits out.
Network small_cnn(Rng& rng) {
  Network net;
  net.add(std::make_unique<Conv2dLayer>("conv1", Conv2dSpec{1, 4, 3, 1, 0},
                                        rng));                        // 10×10
  net.add(std::make_unique<ReluLayer>("relu1"));
  net.add(std::make_unique<Pool2dLayer>("pool1", PoolMode::kMax, 2, 2));  // 5
  net.add(std::make_unique<LowRankConv2d>(
      "conv2", LowRankConv2d::Spec{4, 6, 3, 1, 0}, 2, rng));          // 3×3
  net.add(std::make_unique<Pool2dLayer>("pool2", PoolMode::kAvg, 2, 2));  // 2
  net.add(std::make_unique<FlattenLayer>("flat"));                    // 24
  net.add(std::make_unique<DenseLayer>("fc1", 24, 16, rng));
  net.add(std::make_unique<ReluLayer>("relu2"));
  net.add(std::make_unique<LowRankDense>("fc2", 16, 10, 3, rng));
  return net;
}

Tensor input_batch(Rng& rng) {
  Tensor x(Shape{2, 1, 12, 12});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  return x;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Runs the layers one by one and returns each layer's output.
std::vector<Tensor> layer_outputs(Network& net, const Tensor& x, bool train) {
  std::vector<Tensor> outs;
  Tensor h = x;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    h = net.layer(i).forward(h, train);
    outs.push_back(h);
  }
  return outs;
}

TEST(EvalMode, TrainForwardLeavesEveryLayerReadyForBackward) {
  // The control for the test below: after a train forward each layer's own
  // backward runs.
  Rng rng(1);
  Network net = small_cnn(rng);
  const std::vector<Tensor> outs = layer_outputs(net, input_batch(rng), true);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    EXPECT_NO_THROW(net.layer(i).backward(outs[i])) << net.layer(i).name();
  }
}

TEST(EvalMode, EvalForwardLeavesNoLayerBackwardState) {
  Rng rng(2);
  Network net = small_cnn(rng);
  const Tensor x = input_batch(rng);
  layer_outputs(net, x, /*train=*/true);
  const std::vector<Tensor> outs = layer_outputs(net, x, /*train=*/false);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    EXPECT_THROW(net.layer(i).backward(outs[i]), Error)
        << net.layer(i).name();
  }
}

TEST(EvalMode, CompressedEvalForwardLeavesNoBackwardState) {
  Rng rng(3);
  Network net = small_cnn(rng);
  ASSERT_GT(pack_compressed_inference(net), 0u);
  const Tensor x = input_batch(rng);
  layer_outputs(net, x, /*train=*/true);
  const std::vector<Tensor> outs = layer_outputs(net, x, /*train=*/false);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    EXPECT_THROW(net.layer(i).backward(outs[i]), Error)
        << net.layer(i).name();
  }
}

TEST(EvalMode, TrainEvalBackwardThrowsAndTrainRestores) {
  Rng rng(4);
  Network net = small_cnn(rng);
  const Tensor x = input_batch(rng);
  const Tensor grad(Shape{2, 10}, 1.0f);
  net.forward(x, /*train=*/true);
  net.forward(x, /*train=*/false);
  EXPECT_THROW(net.backward(grad), Error);
  net.forward(x, /*train=*/true);
  EXPECT_EQ(net.backward(grad).shape(), x.shape());
}

TEST(EvalMode, EvalLogitsBitwiseEqualTrainLogits) {
  Rng rng(5);
  Network net = small_cnn(rng);
  const Tensor x = input_batch(rng);
  const Tensor fresh_eval = net.forward(x, /*train=*/false);
  const Tensor train = net.forward(x, /*train=*/true);
  const Tensor eval_after_train = net.forward(x, /*train=*/false);
  EXPECT_TRUE(bitwise_equal(fresh_eval, train));
  EXPECT_TRUE(bitwise_equal(eval_after_train, train));
}

}  // namespace
}  // namespace gs::nn
