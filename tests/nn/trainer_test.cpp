#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "data/synthetic_mnist.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "nn/softmax.hpp"

namespace gs::nn {
namespace {

Network tiny_mlp(Rng& rng) {
  // 784 → 32 → 10 MLP: fast enough to actually learn inside a unit test.
  Network net;
  net.add(std::make_unique<FlattenLayer>("flatten"));
  net.add(std::make_unique<DenseLayer>("fc1", 784, 32, rng));
  net.add(std::make_unique<ReluLayer>("relu"));
  net.add(std::make_unique<DenseLayer>("fc2", 32, 10, rng));
  return net;
}

TEST(Trainer, TrainStepReturnsFiniteLoss) {
  Rng rng(1);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist ds(1, 64);
  data::Batcher batcher(ds, 16, Rng(2));
  SgdOptimizer opt({0.05f, 0.9f, 0.0f});
  const StepStats s = train_step(net, opt, batcher.next());
  EXPECT_GT(s.loss, 0.0);
  EXPECT_LT(s.loss, 10.0);
  EXPECT_GE(s.accuracy, 0.0);
  EXPECT_LE(s.accuracy, 1.0);
}

TEST(Trainer, LossDecreasesOverTraining) {
  Rng rng(3);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist ds(7, 200);
  data::Batcher batcher(ds, 20, Rng(4));
  SgdOptimizer opt({0.1f, 0.9f, 0.0f});
  const TrainStats first = train(net, opt, batcher, 20);
  const TrainStats later = train(net, opt, batcher, 60);
  EXPECT_LT(later.mean_loss, first.mean_loss);
}

TEST(Trainer, LearnsSyntheticMnistAboveChance) {
  Rng rng(5);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist train_set(11, 400);
  data::SyntheticMnist test_set(12, 100);
  data::Batcher batcher(train_set, 25, Rng(6));
  SgdOptimizer opt({0.05f, 0.9f, 1e-4f});
  train(net, opt, batcher, 400);
  const double acc = evaluate(net, test_set);
  EXPECT_GT(acc, 0.5) << "10-class task should be far above 10% chance";
}

TEST(Trainer, EvaluateCountsDeterministically) {
  Rng rng(7);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist ds(13, 50);
  const double a = evaluate(net, ds);
  const double b = evaluate(net, ds);
  EXPECT_EQ(a, b);
}

TEST(Trainer, EvaluateSubsetBound) {
  Rng rng(9);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist ds(13, 50);
  // max_samples larger than dataset clamps.
  EXPECT_NO_THROW(evaluate(net, ds, 500));
  EXPECT_NO_THROW(evaluate(net, ds, 10));
}

TEST(Trainer, StepCallbackFiresEveryIteration) {
  Rng rng(11);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist ds(1, 40);
  data::Batcher batcher(ds, 10, Rng(2));
  SgdOptimizer opt({0.01f, 0.0f, 0.0f});
  std::size_t calls = 0;
  std::size_t last = 0;
  train(net, opt, batcher, 7, {}, [&](Network&, std::size_t i) {
    ++calls;
    last = i;
  });
  EXPECT_EQ(calls, 7u);
  EXPECT_EQ(last, 7u);
}

TEST(Trainer, RegularizerHookInvoked) {
  Rng rng(13);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist ds(1, 40);
  data::Batcher batcher(ds, 10, Rng(2));
  SgdOptimizer opt({0.01f, 0.0f, 0.0f});
  int reg_calls = 0;
  train(net, opt, batcher, 5, [&](Network&) { ++reg_calls; });
  EXPECT_EQ(reg_calls, 5);
}

TEST(Trainer, DivergenceGuardThrows) {
  // An absurd learning rate must fail loudly, not silently produce NaN
  // weights (silent NaNs corrupt every downstream wire census).
  Rng rng(17);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist ds(1, 40);
  data::Batcher batcher(ds, 10, Rng(2));
  SgdOptimizer opt({1e30f, 0.9f, 0.0f});
  EXPECT_THROW(train(net, opt, batcher, 50), Error);
}

TEST(Trainer, ZeroIterationsIsNoop) {
  Rng rng(15);
  Network net = tiny_mlp(rng);
  data::SyntheticMnist ds(1, 40);
  data::Batcher batcher(ds, 10, Rng(2));
  SgdOptimizer opt({0.01f, 0.0f, 0.0f});
  const TrainStats stats = train(net, opt, batcher, 0);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_EQ(stats.mean_loss, 0.0);
}

// train_step skips the first layer's input gradient (Network::
// backward_params): the parameter gradients and the weights after the SGD
// update must be bitwise those of a step that runs the full backward. The
// nets start with a conv, a low-rank conv and a flatten (a layer with no
// parameters, which keeps the full backward).
TEST(Trainer, SkippedInputGradientLeavesGradsAndWeightsBitwise) {
  const auto conv_net = [](int first, Rng& rng) {
    Network net;
    const Conv2dSpec spec{1, 6, 5, 1, 2};
    if (first == 0) {
      net.add(std::make_unique<Conv2dLayer>("conv1", spec, rng));
    } else {
      net.add(std::make_unique<LowRankConv2d>("conv1", spec, 3, rng));
    }
    net.add(std::make_unique<ReluLayer>("relu"));
    net.add(std::make_unique<FlattenLayer>("flatten"));
    net.add(std::make_unique<DenseLayer>("fc", 6 * 28 * 28, 10, rng));
    return net;
  };
  data::SyntheticMnist ds(5, 64);
  for (int first = 0; first < 3; ++first) {
    const auto build = [&] {
      Rng rng(9);
      return first == 2 ? tiny_mlp(rng) : conv_net(first, rng);
    };
    Network skipped = build();
    Network full = build();
    const data::Batch batch = data::Batcher(ds, 7, Rng(3)).next();
    SgdOptimizer opt_skipped({0.05f, 0.9f, 1e-4f});
    SgdOptimizer opt_full({0.05f, 0.9f, 1e-4f});
    train_step(skipped, opt_skipped, batch);

    full.zero_grads();
    const Tensor logits = full.forward(batch.images, /*train=*/true);
    const Tensor dx =
        full.backward(softmax_cross_entropy(logits, batch.labels).grad_logits);
    EXPECT_EQ(dx.shape(), batch.images.shape());
    opt_full.step(full.params());

    const std::vector<ParamRef> a = skipped.params();
    const std::vector<ParamRef> b = full.params();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::size_t bytes = a[i].value->numel() * sizeof(float);
      EXPECT_EQ(std::memcmp(a[i].grad->data(), b[i].grad->data(), bytes), 0)
          << first << " " << a[i].name;
      EXPECT_EQ(std::memcmp(a[i].value->data(), b[i].value->data(), bytes), 0)
          << first << " " << a[i].name;
    }
  }
}

}  // namespace
}  // namespace gs::nn
