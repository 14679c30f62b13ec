#include "nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "nn/softmax.hpp"

namespace gs::nn {

StepStats train_step(Network& net, SgdOptimizer& opt, const data::Batch& batch,
                     const std::function<void(Network&)>& regularizer) {
  net.zero_grads();
  Tensor logits = net.forward(batch.images, /*train=*/true);
  const LossResult loss = softmax_cross_entropy(logits, batch.labels);
  GS_CHECK_MSG(std::isfinite(loss.loss),
               "training diverged (non-finite loss) — lower the learning "
               "rate or regularisation strength");
  net.backward_params(loss.grad_logits);
  if (regularizer) {
    regularizer(net);
  }
  opt.step(net.params());
  return {loss.loss,
          static_cast<double>(loss.correct) / static_cast<double>(batch.size())};
}

TrainStats train(Network& net, SgdOptimizer& opt, data::Batcher& batcher,
                 std::size_t iterations,
                 const std::function<void(Network&)>& regularizer,
                 const std::function<void(Network&, std::size_t)>&
                     step_callback) {
  TrainStats stats;
  double loss_acc = 0.0;
  double acc_acc = 0.0;
  for (std::size_t i = 1; i <= iterations; ++i) {
    const data::Batch batch = batcher.next();
    const StepStats s = train_step(net, opt, batch, regularizer);
    loss_acc += s.loss;
    acc_acc += s.accuracy;
    if (step_callback) {
      step_callback(net, i);
    }
  }
  stats.iterations = iterations;
  if (iterations > 0) {
    stats.mean_loss = loss_acc / static_cast<double>(iterations);
    stats.train_accuracy = acc_acc / static_cast<double>(iterations);
  }
  return stats;
}

double evaluate(Network& net, const data::Dataset& dataset,
                std::size_t max_samples, std::size_t batch_size) {
  return evaluate_forward(
      [&net](const Tensor& images) {
        return net.forward(images, /*train=*/false);
      },
      dataset, max_samples, batch_size);
}

double evaluate_forward(const std::function<Tensor(const Tensor&)>& forward,
                        const data::Dataset& dataset, std::size_t max_samples,
                        std::size_t batch_size) {
  const std::size_t total =
      max_samples == 0 ? dataset.size() : std::min(max_samples, dataset.size());
  GS_CHECK(total > 0 && batch_size > 0);
  std::size_t correct = 0;
  std::size_t done = 0;
  while (done < total) {
    const std::size_t take = std::min(batch_size, total - done);
    std::vector<std::size_t> indices(take);
    std::iota(indices.begin(), indices.end(), done);
    const data::Batch batch = data::make_batch(dataset, indices);
    const Tensor logits = forward(batch.images);
    GS_CHECK(logits.rank() == 2 && logits.rows() == take);
    const std::size_t classes = logits.cols();
    for (std::size_t b = 0; b < take; ++b) {
      const float* row = logits.data() + b * classes;
      const std::size_t pred = static_cast<std::size_t>(
          std::max_element(row, row + classes) - row);
      if (pred == batch.labels[b]) ++correct;
    }
    done += take;
  }
  return static_cast<double>(correct) / static_cast<double>(total);
}

}  // namespace gs::nn
