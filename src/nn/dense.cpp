#include "nn/dense.hpp"

#include "nn/init.hpp"

namespace gs::nn {

DenseLayer::DenseLayer(std::string name, std::size_t in_features,
                       std::size_t out_features, Rng& rng)
    : MatrixLayer(std::move(name), Tensor(Shape{out_features})),
      weight_(Shape{in_features, out_features}),
      weight_grad_(weight_.shape()) {
  xavier_uniform(weight_, in_features, out_features, rng);
}

std::vector<ParamRef> DenseLayer::matrices() {
  return {{&weight_, &weight_grad_, name()}};
}

std::vector<ParamRef> DenseLayer::params() {
  return {{&weight_, &weight_grad_, name() + ".weight"}, bias_param()};
}

}  // namespace gs::nn
