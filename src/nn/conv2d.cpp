#include "nn/conv2d.hpp"

#include "nn/init.hpp"

namespace gs::nn {

Conv2dLayer::Conv2dLayer(std::string name, Conv2dSpec spec, Rng& rng)
    : MatrixLayer(std::move(name), Tensor(Shape{spec.out_channels})),
      spec_(spec),
      weight_(Shape{spec.in_channels * spec.kernel * spec.kernel,
                    spec.out_channels}),
      weight_grad_(weight_.shape()) {
  GS_CHECK(spec.stride > 0);
  he_normal(weight_, weight_.rows(), rng);
}

std::vector<ParamRef> Conv2dLayer::matrices() {
  return {{&weight_, &weight_grad_, name()}};
}

std::vector<ParamRef> Conv2dLayer::params() {
  return {{&weight_, &weight_grad_, name() + ".weight"}, bias_param()};
}

}  // namespace gs::nn
