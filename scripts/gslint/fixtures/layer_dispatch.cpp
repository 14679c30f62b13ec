// gslint-fixture: runtime/layer_dispatch.cpp
// layer-dispatch fires on a dynamic_cast to a concrete weight layer outside
// src/nn: consumers read the nn::MatrixLayer contract. A cast to the
// contract itself, or to a non-weight layer, is fine; so is prose such as
// dynamic_cast<nn::DenseLayer*> in this comment.
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "nn/pool2d.hpp"

namespace gs::runtime {

std::size_t count(nn::Layer& layer) {
  std::size_t n = 0;
  if (dynamic_cast<nn::DenseLayer*>(&layer)) ++n;  // EXPECT: 15 layer-dispatch
  if (dynamic_cast<const nn::Conv2dLayer*>(&layer)) ++n;  // EXPECT: 16 layer-dispatch
  if (dynamic_cast<gs::nn::LowRankDense*>(&layer)) ++n;  // EXPECT: 17 layer-dispatch
  auto* lc = dynamic_cast<  // EXPECT: 18 layer-dispatch
      nn::LowRankConv2d*>(&layer);
  if (lc != nullptr) ++n;
  if (dynamic_cast<nn::MatrixLayer*>(&layer)) ++n;
  if (dynamic_cast<nn::Pool2dLayer*>(&layer)) ++n;
  const char* prose = "dynamic_cast<nn::DenseLayer*>";
  (void)prose;
  return n;
}

}  // namespace gs::runtime
