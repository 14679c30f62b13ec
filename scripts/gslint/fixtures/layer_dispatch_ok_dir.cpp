// gslint-fixture: core/models.cpp
// to_lowrank constructs the factorised layer matching each source layer, so
// core/models.cpp may dispatch on the concrete weight-layer types (as may
// src/nn itself).
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace gs::core {

bool is_conv(const nn::Layer& layer) {
  return dynamic_cast<const nn::Conv2dLayer*>(&layer) != nullptr &&
         dynamic_cast<const nn::DenseLayer*>(&layer) == nullptr;
}

}  // namespace gs::core
