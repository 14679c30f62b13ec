// Layer interface of the gs::nn training stack.
//
// Layer is what every stage of a Network implements. The four weight layers
// (dense, conv and their factorised forms) also implement one contract,
// MatrixLayer (nn/matrix_layer.hpp): the layer's crossbar matrices in stage
// order, its bias and its conv spec. Code outside src/nn reads that contract
// and never casts to a concrete weight layer (gslint rule layer-dispatch);
// the stateless layers (activations, pooling, flatten, dropout) carry no
// matrix.
//
// Data layout conventions (fixed across the library):
//  * convolutional activations: rank-4, B×C×H×W;
//  * fully-connected activations: rank-2, B×features;
//  * FC weights: (in, out) — *inputs × outputs*, the orientation in which
//    the paper's crossbar mapper consumes matrices (DESIGN.md §1);
//  * conv weights: unrolled (C·kh·kw, F), same orientation.
//
// A train-mode forward() caches whatever backward() needs; backward() must
// be called at most once per such forward() and returns the gradient w.r.t.
// the layer input. An eval-mode forward (train == false) computes only the
// output and releases any cache held from an earlier train forward, so a
// following backward() throws "backward before forward".
#pragma once

#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace gs::nn {

/// A named view of one learnable parameter and its gradient accumulator.
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `train` toggles train-time behaviour: the
  /// backward caches, and sampling layers such as dropout.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Backpropagates: consumes dL/d(output), returns dL/d(input) and
  /// accumulates parameter gradients (+=, so callers zero them per step).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Backward for a layer whose input gradient nobody reads (the first
  /// layer of a training step): accumulates the parameter gradients
  /// backward() would and consumes its cache, but may skip dL/d(input).
  virtual void backward_params(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Learnable parameters; empty for stateless layers.
  virtual std::vector<ParamRef> params() { return {}; }

  /// Human-readable layer name (diagnostics / parameter naming).
  virtual std::string name() const = 0;

  /// Output shape for a given input shape (excluding the batch dim 0).
  virtual Shape output_shape(const Shape& input_shape) const = 0;
};

/// Zeroes all gradient tensors of `layer`.
void zero_grads(Layer& layer);

}  // namespace gs::nn
