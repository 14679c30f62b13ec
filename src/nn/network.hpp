// Sequential network container.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/lowrank.hpp"

namespace gs::nn {

/// An ordered stack of layers ending (by convention) in a logits layer; the
/// softmax/cross-entropy head lives outside (see softmax.hpp).
class Network {
 public:
  /// Observer/perturbation hook around TRAIN-MODE forwards (eval forwards
  /// never invoke it). This is the seam hardware-in-the-loop training plugs
  /// into (runtime/noise_model.hpp): on_forward_begin may swap layer weights
  /// for a sampled chip realisation and pre-condition the input (DAC);
  /// on_layer_output may transform activations in place (ADC rounding) —
  /// the next layer consumes the transformed values while backward() is
  /// untouched, i.e. every hook transform is straight-through; and
  /// on_forward_end restores clean weights before backward runs.
  class ForwardHook {
   public:
    virtual ~ForwardHook() = default;
    /// Runs before the first layer; `input` is the working activation copy
    /// and may be mutated in place.
    virtual void on_forward_begin(Network& net, Tensor& input) {
      (void)net;
      (void)input;
    }
    /// Runs after layer `index` produced `x`; may mutate `x` in place.
    virtual void on_layer_output(Network& net, std::size_t index, Tensor& x) {
      (void)net;
      (void)index;
      (void)x;
    }
    /// Runs after the last layer (logits already produced).
    virtual void on_forward_end(Network& net) { (void)net; }
  };

  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  /// Appends a layer; returns a borrowed pointer for convenience.
  Layer* add(std::unique_ptr<Layer> layer);

  /// Forward pass through every layer.
  Tensor forward(const Tensor& input, bool train = false);

  /// Backward pass (reverse layer order); returns dL/d(network input).
  Tensor backward(const Tensor& grad_logits);

  /// The backward pass of a training step: the same parameter gradients as
  /// backward(), without dL/d(network input) (the first layer runs
  /// Layer::backward_params).
  void backward_params(const Tensor& grad_logits);

  /// All learnable parameters, in layer order.
  std::vector<ParamRef> params();

  /// Zeroes every gradient buffer.
  void zero_grads();

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;
  Layer* find(const std::string& name);
  const Layer* find(const std::string& name) const;

  /// Every layer implementing FactorizedLayer, in network order — the
  /// clipping/deletion targets.
  std::vector<FactorizedLayer*> factorized_layers();

  /// Total learnable scalar count.
  std::size_t parameter_count();

  /// Installs `hook` (borrowed; must outlive the network or be uninstalled
  /// with nullptr). Only train-mode forwards invoke it. Do not move the
  /// network while a hook is installed — hooks typically cache the network
  /// address and per-layer weight pointers.
  void set_forward_hook(ForwardHook* hook) { forward_hook_ = hook; }
  ForwardHook* forward_hook() const { return forward_hook_; }

 private:
  /// Runs backward through every layer but the first; returns the first
  /// layer's output gradient.
  Tensor backward_to_first(const Tensor& grad_logits);

  std::vector<std::unique_ptr<Layer>> layers_;
  ForwardHook* forward_hook_ = nullptr;
};

/// Packs block-compressed inference panels (linalg/compressed.hpp) on every
/// MatrixLayer of `net`; eval-mode forwards then run the compress-then-
/// multiply path over the live rows/columns group deletion left behind.
/// Returns the number of layers packed. The panels snapshot the CURRENT
/// weights — re-pack (or clear) after any weight mutation; training forwards
/// never consult them.
std::size_t pack_compressed_inference(Network& net, float tol = 0.0f);

/// Drops every layer's compressed panel; forwards fall back to the dense
/// path. Returns the number of layers cleared.
std::size_t clear_compressed_inference(Network& net);

}  // namespace gs::nn
