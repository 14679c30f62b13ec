#include "nn/network.hpp"

#include "common/check.hpp"

namespace gs::nn {

Layer* Network::add(std::unique_ptr<Layer> layer) {
  GS_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

Tensor Network::forward(const Tensor& input, bool train) {
  GS_CHECK_MSG(!layers_.empty(), "forward on empty network");
  ForwardHook* hook = train ? forward_hook_ : nullptr;
  Tensor x = input;
  if (hook) hook->on_forward_begin(*this, x);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x, train);
    if (hook) hook->on_layer_output(*this, i, x);
  }
  if (hook) hook->on_forward_end(*this);
  return x;
}

Tensor Network::backward_to_first(const Tensor& grad_logits) {
  GS_CHECK(!layers_.empty());
  Tensor g = grad_logits;
  for (std::size_t i = layers_.size(); i-- > 1;) g = layers_[i]->backward(g);
  return g;
}

Tensor Network::backward(const Tensor& grad_logits) {
  return layers_.front()->backward(backward_to_first(grad_logits));
}

void Network::backward_params(const Tensor& grad_logits) {
  layers_.front()->backward_params(backward_to_first(grad_logits));
}

std::vector<ParamRef> Network::params() {
  std::vector<ParamRef> all;
  for (auto& layer : layers_) {
    for (const auto& p : layer->params()) {
      all.push_back(p);
    }
  }
  return all;
}

void Network::zero_grads() {
  for (auto& layer : layers_) {
    gs::nn::zero_grads(*layer);
  }
}

Layer& Network::layer(std::size_t i) {
  GS_CHECK_MSG(i < layers_.size(), "layer index " << i << " out of range");
  return *layers_[i];
}

const Layer& Network::layer(std::size_t i) const {
  GS_CHECK_MSG(i < layers_.size(), "layer index " << i << " out of range");
  return *layers_[i];
}

Layer* Network::find(const std::string& name) {
  for (auto& layer : layers_) {
    if (layer->name() == name) return layer.get();
  }
  return nullptr;
}

const Layer* Network::find(const std::string& name) const {
  for (const auto& layer : layers_) {
    if (layer->name() == name) return layer.get();
  }
  return nullptr;
}

std::vector<FactorizedLayer*> Network::factorized_layers() {
  std::vector<FactorizedLayer*> out;
  for (auto& layer : layers_) {
    if (auto* f = dynamic_cast<FactorizedLayer*>(layer.get())) {
      out.push_back(f);
    }
  }
  return out;
}

std::size_t Network::parameter_count() {
  std::size_t n = 0;
  for (const auto& p : params()) {
    n += p.value->numel();
  }
  return n;
}

std::size_t pack_compressed_inference(Network& net, float tol) {
  std::size_t packed = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* m = dynamic_cast<MatrixLayer*>(&net.layer(i))) {
      m->pack_compressed(tol);
      ++packed;
    }
  }
  return packed;
}

std::size_t clear_compressed_inference(Network& net) {
  std::size_t cleared = 0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (auto* m = dynamic_cast<MatrixLayer*>(&net.layer(i))) {
      m->clear_compressed();
      ++cleared;
    }
  }
  return cleared;
}

}  // namespace gs::nn
