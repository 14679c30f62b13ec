// The weight-layer contract: a layer whose weights are one chain of crossbar
// matrices, and the one lowering every such layer runs.
//
// In the paper a layer is one weight matrix W (in, out) on crossbars; rank
// clipping turns it into the two chained arrays U (in, K) · Vᵀ (K, out)
// (§3.1, Fig. 4), and group connection deletion prunes rows and columns of
// whichever matrices exist (§3.2). MatrixLayer records exactly that: the
// four weight layers (DenseLayer, Conv2dLayer, LowRankDense, LowRankConv2d)
// differ only in which matrices() they return and whether they carry a
// conv_spec(). Every consumer that maps, regularises, freezes, reports or
// perturbs crossbars — runtime::compile, core::build_ncs_report, the
// group-Lasso targets, the noise model — loops over matrices() instead of
// asking which concrete class it holds.
//
// The lowering lives here once. The matrix core multiplies a row-major batch
// through the chain (x·M0, then ·M1) and adds the bias; its backward
// accumulates dMs += inputᵀ·d and propagates d·Msᵀ stage by stage, last
// stage first. Fully-connected layers run the core on the (B, in) batch.
// Conv layers run it per sample: forward im2col's the sample straight from
// the input batch into a patch matrix, runs the core and re-tiles the
// patch-major (oh·ow, F) result into channel-major F×oh×ow; backward
// re-tiles dY, runs the core backward and col2im's dcols into the input
// gradient. runtime::Executor lowers conv steps with the same im2col and
// re-tile helpers (tensor/im2col.hpp).
#pragma once

#include <vector>

#include "linalg/compressed.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace gs::nn {

/// Convolution hyper-parameters.
struct Conv2dSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 0;   ///< square kernels (paper networks use 5×5)
  std::size_t stride = 1;
  std::size_t pad = 0;

  /// Geometry of this convolution over one C×H×W input; throws when the
  /// shape is not rank 3, its channel count differs or the window never
  /// fits.
  ConvGeometry geometry(const Shape& chw) const;
};

/// A layer realised as a chain of one or two crossbar matrices plus a bias.
class MatrixLayer : public Layer {
 public:
  /// The crossbar matrices in stage order with their gradient accumulators:
  /// {W} named name() for dense and conv layers, {U, Vᵀ} named name()+"_u"
  /// and name()+"_v" for factorised ones.
  virtual std::vector<ParamRef> matrices() = 0;
  /// Read-only form for holders of a const layer: do not write through it.
  std::vector<ParamRef> matrices() const {
    return const_cast<MatrixLayer*>(this)->matrices();
  }
  /// Convolution hyper-parameters; null for fully-connected layers.
  virtual const Conv2dSpec* conv_spec() const { return nullptr; }

  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  /// Builds a block-compressed inference panel (linalg/compressed.hpp) of
  /// every matrix from the CURRENT weights: eval-mode forwards then multiply
  /// the packed live-rows × live-cols panels instead of the padded matrices.
  /// The panels are a snapshot — mutate the weights and they go stale;
  /// callers re-pack or clear_compressed(). Training forwards and backwards
  /// never use them.
  void pack_compressed(float tol = 0.0f);
  void clear_compressed();
  bool compressed() const { return !panels_.empty(); }

  Tensor forward(const Tensor& input, bool train) final;
  Tensor backward(const Tensor& grad_output) final;
  std::string name() const final { return name_; }
  Shape output_shape(const Shape& input_shape) const final;

 protected:
  MatrixLayer(std::string name, Tensor bias);

  /// The bias entry of params().
  ParamRef bias_param() { return {&bias_, &bias_grad_, name_ + ".bias"}; }

 private:
  /// Matrix core: x·M0(·M1) + bias. A train forward appends every stage
  /// input after the first to cache_ (the caller caches x itself).
  Tensor chain_forward(const std::vector<ParamRef>& ms, const Tensor& x,
                       bool train);
  /// Core backward: db += Σ rows d, then per stage (last first)
  /// dMs += inputs[s]ᵀ·d and d = d·Msᵀ; returns d(x).
  Tensor chain_backward(const std::vector<ParamRef>& ms, const Tensor& dy,
                        const Tensor* inputs);

  std::string name_;
  Tensor bias_;  // (out)
  Tensor bias_grad_;
  std::vector<linalg::CompressedPanel> panels_;  // eval-only, one per matrix

  // Train-forward caches for backward; eval forwards release them. cache_
  // holds each sample's stage inputs, sample-major (fully-connected layers
  // are one "sample": the whole batch).
  std::vector<Tensor> cache_;
  ConvGeometry geometry_;  // conv layers: geometry of the last forward
};

}  // namespace gs::nn
