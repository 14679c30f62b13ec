#include "nn/lowrank.hpp"

#include "nn/init.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {

// ----------------------------------------------------------- factorised ----

FactorizedLayer::FactorizedLayer(std::string name, Tensor u, Tensor vt,
                                 Tensor bias)
    : MatrixLayer(std::move(name), std::move(bias)),
      u_(std::move(u)),
      vt_(std::move(vt)),
      u_grad_(u_.shape()),
      vt_grad_(vt_.shape()) {
  GS_CHECK_MSG(u_.rank() == 2 && vt_.rank() == 2 && u_.cols() == vt_.rows() &&
                   this->bias().dim(0) == vt_.cols(),
               this->name() << ": inconsistent factors");
}

Tensor FactorizedLayer::effective_weight() const { return matmul(u_, vt_); }

std::vector<ParamRef> FactorizedLayer::matrices() {
  return {{&u_, &u_grad_, name() + "_u"}, {&vt_, &vt_grad_, name() + "_v"}};
}

std::vector<ParamRef> FactorizedLayer::params() {
  return {{&u_, &u_grad_, name() + ".u"},
          {&vt_, &vt_grad_, name() + ".vt"},
          bias_param()};
}

void FactorizedLayer::set_factors(Tensor u, Tensor vt) {
  GS_CHECK_MSG(u.rank() == 2 && vt.rank() == 2 && u.cols() == vt.rows(),
               name() << ": inconsistent replacement factors");
  GS_CHECK_MSG(u.rows() == u_.rows() && vt.cols() == vt_.cols(),
               name() << ": replacement factors change layer dimensions");
  u_ = std::move(u);
  vt_ = std::move(vt);
  u_grad_ = Tensor(u_.shape());
  vt_grad_ = Tensor(vt_.shape());
  clear_compressed();  // the panels snapshot factors that no longer exist
}

// ---------------------------------------------------------------- dense ----

LowRankDense::LowRankDense(std::string name, std::size_t in_features,
                           std::size_t out_features, std::size_t rank,
                           Rng& rng)
    : FactorizedLayer(std::move(name), Tensor(Shape{in_features, rank}),
                      Tensor(Shape{rank, out_features}),
                      Tensor(Shape{out_features})) {
  xavier_uniform(mutable_u(), in_features, rank, rng);
  xavier_uniform(mutable_vt(), rank, out_features, rng);
}

LowRankDense::LowRankDense(std::string name, Tensor u, Tensor vt, Tensor bias)
    : FactorizedLayer(std::move(name), std::move(u), std::move(vt),
                      std::move(bias)) {}

// ----------------------------------------------------------------- conv ----

LowRankConv2d::LowRankConv2d(std::string name, Spec spec, std::size_t rank,
                             Rng& rng)
    : FactorizedLayer(
          std::move(name),
          Tensor(Shape{spec.in_channels * spec.kernel * spec.kernel, rank}),
          Tensor(Shape{rank, spec.out_channels}),
          Tensor(Shape{spec.out_channels})),
      spec_(spec) {
  he_normal(mutable_u(), full_rows(), rng);
  xavier_uniform(mutable_vt(), rank, spec.out_channels, rng);
}

LowRankConv2d::LowRankConv2d(std::string name, Spec spec, Tensor u, Tensor vt,
                             Tensor bias)
    : FactorizedLayer(std::move(name), std::move(u), std::move(vt),
                      std::move(bias)),
      spec_(spec) {
  GS_CHECK_MSG(full_rows() == spec.in_channels * spec.kernel * spec.kernel &&
                   full_cols() == spec.out_channels,
               this->name() << ": factors do not match the conv spec");
}

}  // namespace gs::nn
