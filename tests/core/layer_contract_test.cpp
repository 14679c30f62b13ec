// The weight-layer contract across its consumers: for each of the four
// weight-layer kinds, compile()'s stages, build_ncs_report's matrices, the
// group-Lasso targets and pack_compressed_inference all see exactly the
// layer's matrices() list — names, shapes and order.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "compress/group_lasso.hpp"
#include "core/ncs_report.hpp"
#include "hw/technology.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "nn/network.hpp"
#include "runtime/program.hpp"

namespace gs {
namespace {

struct Kind {
  std::string label;
  std::function<std::unique_ptr<nn::MatrixLayer>(Rng&)> make;
  Shape sample_shape;
  std::vector<std::string> names;  ///< expected matrices() names
};

void PrintTo(const Kind& k, std::ostream* os) { *os << k.label; }

// Every matrix spans more than one 64×64 crossbar in at least one dimension,
// so group Lasso keeps it even with skip_single_crossbar.
std::vector<Kind> kinds() {
  return {
      {"dense",
       [](Rng& rng) {
         return std::make_unique<nn::DenseLayer>("fc", 150, 70, rng);
       },
       Shape{150}, {"fc"}},
      {"lowrank_dense",
       [](Rng& rng) {
         return std::make_unique<nn::LowRankDense>("fc", 150, 70, 9, rng);
       },
       Shape{150}, {"fc_u", "fc_v"}},
      {"conv",
       [](Rng& rng) {
         return std::make_unique<nn::Conv2dLayer>(
             "conv", nn::Conv2dSpec{3, 70, 5, 1, 0}, rng);
       },
       Shape{3, 8, 8}, {"conv"}},
      {"lowrank_conv",
       [](Rng& rng) {
         return std::make_unique<nn::LowRankConv2d>(
             "conv", nn::Conv2dSpec{3, 70, 5, 1, 0}, 9, rng);
       },
       Shape{3, 8, 8}, {"conv_u", "conv_v"}},
  };
}

class LayerContract : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    Rng rng(5);
    net_.add(GetParam().make(rng));
    layer_ = dynamic_cast<nn::MatrixLayer*>(&net_.layer(0));
    ASSERT_NE(layer_, nullptr);
    matrices_ = layer_->matrices();
  }

  nn::Network net_;
  nn::MatrixLayer* layer_ = nullptr;
  std::vector<nn::ParamRef> matrices_;
};

TEST_P(LayerContract, MatricesNamedInStageOrder) {
  std::vector<std::string> names;
  for (const nn::ParamRef& m : matrices_) names.push_back(m.name);
  EXPECT_EQ(names, GetParam().names);
  EXPECT_EQ(layer_->conv_spec() != nullptr,
            GetParam().sample_shape.size() == 3);
}

TEST_P(LayerContract, CompileLowersOneStagePerMatrix) {
  const runtime::CrossbarProgram program =
      runtime::compile(net_, GetParam().sample_shape);
  ASSERT_EQ(program.steps().size(), 1u);
  const runtime::Step& step = program.steps()[0];
  EXPECT_EQ(step.kind, layer_->conv_spec() != nullptr
                           ? runtime::Step::Kind::kConv
                           : runtime::Step::Kind::kLinear);
  ASSERT_EQ(step.stages.size(), matrices_.size());
  for (std::size_t s = 0; s < matrices_.size(); ++s) {
    EXPECT_EQ(step.stages[s].name, matrices_[s].name);
    EXPECT_EQ(step.stages[s].grid.rows, matrices_[s].value->rows());
    EXPECT_EQ(step.stages[s].grid.cols, matrices_[s].value->cols());
  }
  EXPECT_TRUE(step.bias.same_shape(layer_->bias()));
}

TEST_P(LayerContract, NcsReportListsEveryMatrix) {
  const core::NcsReport report =
      core::build_ncs_report(net_, hw::paper_technology());
  ASSERT_EQ(report.matrices.size(), matrices_.size());
  for (std::size_t s = 0; s < matrices_.size(); ++s) {
    EXPECT_EQ(report.matrices[s].name, matrices_[s].name);
    EXPECT_EQ(report.matrices[s].rows, matrices_[s].value->rows());
    EXPECT_EQ(report.matrices[s].cols, matrices_[s].value->cols());
  }
  // The dense baseline is one fan-in × fan-out array.
  EXPECT_EQ(report.dense_baseline_cells,
            matrices_.front().value->rows() * matrices_.back().value->cols());
}

TEST_P(LayerContract, GroupLassoTargetsEveryMatrix) {
  const compress::GroupLassoRegularizer reg(net_, hw::paper_technology(), {});
  ASSERT_EQ(reg.targets().size(), matrices_.size());
  for (std::size_t s = 0; s < matrices_.size(); ++s) {
    EXPECT_EQ(reg.targets()[s].name, matrices_[s].name);
    EXPECT_EQ(reg.targets()[s].value, matrices_[s].value);
    EXPECT_EQ(reg.targets()[s].grad, matrices_[s].grad);
  }
}

TEST_P(LayerContract, PackCompressedInferenceCountsTheLayer) {
  EXPECT_EQ(nn::pack_compressed_inference(net_), 1u);
  EXPECT_TRUE(layer_->compressed());
  EXPECT_EQ(nn::clear_compressed_inference(net_), 1u);
  EXPECT_FALSE(layer_->compressed());
}

INSTANTIATE_TEST_SUITE_P(Kinds, LayerContract, ::testing::ValuesIn(kinds()));

}  // namespace
}  // namespace gs
