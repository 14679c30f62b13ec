// Trains LeNet for a few SGD steps, dense and factorised (conv and low-rank
// conv layers both), and prints a checksum of each network's weights.
//
// The output must not depend on the thread-pool size: every parallel loop
// behind a training step (batch im2col/col2im, the GEMM row blocks, pooling
// planes) gives each index a disjoint output. pool_size_invariance.cmake
// runs this program under GS_NUM_THREADS=1 and =4 and compares the lines.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "core/models.hpp"
#include "data/batcher.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/trainer.hpp"

namespace {

std::uint64_t weights_fnv1a(gs::nn::Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const gs::nn::ParamRef& param : net.params()) {
    const float* data = param.value->data();
    for (std::size_t i = 0; i < param.value->numel(); ++i) {
      std::uint32_t bits;
      std::memcpy(&bits, &data[i], sizeof bits);
      h = (h ^ bits) * 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace

int main() {
  using namespace gs;
  Rng rng(1);
  nn::Network dense = core::build_lenet(rng);
  core::FactorizeSpec spec;
  spec.ranks = {{"conv1", 5}, {"conv2", 12}, {"fc1", 36}};
  spec.keep_dense = {core::lenet_classifier()};
  nn::Network lowrank = core::to_lowrank(dense, spec);

  const data::SyntheticMnist train_set(3, 100);
  for (auto [name, net] : {std::pair{"dense", &dense},
                           std::pair{"lowrank", &lowrank}}) {
    data::Batcher batcher(train_set, 25, Rng(4));
    nn::SgdOptimizer opt(nn::SgdConfig{0.01f, 0.9f, 5e-4f, false});
    nn::train(*net, opt, batcher, 4);
    std::printf("%s %016llx\n", name,
                static_cast<unsigned long long>(weights_fnv1a(*net)));
  }
  return 0;
}
