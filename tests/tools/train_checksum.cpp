// Trains LeNet for a few SGD steps, dense and factorised (conv and low-rank
// conv layers both), then a few group-Lasso steps of the factorised net (an
// SGD step followed by the proximal group shrink, as in connection
// deletion), and prints a checksum of each network's weights; the lasso line
// adds the wire census read from the cached group norms.
//
// The output must not depend on the thread-pool size: every parallel loop
// behind a training step (the GEMM row blocks and K panels, whose conv
// operands are packed straight from the images, batch col2im, pooling
// planes, the group-norm tile sweeps) gives each index a disjoint output. pool_size_invariance.cmake runs this program under
// GS_NUM_THREADS=1 and =4 and compares the lines.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "compress/group_lasso.hpp"
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

  compress::GroupLassoConfig lasso;
  lasso.lambda = 5.0;  // large enough that some groups die in 3 steps
  compress::GroupLassoRegularizer reg(lowrank, hw::TechnologyParams{}, lasso);
  data::Batcher batcher(train_set, 25, Rng(5));
  nn::SgdOptimizer opt(nn::SgdConfig{0.01f, 0.9f, 5e-4f, false});
  nn::train(lowrank, opt, batcher, 3, {}, [&](nn::Network&, std::size_t) {
    reg.apply_proximal(opt.learning_rate());
  });
  std::size_t wires = 0;
  for (const hw::WireCount& count : reg.census(1e-3)) wires += count.remaining;
  std::printf("lasso %016llx %zu\n",
              static_cast<unsigned long long>(weights_fnv1a(lowrank)), wires);
  return 0;
}
