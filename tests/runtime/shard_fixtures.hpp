// Fixtures shared by the ShardedServer suites: a one-layer 64→10 network,
// seeded 64-element samples, and a stuck-at fault configuration heavy
// enough that one probe quarantines the replica it is injected into.
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "hw/fault_model.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "tensor/tensor.hpp"

namespace gs::runtime::fixtures {

inline nn::Network small_net(std::uint64_t seed = 3) {
  Rng rng(seed);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", 64, 10, rng));
  return net;
}

inline Tensor random_sample(std::uint64_t seed) {
  Tensor t(Shape{64});
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

inline hw::FaultModelConfig heavy_faults(std::uint64_t seed = 5) {
  hw::FaultModelConfig faults;
  faults.stuck_rate = 0.2;
  faults.stuck_at_gmax_fraction = 1.0;
  faults.seed = seed;
  return faults;
}

}  // namespace gs::runtime::fixtures
