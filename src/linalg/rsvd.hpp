// Randomized truncated SVD (Halko–Martinsson–Tropp).
//
// The exact Gram-eigen SVD costs O(min(N,M)³); rank clipping only ever needs the
// top-K components, and K shrinks fast. The randomized range finder gets
// those components in O(N·M·(K+p)) with a few power iterations — the
// practical choice when scaling this library beyond the paper's layer sizes
// (e.g. fc layers of thousands of units). Accuracy is probabilistic;
// property tests check the Eckart–Young gap against the exact SVD.
#pragma once

#include <cstdint>

#include "linalg/svd.hpp"

namespace gs::linalg {

/// Tuning knobs of the randomized range finder.
struct RsvdOptions {
  std::size_t oversample = 8;     ///< extra random probes beyond the rank
  std::size_t power_iterations = 2;  ///< subspace iterations (accuracy knob)
  std::uint64_t seed = 1;
};

/// Rank-`rank` truncated SVD of `a` (N×M): returns U (N×r), σ, V (M×r) with
/// r = min(rank, min(N, M)). Deterministic given options.seed.
SvdResult randomized_svd(const Tensor& a, std::size_t rank,
                         const RsvdOptions& options = {});

}  // namespace gs::linalg
