// Internal helper: double-precision Gram matrices of float tensors.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace gs::linalg::detail {

/// Returns AᵀA (right=true, M×M result) or A·Aᵀ (right=false, N×N result),
/// row-major, accumulated entirely in double. Keeping the Gram in double is
/// what lets SVD/PCA resolve singular-value ratios below the float epsilon.
std::vector<double> gram_double(const Tensor& a, bool right);

/// <a, b> over `n` contiguous floats, accumulated in double via a fixed
/// 8-lane interleaved order (deterministic; differs from a strictly
/// sequential sum only at double epsilon). Used by the Gram tiles.
double dot_float_double(const float* a, const float* b, std::size_t n);

}  // namespace gs::linalg::detail
