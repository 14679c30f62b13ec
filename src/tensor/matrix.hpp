// Dense matrix kernels on rank-2 Tensors.
//
// gemm() is the checked entry to linalg/gemm_kernel.hpp: every product, of
// any size, runs the one packed/cache-blocked/multithreaded SGEMM, so a row
// of C gets the same bits whether it is computed alone or inside a larger
// batch. Transposed operands are handled in the kernel's packing — no
// transposed copy is ever materialised. Operand ranks, inner dimensions, the
// output shape and aliasing are validated with GS_CHECK.
#pragma once

#include "tensor/tensor.hpp"

namespace gs {

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// op(X) = X or Xᵀ per the transpose flags. C must be preallocated with the
/// result shape; aliasing C with A or B is not allowed.
void gemm(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b,
          Tensor& c, float alpha = 1.0f, float beta = 0.0f);

/// Returns op(A)*op(B) as a fresh tensor.
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

/// Returns Aᵀ as a fresh tensor.
Tensor transposed(const Tensor& a);

/// Adds `row` (rank-1, length = a.cols()) to every row of `a` in place.
/// Implements bias addition over a batch.
void add_row_vector(Tensor& a, const Tensor& row);

/// Sums the rows of `a` into a rank-1 tensor of length a.cols().
/// Implements bias gradient accumulation over a batch.
Tensor sum_rows(const Tensor& a);

/// Frobenius inner product <A, B>, accumulated in double.
double frobenius_dot(const Tensor& a, const Tensor& b);

/// Identity matrix of size n.
Tensor identity(std::size_t n);

}  // namespace gs
