// Symmetric eigendecomposition: Householder tridiagonalisation followed by
// implicit-shift QL with eigenvector accumulation (the EISPACK tred2/tql2
// pair, Golub & Van Loan §8.3), computed in double whatever the float Tensor
// interface.
//
// PCA/SVD need *all* eigenpairs of a symmetric PSD Gram/covariance matrix of
// up to ~1000². QL's absolute eigenvalue error is about n·ε·λ₀ (≈1e-13·λ₀ at
// n = 500), three orders below the SVD rank cutoff at 1e-10·λ₀ and far below
// the spectral clipping error of Eq. (3), so no caller needs the relative
// accuracy a Jacobi solver buys for tiny eigenvalues — at 10–20× its cost.
// The working matrix is stored transposed (each eigenvector ends as a
// contiguous row), so both stages stream contiguous memory.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace gs::linalg {

/// Result of eigen_sym: eigenvalues sorted in descending order; column j of
/// `eigenvectors` is the unit eigenvector for eigenvalues[j].
struct EigenResult {
  std::vector<double> eigenvalues;
  Tensor eigenvectors;  // n×n, column-major eigenvectors in a row-major tensor
};

/// Eigendecomposition of a symmetric matrix (symmetry is validated up to
/// `symmetry_tol`). Throws gs::Error on non-square, asymmetric or
/// non-finite input, and when the QL iteration cap is exhausted (arithmetic
/// that overflowed the double range).
EigenResult eigen_sym(const Tensor& a, double symmetry_tol = 1e-4);

/// Double-precision entry point: `a` is a row-major n×n buffer that is
/// assumed symmetric (not re-validated; the solver reads one triangle) and
/// must be finite. Same errors as eigen_sym. Used by SVD/PCA so
/// Gram/covariance matrices never round through float — a float round-trip
/// perturbs small eigenvalues by ~1e-7·λ₀, which √-amplifies into spurious
/// singular values.
EigenResult eigen_sym_double(std::vector<double> a, std::size_t n);

/// Reconstructs V·diag(λ)·Vᵀ — used by tests to validate the decomposition.
Tensor eigen_reconstruct(const EigenResult& e);

}  // namespace gs::linalg
