// Tests of the symmetric eigensolver (Householder tridiagonalisation +
// implicit QL). Besides the algebraic invariants, a differential suite pins
// it against a test-local copy of the cyclic Jacobi solver this library
// used before (below), on random, repeated, rank-deficient and graded
// spectra and on the rank decisions clip_to_error derives from them.
#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "linalg/gram.hpp"
#include "linalg/lra.hpp"
#include "linalg/pca.hpp"
#include "tensor/matrix.hpp"

namespace gs::linalg {
namespace {

Tensor random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor a(Shape{n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const float v = static_cast<float>(rng.gaussian());
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  return a;
}

Tensor random_psd(std::size_t n, std::size_t inner, std::uint64_t seed) {
  Rng rng(seed);
  Tensor b(Shape{inner, n});
  b.fill_gaussian(rng, 0.0f, 1.0f);
  return matmul(b, b, /*ta=*/true, /*tb=*/false);
}

TEST(Eigen, DiagonalMatrixEigenvaluesSorted) {
  Tensor d(Shape{3, 3});
  d.at(0, 0) = 1.0f;
  d.at(1, 1) = 5.0f;
  d.at(2, 2) = 3.0f;
  const EigenResult e = eigen_sym(d);
  EXPECT_NEAR(e.eigenvalues[0], 5.0, 1e-10);
  EXPECT_NEAR(e.eigenvalues[1], 3.0, 1e-10);
  EXPECT_NEAR(e.eigenvalues[2], 1.0, 1e-10);
}

TEST(Eigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Tensor a = Tensor::from_rows({{2, 1}, {1, 2}});
  const EigenResult e = eigen_sym(a);
  EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-8);
  EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-8);
  // Eigenvector of 3 is (1,1)/√2 up to sign.
  const float v0 = e.eigenvectors.at(0, 0);
  const float v1 = e.eigenvectors.at(1, 0);
  EXPECT_NEAR(std::fabs(v0), std::sqrt(0.5), 1e-5);
  EXPECT_NEAR(v0, v1, 1e-5);
}

TEST(Eigen, RejectsNonSquare) {
  EXPECT_THROW(eigen_sym(Tensor(Shape{2, 3})), Error);
}

TEST(Eigen, RejectsAsymmetric) {
  Tensor a = Tensor::from_rows({{1, 2}, {0, 1}});
  EXPECT_THROW(eigen_sym(a), Error);
}

TEST(Eigen, IdentityHasUnitEigenvalues) {
  const EigenResult e = eigen_sym(identity(5));
  for (double lambda : e.eigenvalues) {
    EXPECT_NEAR(lambda, 1.0, 1e-10);
  }
}

/// Property sweep over sizes: reconstruction, orthonormality, trace and
/// definiteness invariants.
class EigenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSweep, ReconstructsInput) {
  const std::size_t n = GetParam();
  Tensor a = random_symmetric(n, 42 + n);
  const EigenResult e = eigen_sym(a);
  EXPECT_LE(max_abs_diff(eigen_reconstruct(e), a), 1e-3f);
}

TEST_P(EigenSweep, EigenvectorsOrthonormal) {
  const std::size_t n = GetParam();
  const EigenResult e = eigen_sym(random_symmetric(n, 7 + n));
  Tensor vtv = matmul(e.eigenvectors, e.eigenvectors, /*ta=*/true);
  EXPECT_LE(max_abs_diff(vtv, identity(n)), 1e-4f);
}

TEST_P(EigenSweep, TracePreserved) {
  const std::size_t n = GetParam();
  Tensor a = random_symmetric(n, 11 + n);
  const EigenResult e = eigen_sym(a);
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a.at(i, i);
  double sum = 0.0;
  for (double lambda : e.eigenvalues) sum += lambda;
  EXPECT_NEAR(sum, trace, 1e-3);
}

TEST_P(EigenSweep, PsdMatrixHasNonnegativeEigenvalues) {
  const std::size_t n = GetParam();
  const EigenResult e = eigen_sym(random_psd(n, n + 3, 13 + n));
  for (double lambda : e.eigenvalues) {
    EXPECT_GE(lambda, -1e-4);
  }
}

TEST_P(EigenSweep, EigenpairsSatisfyDefinition) {
  const std::size_t n = GetParam();
  Tensor a = random_symmetric(n, 23 + n);
  const EigenResult e = eigen_sym(a);
  // A·v_j = λ_j·v_j for every pair.
  for (std::size_t j = 0; j < n; ++j) {
    Tensor v(Shape{n});
    for (std::size_t i = 0; i < n; ++i) v[i] = e.eigenvectors.at(i, j);
    const Tensor av = matmul(a, v.reshaped({n, 1}));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av.at(i, 0), e.eigenvalues[j] * v[i], 2e-3)
          << "pair " << j << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 10, 20,
                                                        50, 128, 500));

TEST(Eigen, RankDeficientMatrixHasZeroEigenvalues) {
  // Rank-2 PSD 5×5 matrix: exactly three (near-)zero eigenvalues.
  Tensor a = random_psd(5, 2, 99);
  const EigenResult e = eigen_sym(a);
  EXPECT_GT(e.eigenvalues[0], 1e-3);
  EXPECT_GT(e.eigenvalues[1], 1e-3);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_NEAR(e.eigenvalues[i], 0.0, 1e-3);
  }
}

TEST(Eigen, ZeroMatrix) {
  const EigenResult e = eigen_sym(Tensor(Shape{4, 4}));
  for (double lambda : e.eigenvalues) {
    EXPECT_EQ(lambda, 0.0);
  }
}

TEST(Eigen, RejectsNonFiniteInput) {
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    Tensor a = identity(3);
    a.at(1, 2) = a.at(2, 1) = bad;
    EXPECT_THROW(eigen_sym(a), Error);
  }
  std::vector<double> b{1.0, 0.0, 0.0, std::nan("")};
  EXPECT_THROW(eigen_sym_double(b, 2), Error);
  b[3] = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(eigen_sym_double(b, 2), Error);
}

TEST(Eigen, OverflowingArithmeticExhaustsIterationCap) {
  // Finite entries near the top of the double range: the Wilkinson shift
  // overflows to inf/NaN, which never compares as converged, so the QL
  // iteration cap throws instead of returning garbage.
  const double big = 1.5e308;
  EXPECT_THROW(eigen_sym_double({big, big, big, -big}, 2), Error);
  EXPECT_THROW(
      eigen_sym_double({big, big, 0.0, big, -big, big, 0.0, big, big}, 3),
      Error);
}

TEST(Eigen, DeterministicAcrossRuns) {
  const Tensor a = random_psd(40, 60, 5);
  const EigenResult x = eigen_sym(a);
  const EigenResult y = eigen_sym(a);
  EXPECT_EQ(x.eigenvalues, y.eigenvalues);
  EXPECT_EQ(std::memcmp(x.eigenvectors.data(), y.eigenvectors.data(),
                        x.eigenvectors.numel() * sizeof(float)),
            0);
}

// ------------------------------------------------ Jacobi differential ----

/// Eigenpairs of the oracle: values descending, vector j in column j of a
/// row-major n×n buffer.
struct OracleEigen {
  std::vector<double> values;
  std::vector<double> vectors;
};

/// The cyclic two-sided Jacobi solver (Golub & Van Loan §8.5) as this
/// library shipped it before QL: slow, stride-n column rotations, but simple
/// and independently accurate. `with_vectors = false` skips the rotation
/// accumulation for the eigenvalue-only rank checks.
OracleEigen jacobi_oracle(std::vector<double> a, std::size_t n,
                          bool with_vectors = true) {
  std::vector<double> v;
  if (with_vectors) {
    v.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;
  }
  double frob2 = 0.0;
  for (double x : a) frob2 += x * x;
  const double stop = 1e-24 * std::max(frob2, 1e-300);
  auto off2 = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        s += 2.0 * a[i * n + j] * a[i * n + j];
      }
    }
    return s;
  };
  for (int sweep = 0; off2() > stop; ++sweep) {
    if (sweep >= 64) throw std::runtime_error("oracle did not converge");
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (apq == 0.0) continue;
        const double theta = (a[q * n + q] - a[p * n + p]) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k * n + p];
          const double akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p * n + k];
          const double aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < v.size() / n; ++k) {
          const double vkp = v[k * n + p];
          const double vkq = v[k * n + q];
          v[k * n + p] = c * vkp - s * vkq;
          v[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return a[x * n + x] > a[y * n + y];
  });
  OracleEigen out;
  out.values.resize(n);
  if (with_vectors) out.vectors.resize(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = a[order[j] * n + order[j]];
    if (!with_vectors) continue;
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors[i * n + j] = v[i * n + order[j]];
    }
  }
  return out;
}

/// Q·diag(λ)·Qᵀ in double for a seeded random orthogonal Q (modified
/// Gram–Schmidt, applied twice, on a Gaussian matrix).
std::vector<double> with_spectrum(const std::vector<double>& lambda,
                                  std::uint64_t seed) {
  const std::size_t n = lambda.size();
  Rng rng(seed);
  std::vector<double> q(n * n);  // column j is q_j: q[i * n + j]
  for (double& x : q) x = rng.gaussian();
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < j; ++k) {
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) dot += q[i * n + k] * q[i * n + j];
        for (std::size_t i = 0; i < n; ++i) q[i * n + j] -= dot * q[i * n + k];
      }
      double norm = 0.0;
      for (std::size_t i = 0; i < n; ++i) norm += q[i * n + j] * q[i * n + j];
      norm = std::sqrt(norm);
      for (std::size_t i = 0; i < n; ++i) q[i * n + j] /= norm;
    }
  }
  std::vector<double> a(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc += q[r * n + k] * lambda[k] * q[c * n + k];
      }
      a[r * n + c] = a[c * n + r] = acc;
    }
  }
  return a;
}

std::vector<double> to_double(const Tensor& t) {
  return std::vector<double>(t.data(), t.data() + t.numel());
}

struct SpectrumCase {
  std::string name;
  std::vector<double> matrix;
  std::size_t n;
};

void PrintTo(const SpectrumCase& c, std::ostream* os) { *os << c.name; }

std::vector<double> graded(std::size_t n) {
  std::vector<double> l(n);
  for (std::size_t i = 0; i < n; ++i) {
    l[i] = std::pow(10.0, -12.0 * static_cast<double>(i) /
                              static_cast<double>(n - 1));
  }
  return l;
}

std::vector<SpectrumCase> spectrum_cases() {
  std::vector<SpectrumCase> cases;
  cases.push_back({"psd_gram_64", to_double(random_psd(64, 80, 3)), 64});
  cases.push_back({"indefinite_50", to_double(random_symmetric(50, 4)), 50});
  cases.push_back({"psd_gram_128", to_double(random_psd(128, 128, 6)), 128});
  {
    std::vector<double> l(40, 1.0);  // 15-fold 1
    l[0] = 9.0;
    l[1] = 8.0;
    for (std::size_t i = 2; i < 12; ++i) l[i] = 5.0;   // 10-fold
    for (std::size_t i = 12; i < 25; ++i) l[i] = 2.0;  // 13-fold
    cases.push_back({"repeated_40", with_spectrum(l, 7), 40});
  }
  {
    std::vector<double> l(60, 0.0);  // rank 20
    for (std::size_t i = 0; i < 20; ++i) l[i] = 3.0 + static_cast<double>(i);
    cases.push_back({"rank_deficient_60", with_spectrum(l, 8), 60});
  }
  cases.push_back({"graded_48", with_spectrum(graded(48), 9), 48});
  return cases;
}

class EigenVsJacobi : public ::testing::TestWithParam<SpectrumCase> {};

TEST_P(EigenVsJacobi, EigenvaluesAgreeWithinBound) {
  const SpectrumCase& c = GetParam();
  const OracleEigen want = jacobi_oracle(c.matrix, c.n, /*with_vectors=*/false);
  const EigenResult got = eigen_sym_double(c.matrix, c.n);
  double lambda0 = 0.0;
  for (double l : want.values) lambda0 = std::max(lambda0, std::fabs(l));
  for (std::size_t j = 0; j < c.n; ++j) {
    EXPECT_NEAR(got.eigenvalues[j], want.values[j], 1e-9 * lambda0)
        << c.name << " eigenvalue " << j;
  }
}

TEST_P(EigenVsJacobi, EigenvectorsAgreeUpToSignOrSubspace) {
  const SpectrumCase& c = GetParam();
  const std::size_t n = c.n;
  const OracleEigen want = jacobi_oracle(c.matrix, n);
  const EigenResult got = eigen_sym_double(c.matrix, n);
  double lambda0 = 0.0;
  for (double l : want.values) lambda0 = std::max(lambda0, std::fabs(l));
  // A vector is determined to ~n·ε·λ₀/gap. Eigenvalues closer than a
  // visible share of λ₀ form a cluster; a lone vector must match up to
  // sign, a cluster only as the subspace it spans (its projector).
  std::size_t j0 = 0;
  while (j0 < n) {
    std::size_t j1 = j0 + 1;
    while (j1 < n && want.values[j1 - 1] - want.values[j1] < 1e-3 * lambda0) {
      ++j1;
    }
    if (j1 - j0 == 1) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += got.eigenvectors.at(i, j0) * want.vectors[i * n + j0];
      }
      const double sign = dot < 0.0 ? -1.0 : 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got.eigenvectors.at(i, j0),
                    sign * want.vectors[i * n + j0], 1e-5)
            << c.name << " vector " << j0 << " row " << i;
      }
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t q = 0; q < n; ++q) {
          double p_got = 0.0;
          double p_want = 0.0;
          for (std::size_t j = j0; j < j1; ++j) {
            p_got += static_cast<double>(got.eigenvectors.at(r, j)) *
                     got.eigenvectors.at(q, j);
            p_want += want.vectors[r * n + j] * want.vectors[q * n + j];
          }
          ASSERT_NEAR(p_got, p_want, 1e-5)
              << c.name << " cluster [" << j0 << ", " << j1 << ") at (" << r
              << ", " << q << ")";
        }
      }
    }
    j0 = j1;
  }
}

INSTANTIATE_TEST_SUITE_P(Spectra, EigenVsJacobi,
                         ::testing::ValuesIn(spectrum_cases()));

TEST(EigenVsJacobi, ClipToErrorPicksOracleRank) {
  // An 800×500 matrix with a decaying column scale — the LeNet fc1 shape —
  // whose uncentered covariance spectrum decays geometrically.
  const std::size_t n = 800;
  const std::size_t m = 500;
  Rng rng(21);
  Tensor w(Shape{n, m});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      w.at(i, j) = static_cast<float>(rng.gaussian() *
                                      std::pow(0.985, static_cast<double>(j)));
    }
  }
  std::vector<double> cov = detail::gram_double(w, /*right=*/true);
  for (double& v : cov) v /= static_cast<double>(n - 1);
  const OracleEigen oracle = jacobi_oracle(cov, m, /*with_vectors=*/false);
  for (const double eps : {0.01, 0.03, 0.1}) {
    const std::size_t want = min_rank_for_error(oracle.values, eps, 1);
    EXPECT_GT(want, 1u);  // a real decision, not a clamp
    EXPECT_LT(want, m);
    EXPECT_EQ(clip_to_error(w, LraMethod::kPca, eps).rank, want)
        << "epsilon " << eps;
  }
}

}  // namespace
}  // namespace gs::linalg
