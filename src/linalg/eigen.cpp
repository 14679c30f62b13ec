#include "linalg/eigen.hpp"

#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gs::linalg {

namespace {

/// QL iterations allowed per eigenvalue (the EISPACK tql2 cap). Convergence
/// is cubic, so a well-posed input needs one or two; only arithmetic that
/// has overflowed into inf/NaN keeps iterating until the cap throws.
constexpr int kMaxQlIterations = 30;

void check_finite(const std::vector<double>& a, std::size_t n) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    GS_CHECK_MSG(std::isfinite(a[i]), "eigen_sym: non-finite entry at ("
                                          << i / n << ", " << i % n << ")");
  }
}

/// Householder reduction of the symmetric matrix held in `w` to tridiagonal
/// form (EISPACK tred2 as in JAMA), accumulating the orthogonal transform.
/// `w` is JAMA's V stored transposed, so every inner loop walks a row.
/// On return d is the diagonal, e[1..n-1] the subdiagonal, and row k of w
/// is the k-th column of the transform.
void tridiagonalize(std::vector<double>& w, std::size_t n,
                    std::vector<double>& d, std::vector<double>& e) {
  auto row = [&](std::size_t r) { return w.data() + r * n; };
  for (std::size_t j = 0; j < n; ++j) d[j] = row(j)[n - 1];

  for (std::size_t i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = row(j)[i - 1];
        row(j)[i] = 0.0;
        row(i)[j] = 0.0;
      }
    } else {
      // Householder vector, scaled against under/overflow.
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = f > 0.0 ? -std::sqrt(h) : std::sqrt(h);
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      std::fill(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(i), 0.0);

      // Similarity transform of the remaining leading block.
      for (std::size_t j = 0; j < i; ++j) {
        const double* wj = row(j);
        f = d[j];
        row(i)[j] = f;
        g = e[j] + wj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += wj[k] * d[k];
          e[k] += wj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (std::size_t j = 0; j < i; ++j) {
        double* wj = row(j);
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) wj[k] -= f * e[k] + g * d[k];
        d[j] = wj[i - 1];
        wj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the Householder reflections.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    double* wi = row(i);
    double* wnext = row(i + 1);
    wi[n - 1] = wi[i];
    wi[i] = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = wnext[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* wj = row(j);
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += wnext[k] * wj[k];
        for (std::size_t k = 0; k <= i; ++k) wj[k] -= g * d[k];
      }
    }
    std::fill(wnext, wnext + i + 1, 0.0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = row(j)[n - 1];
    row(j)[n - 1] = 0.0;
  }
  row(n - 1)[n - 1] = 1.0;
  e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal (d, e) (EISPACK tql2 as in JAMA),
/// rotating rows of `w` so row k ends as the eigenvector of d[k]. A NaN
/// never compares as converged, so it runs into the iteration cap.
void tridiagonal_ql(std::vector<double>& w, std::size_t n,
                    std::vector<double>& d, std::vector<double>& e) {
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  const double eps = std::ldexp(1.0, -52);
  double f = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    // Smallest m ≥ l whose subdiagonal entry is negligible; e[n-1] = 0 ends
    // the scan.
    std::size_t m = l;
    while (m + 1 < n && !(std::fabs(e[m]) <= eps * tst1)) ++m;

    if (m > l) {
      int iter = 0;
      do {
        GS_CHECK_MSG(++iter <= kMaxQlIterations,
                     "eigen_sym: QL failed to converge for eigenvalue "
                         << l << " in " << kMaxQlIterations << " iterations");
        // Implicit Wilkinson shift.
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        // QL sweep from m-1 down to l.
        p = d[m];
        double c = 1.0, c2 = 1.0, c3 = 1.0;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          double* wi = w.data() + i * n;
          double* wnext = wi + n;
          for (std::size_t k = 0; k < n; ++k) {
            const double t = wnext[k];
            wnext[k] = s * wi[k] + c * t;
            wi[k] = c * wi[k] - s * t;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (!(std::fabs(e[l]) <= eps * tst1));
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

}  // namespace

EigenResult eigen_sym(const Tensor& a_in, double symmetry_tol) {
  GS_CHECK_MSG(a_in.rank() == 2 && a_in.rows() == a_in.cols(),
               "eigen_sym needs a square matrix, got "
                   << shape_to_string(a_in.shape()));
  const std::size_t n = a_in.rows();

  // Promote to double and validate symmetry.
  std::vector<double> a(n * n);
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a[i * n + j] = a_in.at(i, j);
      max_abs = std::max(max_abs, std::fabs(a[i * n + j]));
    }
  }
  check_finite(a, n);
  const double sym_scale = std::max(1.0, max_abs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      GS_CHECK_MSG(
          std::fabs(a[i * n + j] - a[j * n + i]) <= symmetry_tol * sym_scale,
          "matrix not symmetric at (" << i << ", " << j << ")");
      // Symmetrise exactly: the solver reads one triangle.
      const double m = 0.5 * (a[i * n + j] + a[j * n + i]);
      a[i * n + j] = a[j * n + i] = m;
    }
  }
  return eigen_sym_double(std::move(a), n);
}

EigenResult eigen_sym_double(std::vector<double> a, std::size_t n) {
  GS_CHECK_MSG(a.size() == n * n, "buffer size mismatch");
  GS_CHECK(n > 0);
  check_finite(a, n);

  // A is symmetric, so the buffer already is the transposed working matrix.
  std::vector<double> d(n);
  std::vector<double> e(n);
  tridiagonalize(a, n, d, e);
  tridiagonal_ql(a, n, d, e);
  // Overflow must surface as an error, and a NaN would void the sort's
  // strict weak ordering.
  for (const double lambda : d) {
    GS_CHECK_MSG(std::isfinite(lambda),
                 "eigen_sym: eigenvalue overflowed the double range");
  }

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });

  EigenResult result;
  result.eigenvalues.resize(n);
  result.eigenvectors = Tensor(Shape{n, n});
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    result.eigenvalues[j] = d[src];
    const double* v = a.data() + src * n;
    for (std::size_t i = 0; i < n; ++i) {
      result.eigenvectors.at(i, j) = static_cast<float>(v[i]);
    }
  }
  return result;
}

Tensor eigen_reconstruct(const EigenResult& e) {
  const std::size_t n = e.eigenvalues.size();
  GS_CHECK(e.eigenvectors.rank() == 2 && e.eigenvectors.rows() == n);
  Tensor scaled = e.eigenvectors;  // columns scaled by eigenvalues
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      scaled.at(i, j) =
          static_cast<float>(e.eigenvectors.at(i, j) * e.eigenvalues[j]);
    }
  }
  Tensor out(Shape{n, n});
  gemm(scaled, false, e.eigenvectors, true, out);
  return out;
}

}  // namespace gs::linalg
