// Micro-benchmarks of the LRA solvers at the covariance sizes rank clipping
// actually eigen-solves (the fan-out M of each paper layer, up to the
// 500×500 Gram of LeNet fc1). Every eigen_sym record carries residual_ok:
// the decomposition it timed satisfies A·V = V·Λ and VᵀV = I.
//
// Emits BENCH_linalg.json (seconds per case) into the working directory and
// prints the same table to stdout — the same bench_util scaffolding as
// micro_hw. Pass --smoke for a few-rep CI run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lra.hpp"
#include "linalg/pca.hpp"
#include "linalg/svd.hpp"
#include "tensor/matrix.hpp"

namespace gs::bench {
namespace {

Tensor random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{r, c});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

struct Dims {
  std::size_t rows, cols;
};

std::string dims(std::size_t r, std::size_t c) {
  return std::to_string(r) + "x" + std::to_string(c);
}

BenchRecord timed(const std::string& name, const std::string& shape,
                  double seconds) {
  BenchRecord rec;
  rec.name = name;
  rec.label("shape", shape);
  rec.metric("seconds", seconds);
  std::printf("%-22s %-16s %10.6fs\n", name.c_str(), shape.c_str(), seconds);
  return rec;
}

/// ‖A·V − V·Λ‖_max ≤ 1e-5·|λ₀| and ‖VᵀV − I‖_max ≤ 1e-5, accumulated in
/// double over the float eigenvectors (whose rounding sets the bound).
bool eigen_residual_ok(const Tensor& a, const linalg::EigenResult& e) {
  const std::size_t n = a.rows();
  const Tensor& v = e.eigenvectors;
  const double scale = std::max(std::fabs(e.eigenvalues.front()),
                                std::fabs(e.eigenvalues.back()));
  double residual = 0.0;
  double orthogonality = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0.0;
      double vtv = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        av += static_cast<double>(a.at(i, k)) * v.at(k, j);
        vtv += static_cast<double>(v.at(k, i)) * v.at(k, j);
      }
      residual =
          std::max(residual, std::fabs(av - e.eigenvalues[j] * v.at(i, j)));
      orthogonality =
          std::max(orthogonality, std::fabs(vtv - (i == j ? 1.0 : 0.0)));
    }
  }
  return residual <= 1e-5 * scale && orthogonality <= 1e-5;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  using namespace gs;
  using namespace gs::bench;
  using namespace gs::linalg;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 3 : 15;

  section(smoke ? "micro_linalg (smoke): LRA solvers"
                : "micro_linalg: LRA solvers");
  std::vector<BenchRecord> records;

  // n×n Grams of n×n Gaussians, then the LeNet fc1 Gram (800×500 weight).
  for (const Dims d : {Dims{20, 20}, Dims{50, 50}, Dims{64, 64},
                       Dims{128, 128}, Dims{800, 500}}) {
    const Tensor w = random_matrix(d.rows, d.cols, 1);
    const Tensor a = matmul(w, w, /*ta=*/true);
    const double s = time_median_seconds(
        [&] {
          volatile double v = eigen_sym(a).eigenvalues[0];
          (void)v;
        },
        reps);
    const std::size_t n = d.cols;
    records.push_back(timed("eigen_sym_" + std::to_string(n), dims(n, n), s)
                          .metric("residual_ok",
                                  eigen_residual_ok(a, eigen_sym(a)) ? 1.0
                                                                     : 0.0));
  }

  // LeNet conv2 weight, ConvNet conv3 weight, a crossbar-sized square.
  for (const Dims d : {Dims{500, 50}, Dims{800, 64}, Dims{64, 64}}) {
    const std::size_t n = d.rows;
    const std::size_t m = d.cols;
    const Tensor a = random_matrix(n, m, 2);
    const double s = time_median_seconds(
        [&] {
          volatile double v = svd(a).singular_values[0];
          (void)v;
        },
        reps);
    records.push_back(timed("svd_thin_" + dims(n, m), dims(n, m), s));
  }

  for (const Dims d : {Dims{500, 50}, Dims{800, 64}}) {
    const std::size_t n = d.rows;
    const std::size_t m = d.cols;
    const Tensor w = random_matrix(n, m, 3);
    const double s = time_median_seconds(
        [&] {
          volatile float v = pca(w, m / 2).u[0];
          (void)v;
        },
        reps);
    records.push_back(timed("pca_" + dims(n, m),
                            dims(n, m) + " rank " + std::to_string(m / 2), s));
  }

  {
    // The inner operation of Algorithm 2 line 6 at LeNet conv2 size.
    const Tensor w = random_matrix(500, 50, 4);
    const double s = time_median_seconds(
        [&] {
          volatile std::size_t rank =
              clip_to_error(w, LraMethod::kPca, 0.03).rank;
          (void)rank;
        },
        reps);
    records.push_back(timed("clip_to_error_pca", "500x50 eps 0.03", s));
  }

  write_bench_json("BENCH_linalg.json", "linalg", records);
  note("\nwrote BENCH_linalg.json");
  return 0;
}
