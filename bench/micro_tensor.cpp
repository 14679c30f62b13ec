// Micro-benchmarks of the tensor layout kernels (transpose, im2col, col2im)
// at the shapes the paper networks actually produce. GEMM itself is
// measured by micro_gemm.
//
// Emits BENCH_tensor.json (seconds plus derived throughput per case) into
// the working directory and prints the same table to stdout — the same
// bench_util scaffolding as micro_hw. Pass --smoke for a few-rep CI run.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matrix.hpp"

namespace gs::bench {
namespace {

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

/// LeNet conv2 geometry: 20×12×12 input, 5×5 kernel.
ConvGeometry lenet_conv2() {
  ConvGeometry g;
  g.in_channels = 20;
  g.in_height = g.in_width = 12;
  g.kernel_h = g.kernel_w = 5;
  return g;
}

BenchRecord timed(const std::string& name, const std::string& shape,
                  double seconds, std::size_t elements) {
  BenchRecord rec;
  rec.name = name;
  rec.label("shape", shape);
  rec.metric("seconds", seconds)
      .metric("elements_per_second", static_cast<double>(elements) / seconds);
  std::printf("%-20s %-14s %10.6fs  %8.1f Melem/s\n", name.c_str(),
              shape.c_str(), seconds,
              static_cast<double>(elements) / seconds * 1e-6);
  return rec;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  using namespace gs;
  using namespace gs::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 3 : 201;

  section(smoke ? "micro_tensor (smoke): tensor layout kernels"
                : "micro_tensor: tensor layout kernels");
  std::vector<BenchRecord> records;

  for (const std::size_t n : {64, 256, 800}) {
    const Tensor a = random_tensor(Shape{n, n}, 5);
    const double s = time_median_seconds(
        [&] {
          volatile float v = transposed(a)[0];
          (void)v;
        },
        reps);
    const std::string shape = std::to_string(n) + "x" + std::to_string(n);
    records.push_back(timed("transpose_" + std::to_string(n), shape, s,
                            a.numel()));
  }

  const ConvGeometry g = lenet_conv2();
  {
    const Tensor img = random_tensor(Shape{20, 12, 12}, 6);
    std::size_t cells = 0;
    const double s = time_median_seconds(
        [&] {
          const Tensor cols = im2col(img, g);
          cells = cols.numel();
        },
        reps);
    records.push_back(timed("im2col_lenet_conv2", "20x12x12 k5", s, cells));
  }
  {
    const Tensor cols = random_tensor(Shape{64, 500}, 7);
    const double s = time_median_seconds(
        [&] {
          volatile float v = col2im(cols, g)[0];
          (void)v;
        },
        reps);
    records.push_back(
        timed("col2im_lenet_conv2", "64x500 k5", s, cols.numel()));
  }

  write_bench_json("BENCH_tensor.json", "tensor", records);
  note("\nwrote BENCH_tensor.json");
  return 0;
}
