// Micro-benchmarks of the hardware-model primitives at Table 3 matrix
// shapes: MBC size selection, routing-wire census, tile-occupancy analysis,
// area evaluation, and analog crossbar programming (the compile-time cost of
// the runtime subsystem); plus the crossbar executor's two inner kernels —
// the span ADC quantiser against per-element calls, and the row-block tile
// MVM against a one-row-at-a-time loop — each with a bitwise_equal field.
//
// Emits BENCH_hw.json (seconds plus derived throughput per case) into the
// working directory and prints the same table to stdout — the same
// bench_util scaffolding as micro_gemm/micro_lasso. Thread count follows
// GS_NUM_THREADS (the census/occupancy sweeps run on gs::ThreadPool). Pass
// --smoke for a tiny-size, few-rep CI run.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "hw/analog.hpp"
#include "hw/area.hpp"
#include "hw/tiling.hpp"
#include "runtime/program.hpp"

namespace gs::bench {
namespace {

Tensor random_sparse(std::size_t r, std::size_t c, double density,
                     std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{r, c});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (rng.bernoulli(density)) {
      t[i] = static_cast<float>(rng.gaussian());
    }
  }
  return t;
}

/// The one-row-at-a-time tile MVM the row-block kernel replaced: a scalar
/// fp64 axpy per input row, skipping zero inputs.
void per_row_matvec(const float* x, const Tensor& w, double* acc) {
  const std::size_t q = w.cols();
  for (std::size_t i = 0; i < w.rows(); ++i) {
    const double xi = static_cast<double>(x[i]);
    if (xi == 0.0) continue;
    const float* row = w.data() + i * q;
    for (std::size_t j = 0; j < q; ++j) {
      acc[j] += xi * static_cast<double>(row[j]);
    }
  }
}

BenchRecord timed(const char* name, const char* kind, double seconds) {
  BenchRecord rec;
  rec.name = name;
  rec.label("kind", kind);
  rec.metric("seconds", seconds);
  std::printf("%-26s %-10s %10.6fs", name, kind, seconds);
  return rec;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  using namespace gs;
  using namespace gs::bench;
  using namespace gs::hw;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t rows = smoke ? 128 : 800;
  const std::size_t cols = smoke ? 32 : 64;
  const int reps = smoke ? 3 : 9;

  section(smoke ? "micro_hw (smoke): hardware-model primitives"
                : "micro_hw: hardware-model primitives");
  const TechnologyParams tech = paper_technology();
  std::vector<BenchRecord> records;

  // MBC size selection over the Table 3 dimension set.
  {
    const std::vector<std::size_t> dims{25, 75, 500, 800, 1024};
    const double s = time_median_seconds(
        [&] {
          for (const std::size_t n : dims) {
            volatile auto spec = select_mbc_size(n, 36, tech);
            (void)spec;
          }
        },
        reps);
    BenchRecord rec = timed("select_mbc_size", "mapping", s / 5.0);
    rec.label("dims", "25,75,500,800,1024 x 36");
    std::printf("  per call\n");
    records.push_back(rec);
  }

  // Routing-wire census at three sparsity levels.
  for (const int pct : {5, 50, 100}) {
    const Tensor m = random_sparse(rows, 36, pct / 100.0, 1);
    const TileGrid grid = make_tile_grid(rows, 36, tech);
    const double s = time_median_seconds(
        [&] {
          volatile auto wires = count_routing_wires(m, grid);
          (void)wires;
        },
        reps);
    char name[40];
    std::snprintf(name, sizeof(name), "count_wires_density%d", pct);
    BenchRecord rec = timed(name, "census", s);
    rec.label("shape", std::to_string(rows) + "x36")
        .metric("groups_per_second",
                static_cast<double>(grid.total_wires()) / s);
    std::printf("  %zu groups\n", grid.total_wires());
    records.push_back(rec);
  }

  // Tile-occupancy analysis (the Fig. 9 sweep).
  {
    const Tensor m = random_sparse(rows, cols, 0.3, 2);
    const TileGrid grid = make_tile_grid(rows, cols, tech);
    const double s = time_median_seconds(
        [&] {
          volatile auto tiles = analyze_tiles(m, grid).size();
          (void)tiles;
        },
        reps);
    BenchRecord rec = timed("analyze_tiles", "tiling", s);
    rec.label("shape", std::to_string(rows) + "x" + std::to_string(cols))
        .metric("tiles_per_second",
                static_cast<double>(grid.tile_count()) / s);
    std::printf("  %zu tiles\n", grid.tile_count());
    records.push_back(rec);
  }

  // Area model over the Table 3 dimension set.
  {
    const std::vector<std::size_t> dims{25, 500, 800, 1024};
    const double s = time_median_seconds(
        [&] {
          for (const std::size_t n : dims) {
            volatile auto area = crossbar_area(n, 36, tech).cells;
            (void)area;
          }
        },
        reps);
    BenchRecord rec = timed("crossbar_area", "area", s / 4.0);
    rec.label("dims", "25,500,800,1024 x 36");
    std::printf("  per call\n");
    records.push_back(rec);
  }

  // Analog programming: tile-by-tile differential-pair mapping of a full
  // matrix — the per-matrix compile cost of runtime::compile.
  {
    const Tensor m = random_sparse(rows, cols, 1.0, 3);
    const TileGrid grid = make_tile_grid(rows, cols, tech);
    AnalogParams params;
    params.levels = 64;
    params.variation_sigma = 0.05;
    const double s = time_median_seconds(
        [&] {
          volatile float v = analog_effective_matrix(m, grid, params)[0];
          (void)v;
        },
        reps);
    BenchRecord rec = timed("analog_program", "analog", s);
    rec.label("shape", std::to_string(rows) + "x" + std::to_string(cols))
        .label("device", "64 levels, sigma 0.05")
        .metric("cells_per_second", static_cast<double>(m.numel()) / s);
    std::printf("  %zu cells\n", m.numel());
    records.push_back(rec);
  }

  // ADC quantisation of 64-wide partial-sum rows (the executor's per-tile
  // ADC granularity) at 12 bits: one span call per row vs one
  // quantize_uniform call per element.
  {
    constexpr std::size_t kWidth = 64;
    const std::size_t n_rows = smoke ? 64 : 1024;
    const double full_scale = 3.7;
    const std::size_t levels = 4095;
    Rng rng(4);
    std::vector<double> in(n_rows * kWidth);
    for (double& v : in) v = rng.uniform(-1.2 * full_scale, 1.2 * full_scale);
    std::vector<double> span_out(in.size());
    std::vector<double> scalar_out(in.size());
    const double s_span = time_median_seconds(
        [&] {
          for (std::size_t r = 0; r < n_rows; ++r) {
            runtime::quantize_uniform_span(in.data() + r * kWidth,
                                           span_out.data() + r * kWidth,
                                           kWidth, full_scale, levels);
          }
        },
        reps);
    const double s_scalar = time_median_seconds(
        [&] {
          for (std::size_t i = 0; i < in.size(); ++i) {
            scalar_out[i] =
                runtime::quantize_uniform(in[i], full_scale, levels);
          }
        },
        reps);
    const bool equal = std::memcmp(span_out.data(), scalar_out.data(),
                                   in.size() * sizeof(double)) == 0;
    const double values = static_cast<double>(in.size());
    BenchRecord rec = timed("adc_quantize_span", "converter", s_span);
    rec.label("shape", std::to_string(n_rows) + " rows x 64")
        .label("levels", "4095")
        .metric("values_per_second", values / s_span)
        .metric("scalar_values_per_second", values / s_scalar)
        .metric("speedup_vs_scalar", s_scalar / s_span)
        .metric("bitwise_equal", equal ? 1.0 : 0.0);
    std::printf("  %.2fx vs scalar\n", s_scalar / s_span);
    records.push_back(rec);
  }

  // Row-block tile MVM: 64 input rows through one 50x32 tile (a LeNet
  // conv2-shaped tile) with the row-block kernel vs the per-row loop.
  {
    constexpr std::size_t kRows = 64;
    const Tensor w = random_sparse(50, 32, 1.0, 5);
    Rng rng(6);
    AnalogParams params;
    params.levels = 64;
    const AnalogCrossbar xbar(w, 3.0, params, rng);
    std::vector<float> x(kRows * xbar.rows());
    for (std::size_t i = 0; i < x.size(); ++i) {
      // Post-ReLU-like inputs: a third exactly zero.
      x[i] = i % 3 == 0 ? 0.0f : static_cast<float>(rng.uniform());
    }
    const int calls = smoke ? 20 : 200;
    std::vector<double> block_out(kRows * xbar.cols());
    std::vector<double> row_out(block_out.size());
    const double s_block = time_median_seconds(
        [&] {
          for (int c = 0; c < calls; ++c) {
            std::fill(block_out.begin(), block_out.end(), 0.0);
            xbar.accumulate_matmul(x.data(), kRows, block_out.data());
          }
        },
        reps);
    const double s_row = time_median_seconds(
        [&] {
          for (int c = 0; c < calls; ++c) {
            std::fill(row_out.begin(), row_out.end(), 0.0);
            for (std::size_t r = 0; r < kRows; ++r) {
              per_row_matvec(x.data() + r * xbar.rows(),
                             xbar.effective_weights(),
                             row_out.data() + r * xbar.cols());
            }
          }
        },
        reps);
    const bool equal = std::memcmp(block_out.data(), row_out.data(),
                                   block_out.size() * sizeof(double)) == 0;
    const double macs =
        static_cast<double>(kRows * xbar.rows() * xbar.cols() * calls);
    BenchRecord rec = timed("tile_block_mvm", "kernel", s_block / calls);
    rec.label("shape", "64 rows x 50x32 tile")
        .metric("mac_per_second", macs / s_block)
        .metric("per_row_mac_per_second", macs / s_row)
        .metric("speedup_vs_per_row", s_row / s_block)
        .metric("bitwise_equal", equal ? 1.0 : 0.0);
    std::printf("  %.2fx vs per-row\n", s_row / s_block);
    records.push_back(rec);
  }

  write_bench_json("BENCH_hw.json", "hw", records);
  note("\nwrote BENCH_hw.json");
  return 0;
}
