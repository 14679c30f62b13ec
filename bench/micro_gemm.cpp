// GEMM kernel-subsystem benchmark: packed/blocked kernel vs. the seed
// materialize+i-k-j kernel on the shapes the Group Scissor pipeline actually
// hits (im2col tall-skinny products, gram squares, tall narrow panels), plus
// end-to-end gram cases mirroring bench/micro_linalg.cpp, and the conv
// lowering of the network layers: the materialised im2col → sgemm → re-tile
// passes against the implicit GEMM (operand sources and a channel-major
// store) nn::MatrixLayer runs.
//
// Every timing is the median of kReps calls after a warm-up, with the
// interquartile range beside it. Emits BENCH_gemm.json into the working
// directory and prints the same table to stdout. Thread count follows
// GS_NUM_THREADS; the committed file and the README table are a
// GS_NUM_THREADS=4 run (the seed kernel is serial either way).
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/gemm_kernel.hpp"
#include "linalg/gram.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matrix.hpp"

namespace gs::bench {
namespace {

// Timed calls per measurement: enough for a quartile spread to mean
// something on a shared machine.
constexpr int kReps = 21;

/// Adds `<prefix>_seconds` and `<prefix>_iqr_seconds` to `rec`.
void add_timing(BenchRecord& rec, const std::string& prefix,
                const Quartiles& q) {
  rec.metric(prefix + "_seconds", q.median)
      .metric(prefix + "_iqr_seconds", q.q3 - q.q1);
}

Tensor random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{r, c});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

// ---- Seed-kernel replicas --------------------------------------------------
// Verbatim re-implementations of the pre-kernel-subsystem hot paths, kept
// here so the speedup trajectory stays measurable against the original
// baseline after the library moves on.

/// Seed gemm: materialise op(A)/op(B) as full transposed copies, then a
/// serial i-k-j triple loop (the seed's non-OpenMP path).
void seed_gemm(const Tensor& a, bool ta, const Tensor& b, bool tb, Tensor& c,
               float alpha = 1.0f, float beta = 0.0f) {
  const Tensor at = ta ? transposed(a) : a;
  const Tensor bt = tb ? transposed(b) : b;
  const std::size_t m = at.rows();
  const std::size_t k = at.cols();
  const std::size_t n = bt.cols();
  const float* pa = at.data();
  const float* pb = bt.data();
  float* pc = c.data();
  if (beta == 0.0f) {
    std::fill(pc, pc + m * n, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < m * n; ++i) pc[i] *= beta;
  }
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    const float* arow = pa + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = alpha * arow[p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Seed gram: outer-product order (right) / row-pair dots (left), serial.
std::vector<double> seed_gram_double(const Tensor& a, bool right) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  const std::size_t side = right ? m : n;
  std::vector<double> g(side * side, 0.0);
  if (right) {
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = a.data() + i * m;
      for (std::size_t p = 0; p < m; ++p) {
        const double v = row[p];
        if (v == 0.0) continue;
        double* grow = g.data() + p * m;
        for (std::size_t q = p; q < m; ++q) {
          grow[q] += v * static_cast<double>(row[q]);
        }
      }
    }
  } else {
    for (std::size_t p = 0; p < n; ++p) {
      const float* rp = a.data() + p * m;
      for (std::size_t q = p; q < n; ++q) {
        const float* rq = a.data() + q * m;
        double acc = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          acc += static_cast<double>(rp[j]) * rq[j];
        }
        g[p * side + q] = acc;
      }
    }
  }
  for (std::size_t p = 0; p < side; ++p) {
    for (std::size_t q = p + 1; q < side; ++q) {
      g[q * side + p] = g[p * side + q];
    }
  }
  return g;
}

// ---- Cases -----------------------------------------------------------------

struct GemmCase {
  const char* name;
  const char* role;
  std::size_t m, n, k;
  bool ta, tb;
};

BenchRecord run_gemm_case(const GemmCase& cs) {
  const Tensor a = cs.ta ? random_matrix(cs.k, cs.m, 11)
                         : random_matrix(cs.m, cs.k, 11);
  const Tensor b = cs.tb ? random_matrix(cs.n, cs.k, 13)
                         : random_matrix(cs.k, cs.n, 13);
  Tensor c(Shape{cs.m, cs.n});
  const double flops = 2.0 * cs.m * cs.n * cs.k;

  const Quartiles seed = time_quartiles_seconds(
      [&] { seed_gemm(a, cs.ta, b, cs.tb, c); }, kReps);
  const Quartiles kernel = time_quartiles_seconds(
      [&] {
        kernel::sgemm(cs.m, cs.n, cs.k, 1.0f, a.data(), a.cols(), cs.ta,
                      b.data(), b.cols(), cs.tb, 0.0f, c.data(), cs.n);
      },
      kReps);

  BenchRecord rec;
  rec.name = cs.name;
  rec.label("kind", "gemm").label("role", cs.role);
  char shape[64];
  std::snprintf(shape, sizeof shape, "%zux%zux%zu%s%s", cs.m, cs.n, cs.k,
                cs.ta ? " ta" : "", cs.tb ? " tb" : "");
  rec.label("shape", shape);
  add_timing(rec, "seed", seed);
  add_timing(rec, "kernel", kernel);
  rec.metric("seed_gflops", flops / seed.median * 1e-9)
      .metric("kernel_gflops", flops / kernel.median * 1e-9)
      .metric("speedup", seed.median / kernel.median);
  return rec;
}

BenchRecord run_pair(const char* name, const char* kind, const char* shape,
                     const std::function<void()>& seed_fn,
                     const std::function<void()>& new_fn) {
  const Quartiles seed = time_quartiles_seconds(seed_fn, kReps);
  const Quartiles kernel = time_quartiles_seconds(new_fn, kReps);
  BenchRecord rec;
  rec.name = name;
  rec.label("kind", kind).label("shape", shape);
  add_timing(rec, "seed", seed);
  add_timing(rec, "kernel", kernel);
  rec.metric("speedup", seed.median / kernel.median);
  return rec;
}

// ---- Conv lowering: materialised vs implicit --------------------------------

struct ConvCase {
  const char* name;
  std::size_t batch, channels, size, filters, kernel, pad;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Times one conv product both ways and checks their outputs agree bitwise.
/// `materialised` and `implicit` each return the product's result.
BenchRecord run_conv_pair(const std::string& name, const char* product,
                          const char* shape,
                          const std::function<Tensor()>& materialised,
                          const std::function<Tensor()>& implicit) {
  const bool same = bitwise_equal(materialised(), implicit());
  const Quartiles old_q =
      time_quartiles_seconds([&] { materialised(); }, kReps);
  const Quartiles new_q = time_quartiles_seconds([&] { implicit(); }, kReps);
  BenchRecord rec;
  rec.name = name;
  rec.label("kind", "conv_lowering").label("product", product);
  rec.label("shape", shape);
  add_timing(rec, "materialised", old_q);
  add_timing(rec, "implicit", new_q);
  rec.metric("speedup", old_q.median / new_q.median)
      .metric("bitwise_equal", same ? 1.0 : 0.0);
  return rec;
}

/// Forward, dW and dX of one conv layer at one batch. The materialised arm
/// is the lowering nn::MatrixLayer ran before the implicit GEMM: the forward
/// im2col's the batch, multiplies, adds the bias and re-tiles; each backward
/// product re-tiles dY first (the old backward did that once for both) and
/// dW reads the patch matrix a training forward had cached.
std::vector<BenchRecord> run_conv_case(const ConvCase& cs) {
  using kernel::ChannelMajorSource;
  using kernel::ChannelMajorStore;
  using kernel::MatrixSource;
  using kernel::PatchSource;
  using kernel::RowMajorStore;
  ConvGeometry g;
  g.in_channels = cs.channels;
  g.in_height = g.in_width = cs.size;
  g.kernel_h = g.kernel_w = cs.kernel;
  g.pad_h = g.pad_w = cs.pad;
  const std::size_t positions = g.out_height() * g.out_width();
  const std::size_t rows = cs.batch * positions;
  const std::size_t patch = g.patch_size();
  const std::size_t f = cs.filters;
  ThreadPool& pool = ThreadPool::global();
  Rng rng(31);
  Tensor images(Shape{cs.batch, cs.channels, cs.size, cs.size});
  images.fill_gaussian(rng, 0.0f, 1.0f);
  const Tensor w = random_matrix(patch, f, 32);
  Tensor bias(Shape{f});
  bias.fill_gaussian(rng, 0.0f, 0.1f);
  Tensor dy(Shape{cs.batch, f, positions});
  dy.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor cached_cols(Shape{rows, patch});
  im2col_batch(images.data(), cs.batch, g, cached_cols.data(), pool);
  Tensor dw(Shape{patch, f});

  char shape[96];
  std::snprintf(shape, sizeof shape, "b%zu %zux%zux%zu -> %zu, %zux%zu pad %zu",
                cs.batch, cs.channels, cs.size, cs.size, f, cs.kernel,
                cs.kernel, cs.pad);
  const auto retiled_dy = [&] {
    Tensor rows_dy(Shape{rows, f});
    retile_batch(dy.data(), cs.batch, f, positions, rows_dy.data(), pool);
    return rows_dy;
  };
  std::vector<BenchRecord> out;
  out.push_back(run_conv_pair(
      std::string(cs.name) + "_forward", "forward", shape,
      [&] {
        Tensor cols(Shape{rows, patch});
        im2col_batch(images.data(), cs.batch, g, cols.data(), pool);
        Tensor mat = matmul(cols, w);
        add_row_vector(mat, bias);
        Tensor y(Shape{cs.batch, f, positions});
        retile_batch(mat.data(), cs.batch, positions, f, y.data(), pool);
        return y;
      },
      [&] {
        Tensor y(Shape{cs.batch, f, positions});
        kernel::sgemm(rows, f, patch, 1.0f, PatchSource(images.data(), g),
                      MatrixSource{w.data(), f}, 0.0f,
                      ChannelMajorStore{y.data(), positions, f, bias.data()});
        return y;
      }));
  // dW accumulates (beta = 1) as in training; each call starts from zero.
  out.push_back(run_conv_pair(
      std::string(cs.name) + "_dW", "dW", shape,
      [&] {
        dw.set_zero();
        gemm(cached_cols, true, retiled_dy(), false, dw, 1.0f, 1.0f);
        return dw;
      },
      [&] {
        dw.set_zero();
        kernel::sgemm(patch, f, rows, 1.0f, PatchSource(images.data(), g, true),
                      ChannelMajorSource{dy.data(), positions, f}, 1.0f,
                      RowMajorStore{dw.data(), f});
        return dw;
      }));
  out.push_back(run_conv_pair(
      std::string(cs.name) + "_dX", "dX", shape,
      [&] { return matmul(retiled_dy(), w, false, true); },
      [&] {
        Tensor dcols(Shape{rows, patch});
        kernel::sgemm(rows, patch, f, 1.0f,
                      ChannelMajorSource{dy.data(), positions, f},
                      MatrixSource{w.data(), f, true}, 0.0f,
                      RowMajorStore{dcols.data(), patch});
        return dcols;
      }));
  return out;
}

}  // namespace
}  // namespace gs::bench

int main() {
  using namespace gs;
  using namespace gs::bench;

  section("micro_gemm: packed/blocked kernel vs seed i-k-j");
  std::vector<BenchRecord> records;

  // Shapes hit by LeNet/ConvNet training + rank clipping. im2col products
  // are tall-skinny (positions×batch rows, patch-sized k, filter-count n);
  // the 512³ square is the acceptance shape; rsvd panels are tall with a
  // narrow probe block; the ta/tb cases mirror Dense/Conv backward. The
  // batch-32 fc1 rows are the small-m inference regime, and 64³ is one
  // crossbar-sized block. The last four are the thin products of a batch-25
  // LeNet training step (one kMC row block, several K panels).
  const GemmCase gemm_cases[] = {
      {"square_512", "acceptance", 512, 512, 512, false, false},
      {"lenet_conv2_im2col", "im2col tall-skinny", 1600, 50, 500, false,
       false},
      {"convnet_conv3_im2col", "im2col tall-skinny", 1024, 64, 800, false,
       false},
      {"lenet_conv2_product", "im2col product", 576, 50, 500, false, false},
      {"convnet_conv1_product", "im2col product", 1024, 32, 75, false,
       false},
      {"lenet_fc1_b32", "small-m forward", 32, 500, 800, false, false},
      {"crossbar_block_64", "crossbar block", 64, 64, 64, false, false},
      {"rsvd_panel", "range finder Y=A*Omega", 2048, 37, 512, false, false},
      {"rsvd_panel_t", "power iter Z=At*Y", 512, 37, 2048, true, false},
      {"dense_backward_dW", "dW=Xt*dY", 800, 500, 256, true, false},
      {"dense_backward_dW_b32", "dW=Xt*dY", 32, 500, 800, true, false},
      {"dense_backward_dX", "dX=dY*Wt", 256, 800, 500, false, true},
      {"lenet_conv1_dW_b25", "thin dW=Xt*dY", 25, 20, 14400, true, false},
      {"lenet_fc1_b25", "thin forward", 25, 500, 800, false, false},
      {"lenet_fc1_dX_b25", "thin dX=dY*Wt", 25, 800, 500, false, true},
      {"lenet_conv2_lowrank_dW", "thin Vt dW", 50, 50, 1600, true, false},
  };
  for (const GemmCase& cs : gemm_cases) {
    records.push_back(run_gemm_case(cs));
    const BenchRecord& r = records.back();
    std::printf("%-22s %-18s seed %7.2f GF/s  kernel %7.2f GF/s  x%.2f\n",
                r.name.c_str(), r.labels[2].second.c_str(),
                r.metrics[4].second, r.metrics[5].second, r.metrics[6].second);
  }
  const std::size_t gemm_record_count = records.size();

  // End-to-end gram cases at the micro_linalg shapes.
  const Tensor g1 = random_matrix(2048, 512, 21);
  const Tensor g2 = random_matrix(800, 64, 22);
  const Tensor g3 = random_matrix(512, 2048, 23);
  records.push_back(run_pair(
      "gram_right_2048x512", "gram", "2048x512 -> 512^2",
      [&] { seed_gram_double(g1, true); },
      [&] { linalg::detail::gram_double(g1, true); }));
  records.push_back(run_pair(
      "gram_right_800x64", "gram", "800x64 -> 64^2",
      [&] { seed_gram_double(g2, true); },
      [&] { linalg::detail::gram_double(g2, true); }));
  records.push_back(run_pair(
      "gram_left_512x2048", "gram", "512x2048 -> 512^2",
      [&] { seed_gram_double(g3, false); },
      [&] { linalg::detail::gram_double(g3, false); }));
  for (std::size_t i = gemm_record_count; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::printf("%-22s %-18s seed %8.4fs  kernel %8.4fs  x%.2f\n",
                r.name.c_str(), r.labels[1].second.c_str(),
                r.metrics[0].second, r.metrics[2].second, r.metrics[4].second);
  }

  // The conv layers of a batch-25 LeNet training step and ConvNet conv1 at
  // the serving batch.
  const ConvCase conv_cases[] = {
      {"lenet_conv1_b25", 25, 1, 28, 20, 5, 0},
      {"lenet_conv2_b25", 25, 20, 12, 50, 5, 0},
      {"convnet_conv1_b32", 32, 3, 32, 32, 5, 2},
  };
  for (const ConvCase& cs : conv_cases) {
    for (BenchRecord& r : run_conv_case(cs)) {
      std::printf("%-24s materialised %8.1f us  implicit %8.1f us  x%.2f%s\n",
                  r.name.c_str(), r.metrics[0].second * 1e6,
                  r.metrics[2].second * 1e6, r.metrics[4].second,
                  r.metrics[5].second == 1.0 ? "" : "  BITS DIFFER");
      records.push_back(std::move(r));
    }
  }

  write_bench_json("BENCH_gemm.json", "gemm", records);
  note("\nwrote BENCH_gemm.json");
  return 0;
}
