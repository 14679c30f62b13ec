// Runtime/digital parity and executor determinism.
//
// The acceptance bar of the runtime subsystem: an ideal-device program
// (continuous conductances, no variation, no IR-drop, ideal converters)
// must reproduce nn::Network::forward within 1e-4 per logit on the paper
// networks under both mapping policies, and results must be bitwise
// identical at any thread-pool size. The differential suite pins the
// blocked crossbar stage bitwise to a one-row-at-a-time reference.
#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/models.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "nn/pool2d.hpp"
#include "nn/trainer.hpp"
#include "tensor/matrix.hpp"

namespace gs::runtime {
namespace {

Tensor random_batch(const Shape& sample, std::size_t batch,
                    std::uint64_t seed) {
  Shape shape{batch};
  shape.insert(shape.end(), sample.begin(), sample.end());
  Tensor t(shape);
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

/// Digital-vs-runtime parity on a batch, per-logit tolerance.
void expect_parity(nn::Network& net, const Shape& sample_shape,
                   std::size_t batch, float tol, hw::MappingPolicy policy,
                   const char* label) {
  const Tensor input = random_batch(sample_shape, batch, 42);
  const Tensor digital = net.forward(input, /*train=*/false);

  CompileOptions options;
  options.policy = policy;
  const CrossbarProgram program = compile(net, sample_shape, options);
  const Executor executor(program);
  const Tensor analog = executor.forward(input);

  ASSERT_TRUE(digital.same_shape(analog))
      << label << ": " << shape_to_string(digital.shape()) << " vs "
      << shape_to_string(analog.shape());
  EXPECT_LE(max_abs_diff(digital, analog), tol) << label;
}

TEST(ExecutorParityTest, DenseLayer) {
  Rng rng(1);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", 130, 70, rng));
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{130}, 5, 1e-4f, policy, "dense");
  }
}

TEST(ExecutorParityTest, LowRankDenseLayer) {
  Rng rng(2);
  nn::Network net;
  net.add(std::make_unique<nn::LowRankDense>("fc", 130, 70, 20, rng));
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{130}, 5, 1e-4f, policy, "lowrank dense");
  }
}

TEST(ExecutorParityTest, ConvLayer) {
  Rng rng(3);
  nn::Network net;
  net.add(std::make_unique<nn::Conv2dLayer>(
      "conv", nn::Conv2dSpec{3, 12, 5, 1, 2}, rng));
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{3, 14, 14}, 3, 1e-4f, policy, "conv");
  }
}

TEST(ExecutorParityTest, LowRankConvLayer) {
  Rng rng(4);
  nn::Network net;
  net.add(std::make_unique<nn::LowRankConv2d>(
      "conv", nn::LowRankConv2d::Spec{3, 12, 5, 1, 2}, 9, rng));
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{3, 14, 14}, 3, 1e-4f, policy, "lowrank conv");
  }
}

TEST(ExecutorParityTest, PoolingAndActivations) {
  Rng rng(5);
  nn::Network net;
  net.add(std::make_unique<nn::Pool2dLayer>("max", nn::PoolMode::kMax, 3, 2));
  net.add(std::make_unique<nn::ReluLayer>("relu"));
  net.add(std::make_unique<nn::Pool2dLayer>("avg", nn::PoolMode::kAvg, 2, 2));
  net.add(std::make_unique<nn::FlattenLayer>("flatten"));
  expect_parity(net, Shape{4, 13, 13}, 3, 1e-6f,
                hw::MappingPolicy::kDivisorExact, "pool/relu/flatten");
}

TEST(ExecutorParityTest, LenetBothPolicies) {
  Rng rng(6);
  nn::Network net = core::build_lenet(rng);
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{1, 28, 28}, 4, 1e-4f, policy, "lenet");
  }
}

TEST(ExecutorParityTest, LenetLowRankPipelineForm) {
  // The hardware-facing form: every compressible layer factorised.
  Rng rng(7);
  nn::Network dense = core::build_lenet(rng);
  core::FactorizeSpec spec;
  spec.keep_dense = {core::lenet_classifier()};
  nn::Network lowrank = core::to_lowrank(dense, spec);
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(lowrank, Shape{1, 28, 28}, 4, 1e-4f, policy,
                  "lenet lowrank");
  }
}

TEST(ExecutorParityTest, ConvnetBothPolicies) {
  Rng rng(8);
  nn::Network net = core::build_convnet(rng);
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{3, 32, 32}, 2, 1e-4f, policy, "convnet");
  }
}

TEST(ExecutorDeterminismTest, BitwiseIdenticalAcrossPoolSizes) {
  // Ideal and quantised (64-level cells, 8-bit DAC, 12-bit ADC) programs,
  // at batch sizes that give whole, partial and single-row kernel blocks.
  Rng rng(9);
  nn::Network net = core::build_lenet(rng);
  CompileOptions quantized;
  quantized.analog.levels = 64;
  quantized.converters.dac_levels = 255;
  quantized.converters.adc_levels = 4095;
  const CrossbarProgram programs[] = {compile(net, Shape{1, 28, 28}),
                                      compile(net, Shape{1, 28, 28},
                                              quantized)};

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ThreadPool pool7(7);
  for (const CrossbarProgram& program : programs) {
    Executor executor(program);
    for (const std::size_t batch : {1u, 5u, 6u, 33u}) {
      const Tensor input = random_batch(Shape{1, 28, 28}, batch, 77 + batch);
      executor.set_thread_pool(&pool1);
      const Tensor out1 = executor.forward(input);
      executor.set_thread_pool(&pool4);
      const Tensor out4 = executor.forward(input);
      executor.set_thread_pool(&pool7);
      const Tensor out7 = executor.forward(input);

      ASSERT_TRUE(out1.same_shape(out4));
      EXPECT_EQ(std::memcmp(out1.data(), out4.data(),
                            out1.numel() * sizeof(float)),
                0)
          << "batch " << batch;
      EXPECT_EQ(std::memcmp(out1.data(), out7.data(),
                            out1.numel() * sizeof(float)),
                0)
          << "batch " << batch;
    }
  }
}

TEST(ExecutorDeterminismTest, BatchCompositionInvariant) {
  // Per-input-vector DAC scaling means a sample's logits cannot depend on
  // its batch mates — the property the batching server relies on.
  Rng rng(10);
  nn::Network net = core::build_lenet(rng);
  CompileOptions options;
  options.converters.dac_levels = 255;
  options.converters.adc_levels = 1023;
  const CrossbarProgram program = compile(net, Shape{1, 28, 28}, options);
  const Executor executor(program);

  const Tensor batch = random_batch(Shape{1, 28, 28}, 4, 123);
  const Tensor batched = executor.forward(batch);

  const std::size_t sample_numel = 28 * 28;
  for (std::size_t b = 0; b < 4; ++b) {
    Tensor single(Shape{1, 1, 28, 28});
    std::copy(batch.data() + b * sample_numel,
              batch.data() + (b + 1) * sample_numel, single.data());
    const Tensor logits = executor.forward(single);
    EXPECT_EQ(std::memcmp(logits.data(), batched.data() + b * logits.numel(),
                          logits.numel() * sizeof(float)),
              0)
        << "sample " << b;
  }
}

TEST(ExecutorDeterminismTest, RecycledBuffersLeaveLogitsUnchanged) {
  // One executor reuses its activation buffers across forwards, so a small
  // batch runs in buffers a larger one left dirty and vice versa. Every
  // forward must still equal a fresh executor's bitwise.
  Rng rng(12);
  nn::Network net = core::build_lenet(rng);
  CompileOptions options;
  options.converters.dac_levels = 255;
  options.converters.adc_levels = 1023;
  const CrossbarProgram program = compile(net, Shape{1, 28, 28}, options);
  const Executor reused(program);

  std::uint64_t seed = 200;
  for (const std::size_t batch : {8, 1, 8, 3, 16, 2, 8}) {
    const Tensor input = random_batch(Shape{1, 28, 28}, batch, ++seed);
    const Tensor got = reused.forward(input);
    const Tensor want = Executor(program).forward(input);
    ASSERT_TRUE(got.same_shape(want)) << "batch " << batch;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.numel() * sizeof(float)),
              0)
        << "batch " << batch;
  }
}

TEST(ExecutorTest, QuantizedConvertersStayCloseAtHighResolution) {
  Rng rng(11);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", 64, 32, rng));
  const Tensor input = random_batch(Shape{64}, 3, 5);

  const CrossbarProgram ideal = compile(net, Shape{64});
  CompileOptions coarse_opts;
  coarse_opts.converters.dac_levels = 4095;
  coarse_opts.converters.adc_levels = 65535;
  const CrossbarProgram quantized = compile(net, Shape{64}, coarse_opts);

  const Tensor a = Executor(ideal).forward(input);
  const Tensor b = Executor(quantized).forward(input);
  // 12-bit DAC / 16-bit ADC keeps logits close to the float reference but
  // not identical (the quantisers must actually be in the loop).
  EXPECT_LE(max_abs_diff(a, b), 0.05f);
  EXPECT_GT(max_abs_diff(a, b), 0.0f);
}

TEST(ExecutorTest, EvaluateMatchesDigitalAccuracyOnIdealDevice) {
  Rng rng(12);
  nn::Network net = core::build_lenet(rng);
  const data::SyntheticMnist test_set(/*seed=*/2, /*count=*/40);
  const CrossbarProgram program =
      compile(net, test_set.sample_shape());
  const Executor executor(program);
  const double runtime_acc = evaluate(executor, test_set, 40);
  const double digital_acc = nn::evaluate(net, test_set, 40);
  // Logits agree to ~1e-5; allow one argmax flip from a near-tie.
  EXPECT_NEAR(runtime_acc, digital_acc, 1.0 / 40 + 1e-9);
}

/// One crossbar stage computed the plain way, one input row at a time:
/// per-row full scale and element-wise DAC, then per tile (ascending tile
/// row) the one-vector AnalogCrossbar::accumulate_matvec into a zeroed
/// partial, element-wise ADC at the padded-tile full scale, and the add into
/// the output slice — the executor's arithmetic without any blocking.
Tensor reference_stage(const MatrixPlan& plan, const DacAdcParams& conv,
                       const Tensor& act) {
  const std::size_t rows = act.rows();
  const std::size_t in_dim = plan.grid.rows;
  const std::size_t out_dim = plan.grid.cols;
  const double adc_gain =
      plan.w_max * static_cast<double>(plan.grid.tile.rows);
  Tensor out(Shape{rows, out_dim});
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<float> x(act.data() + r * in_dim,
                         act.data() + (r + 1) * in_dim);
    double x_max = 0.0;
    for (const float v : x) {
      x_max = std::max(x_max, static_cast<double>(std::fabs(v)));
    }
    if (conv.dac_levels > 0 && x_max > 0.0) {
      for (float& v : x) {
        v = static_cast<float>(quantize_uniform(v, x_max, conv.dac_levels));
      }
    }
    std::vector<double> acc(out_dim, 0.0);
    for (std::size_t tc = 0; tc < plan.column_tiles.size(); ++tc) {
      for (const std::uint32_t ti : plan.column_tiles[tc]) {
        const ProgramTile& tile = plan.tiles[ti];
        if (tile.skip) continue;
        std::vector<float> in(tile.xbar.rows());
        for (std::size_t i = 0; i < in.size(); ++i) {
          in[i] = x[tile.in_gather.empty() ? tile.slice.row_begin + i
                                           : tile.in_gather[i]];
        }
        std::vector<double> partial(tile.xbar.cols(), 0.0);
        tile.xbar.accumulate_matvec(in.data(), partial.data());
        for (std::size_t j = 0; j < partial.size(); ++j) {
          double v = partial[j];
          if (conv.adc_levels > 0 && x_max > 0.0) {
            v = quantize_uniform(v, x_max * adc_gain, conv.adc_levels);
          }
          acc[tile.out_scatter.empty() ? tile.slice.col_begin + j
                                       : tile.out_scatter[j]] += v;
        }
      }
    }
    for (std::size_t j = 0; j < out_dim; ++j) {
      out.at(r, j) = static_cast<float>(acc[j]);
    }
  }
  return out;
}

/// Reference forward of an all-linear program through reference_stage.
Tensor reference_forward(const CrossbarProgram& program, const Tensor& input) {
  Tensor x = input;
  for (const Step& step : program.steps()) {
    EXPECT_EQ(step.kind, Step::Kind::kLinear);
    for (const MatrixPlan& plan : step.stages) {
      x = reference_stage(plan, program.options().converters, x);
    }
    if (step.bias.numel() > 0) add_row_vector(x, step.bias);
  }
  return x;
}

/// Dense 130→70 then low-rank 70→40 (rank 20), with dead input wires, a
/// dead 64-row band (a whole tile row under kPaddedMax) and dead outputs,
/// so programs carry skipped tiles, repacked gather/scatter maps and
/// two-stage steps.
nn::Network sparse_linear_net() {
  Rng rng(21);
  nn::Network net;
  auto* fc = static_cast<nn::DenseLayer*>(
      net.add(std::make_unique<nn::DenseLayer>("fc", 130, 70, rng)));
  Tensor& w = fc->weight();
  for (std::size_t i = 0; i < 130; ++i) {
    for (std::size_t j = 0; j < 70; ++j) {
      if ((i >= 10 && i < 20) || (i >= 64 && i < 128) || (j >= 5 && j < 10)) {
        w.at(i, j) = 0.0f;
      }
    }
  }
  Rng bias_rng(22);
  fc->bias().fill_uniform(bias_rng, -0.1f, 0.1f);
  net.add(std::make_unique<nn::LowRankDense>("lr", 70, 40, 20, rng));
  return net;
}

TEST(ExecutorDifferentialTest, StagesMatchPerRowReferenceBitwise) {
  nn::Network net = sparse_linear_net();
  ThreadPool pool3(3);
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    for (const bool repack : {false, true}) {
      for (const bool quantized : {false, true}) {
        CompileOptions options;
        options.policy = policy;
        options.repack = repack;
        if (quantized) {
          options.analog.levels = 64;
          options.converters.dac_levels = 255;
          options.converters.adc_levels = 4095;
        }
        const CrossbarProgram program = compile(net, Shape{130}, options);
        ASSERT_EQ(program.repacked(), repack);
        if (policy == hw::MappingPolicy::kPaddedMax && !repack) {
          ASSERT_GT(program.skipped_tile_count(), 0u);
        }
        Executor executor(program);
        for (const std::size_t rows : {1u, 3u, 4u, 5u, 63u, 64u, 65u, 130u}) {
          Tensor input = random_batch(Shape{130}, rows, 300 + rows);
          // Exact zeros inside rows, an all-zero row, and a NaN on a dead
          // input wire (repacked programs never gather it, so the row's
          // full scale must ignore it).
          for (std::size_t i = 0; i < input.numel(); i += 7) input[i] = 0.0f;
          if (rows > 1) {
            std::fill(input.data() + 130, input.data() + 260, 0.0f);
          }
          input[(rows - 1) * 130 + 15] = std::nanf("");
          const Tensor want = reference_forward(program, input);
          for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool3}) {
            executor.set_thread_pool(pool);
            const Tensor got = executor.forward(input);
            ASSERT_TRUE(got.same_shape(want));
            std::size_t finite = 0;
            for (std::size_t i = 0; i < got.numel(); ++i) {
              if (std::isnan(want[i])) {
                ASSERT_TRUE(std::isnan(got[i])) << i;
                continue;
              }
              ++finite;
              ASSERT_EQ(std::memcmp(got.data() + i, want.data() + i,
                                    sizeof(float)),
                        0)
                  << "policy " << static_cast<int>(policy) << " repack "
                  << repack << " quantized " << quantized << " rows " << rows
                  << " element " << i << ": " << got[i] << " vs " << want[i];
            }
            // Only the NaN row may be NaN, and on a repacked program not
            // even that one.
            EXPECT_GE(finite, (rows - 1) * 40 + (repack ? 40 : 0));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gs::runtime
