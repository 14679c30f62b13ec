// Repacked sparse execution — the differential harness for
// CompileOptions::repack (runtime/program.hpp).
//
// The contract under test: on a device passing the exactness gate (ADC maps
// 0→0, no process variation, no IR-drop), the repacked program — fewer,
// fuller crossbars with gather/scatter index maps — produces BITWISE
// identical logits to the padded program, at any thread-pool size, while
// programming strictly fewer cells and converting strictly fewer DAC/ADC
// values. When the gate fails, compile() must fall back to the padded
// lowering (checksum-identical to a padded compile). Fault injection on a
// repacked program only ever touches crossbars that exist.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/models.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "obs/exec_profile.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "runtime/shard.hpp"

namespace gs::runtime {
namespace {

void zero_rows(Tensor& w, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) w.at(i, j) = 0.0f;
  }
}

void zero_cols(Tensor& w, std::size_t begin, std::size_t end) {
  for (std::size_t j = begin; j < end; ++j) {
    for (std::size_t i = 0; i < w.rows(); ++i) w.at(i, j) = 0.0f;
  }
}

/// LeNet with tile-aligned bands of conv2 and fc1 deleted — the same
/// heavily-deleted network the tile-skip suite and the runtime bench use,
/// so repacking has real structure to exploit.
nn::Network heavily_deleted_lenet(std::uint64_t seed = 21) {
  Rng rng(seed);
  nn::Network net = core::build_lenet(rng);
  auto* conv2 = dynamic_cast<nn::Conv2dLayer*>(net.find("conv2"));
  auto* fc1 = dynamic_cast<nn::DenseLayer*>(net.find("fc1"));
  GS_CHECK(conv2 != nullptr && fc1 != nullptr);
  zero_rows(conv2->weight(), 100, 500);
  zero_rows(fc1->weight(), 200, 800);
  return net;
}

Tensor random_batch(std::size_t batch, std::uint64_t seed) {
  Tensor t(Shape{batch, 1, 28, 28});
  Rng rng(seed);
  t.fill_uniform(rng, 0.0f, 1.0f);
  return t;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* label) {
  ASSERT_TRUE(a.same_shape(b)) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)), 0)
      << label;
}

TEST(RepackExecTest, IdealDeviceBitwiseMatchesPaddedPath) {
  nn::Network net = heavily_deleted_lenet();
  const Tensor batch = random_batch(4, 7);

  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    CompileOptions padded_options;
    padded_options.policy = policy;
    CompileOptions repack_options = padded_options;
    repack_options.repack = true;

    const CrossbarProgram padded =
        compile(net, Shape{1, 28, 28}, padded_options);
    const CrossbarProgram repacked =
        compile(net, Shape{1, 28, 28}, repack_options);

    ASSERT_TRUE(repacked.repacked());
    EXPECT_FALSE(padded.repacked());
    // Removed crossbars are exactly the padded schedule's skipped tiles.
    EXPECT_EQ(repacked.tile_count() + repacked.removed_tile_count(),
              padded.tile_count());
    EXPECT_EQ(repacked.removed_tile_count(), padded.skipped_tile_count());
    EXPECT_EQ(repacked.skipped_tile_count(), 0u);
    // Strictly fewer programmed cells than the padded lowering.
    EXPECT_LT(repacked.programmed_cell_count(),
              repacked.padded_cell_count());
    EXPECT_EQ(repacked.padded_cell_count(), padded.programmed_cell_count());

    expect_bitwise_equal(Executor(repacked).forward(batch),
                         Executor(padded).forward(batch),
                         policy == hw::MappingPolicy::kDivisorExact
                             ? "divisor-exact"
                             : "padded-max");
  }
}

TEST(RepackExecTest, QuantizedOddAdcStillExactAndBitwise) {
  // Odd ADC level counts map 0→0, quantised DAC applies before the gather,
  // and the repacked ADC keeps the padded full scale — so the gate admits
  // the device and parity stays bitwise.
  nn::Network net = heavily_deleted_lenet();
  const Tensor batch = random_batch(3, 11);

  CompileOptions options;
  options.converters.dac_levels = 129;
  options.converters.adc_levels = 255;
  options.analog.levels = 64;  // programming quantisation is per cell: exact
  CompileOptions repack_options = options;
  repack_options.repack = true;

  const CrossbarProgram padded = compile(net, Shape{1, 28, 28}, options);
  const CrossbarProgram repacked =
      compile(net, Shape{1, 28, 28}, repack_options);
  ASSERT_TRUE(repacked.repacked());
  expect_bitwise_equal(Executor(repacked).forward(batch),
                       Executor(padded).forward(batch), "odd-adc");
}

TEST(RepackExecTest, GateBlocksRepackAndFallsBackToPaddedProgram) {
  nn::Network net = heavily_deleted_lenet();

  CompileOptions even_adc;
  even_adc.repack = true;
  even_adc.converters.adc_levels = 256;  // 0 not representable
  CompileOptions variation;
  variation.repack = true;
  variation.analog.variation_sigma = 0.05;
  CompileOptions ir_drop;
  ir_drop.repack = true;
  ir_drop.analog.wire_resistance = 1.0;

  for (const CompileOptions& blocked : {even_adc, variation, ir_drop}) {
    const CrossbarProgram program = compile(net, Shape{1, 28, 28}, blocked);
    EXPECT_FALSE(program.repacked());
    EXPECT_EQ(program.removed_tile_count(), 0u);
    // The fallback IS the padded compile: checksum-identical to compiling
    // with repack off under the same device options.
    CompileOptions padded = blocked;
    padded.repack = false;
    EXPECT_EQ(program_checksum(program),
              program_checksum(compile(net, Shape{1, 28, 28}, padded)));
  }
}

TEST(RepackExecTest, FullyRemovedMatrixYieldsBiasOnlyOutput) {
  // Delete fc1 ENTIRELY: its repacked plan has zero programmed tiles, so
  // the stage output is exactly the bias row — same as the padded program
  // skipping everything.
  Rng rng(5);
  nn::Network net = core::build_lenet(rng);
  auto* fc1 = dynamic_cast<nn::DenseLayer*>(net.find("fc1"));
  ASSERT_NE(fc1, nullptr);
  zero_rows(fc1->weight(), 0, fc1->weight().rows());

  CompileOptions repack_options;
  repack_options.repack = true;
  const CrossbarProgram repacked =
      compile(net, Shape{1, 28, 28}, repack_options);
  const CrossbarProgram padded = compile(net, Shape{1, 28, 28}, {});
  ASSERT_TRUE(repacked.repacked());

  const Tensor batch = random_batch(2, 3);
  expect_bitwise_equal(Executor(repacked).forward(batch),
                       Executor(padded).forward(batch), "fully-removed");
}

TEST(RepackExecTest, PoolSizeInvariance) {
  nn::Network net = heavily_deleted_lenet();
  const Tensor batch = random_batch(5, 13);
  CompileOptions options;
  options.repack = true;
  const CrossbarProgram program = compile(net, Shape{1, 28, 28}, options);
  ASSERT_TRUE(program.repacked());

  ThreadPool one(1);
  ThreadPool three(3);
  const Tensor at_one = Executor(program, &one).forward(batch);
  const Tensor at_three = Executor(program, &three).forward(batch);
  expect_bitwise_equal(at_one, at_three, "pool-size");
}

TEST(RepackExecTest, ProfilePricesTheCompressedSchedule) {
  // Row deletion alone leaves every kept tile's column extent padded (the
  // skip path already elides whole empty tiles), so delete a column band
  // too — deliberately NOT tile-aligned, so kept tiles end up with partial
  // live-column sets: the repacked readout width — and with it ADC
  // conversions and partial-sum traffic — must then shrink strictly below
  // the skip path.
  nn::Network net = heavily_deleted_lenet();
  auto* fc1 = dynamic_cast<nn::DenseLayer*>(net.find("fc1"));
  ASSERT_NE(fc1, nullptr);
  zero_cols(fc1->weight(), 110, 290);
  CompileOptions padded_options;
  CompileOptions repack_options;
  repack_options.repack = true;
  const CrossbarProgram padded =
      compile(net, Shape{1, 28, 28}, padded_options);
  const CrossbarProgram repacked =
      compile(net, Shape{1, 28, 28}, repack_options);

  const obs::ExecProfile padded_cost = obs::profile_program(padded);
  const obs::ExecProfile repacked_cost = obs::profile_program(repacked);
  // Fewer conversions in BOTH directions: dead input wires are never
  // DAC-converted and removed/shrunken tiles read out fewer columns.
  EXPECT_LT(repacked_cost.dac_conversions, padded_cost.dac_conversions);
  EXPECT_LT(repacked_cost.adc_conversions, padded_cost.adc_conversions);
  EXPECT_LE(repacked_cost.analog_mvms, padded_cost.analog_mvms);
  EXPECT_LT(repacked_cost.partial_sum_bytes, padded_cost.partial_sum_bytes);
  EXPECT_EQ(repacked_cost.tiles_skipped, 0u);
  EXPECT_EQ(repacked_cost.tiles_executed, repacked.tile_count());
}

TEST(RepackExecTest, StageSpansSumToTheBatchProfile) {
  // The per-stage span annotations of a traced forward price the same
  // schedule the per-sample profile does: summed over every stage span they
  // equal profile_program(p).scaled(B), on both lowerings.
  nn::Network net = heavily_deleted_lenet();
  auto* fc1 = dynamic_cast<nn::DenseLayer*>(net.find("fc1"));
  ASSERT_NE(fc1, nullptr);
  zero_cols(fc1->weight(), 110, 290);
  constexpr std::size_t kBatch = 3;
  const Tensor batch = random_batch(kBatch, 19);

  CompileOptions padded_options;
  CompileOptions repack_options;
  repack_options.repack = true;
  for (const CompileOptions& options : {padded_options, repack_options}) {
    const CrossbarProgram program = compile(net, Shape{1, 28, 28}, options);
    ASSERT_EQ(program.repacked(), options.repack);
    ASSERT_EQ(program.skipped_tile_count() > 0, !options.repack);

    obs::Trace trace(1);
    Executor(program).forward(batch, ForwardTrace{&trace, obs::Trace::kRoot});
    obs::ExecProfile spans;
    std::size_t stage_spans = 0;
    for (const obs::SpanRecord& span : trace.spans()) {
      if (span.name.rfind("stage:", 0) != 0) continue;
      ++stage_spans;
      for (const auto& [key, value] : span.notes) {
        const std::uint64_t n = std::stoull(value);
        if (key == "tiles") spans.tiles_executed += n;
        if (key == "skipped") spans.tiles_skipped += n;
        if (key == "dac_conversions") spans.dac_conversions += n;
        if (key == "adc_conversions") spans.adc_conversions += n;
      }
    }
    EXPECT_EQ(stage_spans, program.stage_count());
    const obs::ExecProfile expected =
        obs::profile_program(program).scaled(kBatch);
    EXPECT_EQ(spans.tiles_executed, expected.tiles_executed);
    EXPECT_EQ(spans.tiles_skipped, expected.tiles_skipped);
    EXPECT_EQ(spans.dac_conversions, expected.dac_conversions);
    EXPECT_EQ(spans.adc_conversions, expected.adc_conversions);
  }
}

TEST(RepackExecTest, FaultInjectionTouchesOnlyProgrammedCrossbars) {
  nn::Network net = heavily_deleted_lenet();
  CompileOptions options;
  options.repack = true;
  CrossbarProgram repacked = compile(net, Shape{1, 28, 28}, options);
  ASSERT_TRUE(repacked.repacked());

  hw::FaultModelConfig faults;
  faults.stuck_rate = 0.05;
  faults.seed = 77;
  const FaultInjectionReport report = inject_faults(repacked, faults);
  // Repacked plans never carry skip marks, so no skip proof can be
  // invalidated; every visited tile is a programmed crossbar.
  EXPECT_EQ(report.unskipped_tiles, 0u);
  EXPECT_EQ(report.tiles, repacked.tile_count());
  EXPECT_GT(report.faulty_tiles, 0u);

  // Determinism: same seed ⇒ bitwise-equal faulty program.
  CrossbarProgram again = compile(net, Shape{1, 28, 28}, options);
  inject_faults(again, faults);
  EXPECT_EQ(program_checksum(repacked), program_checksum(again));
}

TEST(RepackExecTest, ShardedServingMatchesSingleProgram) {
  nn::Network net = heavily_deleted_lenet();
  const Tensor batch = random_batch(6, 17);
  CompileOptions options;
  options.repack = true;

  const CrossbarProgram program = compile(net, Shape{1, 28, 28}, options);
  const Tensor single = Executor(program).forward(batch);

  ShardConfig shard;
  shard.replicas = 3;
  ShardedServer server(net, Shape{1, 28, 28}, options, shard);
  for (std::size_t b = 0; b < batch.dim(0); ++b) {
    Tensor sample(Shape{1, 28, 28});
    std::memcpy(sample.data(), batch.data() + b * sample.numel(),
                sample.numel() * sizeof(float));
    const Tensor logits = server.infer(sample);
    ASSERT_EQ(logits.numel(), single.cols());
    ASSERT_EQ(std::memcmp(logits.data(), single.data() + b * single.cols(),
                          logits.numel() * sizeof(float)),
              0)
        << "sample " << b;
  }
}

}  // namespace
}  // namespace gs::runtime
