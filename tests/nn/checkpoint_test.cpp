#include "nn/checkpoint.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include <unistd.h>

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"

namespace gs::nn {
namespace {

Network make_net(std::uint64_t seed) {
  Rng rng(seed);
  Network net;
  net.add(std::make_unique<DenseLayer>("fc1", 6, 8, rng));
  net.add(std::make_unique<ReluLayer>("relu"));
  net.add(std::make_unique<LowRankDense>("fc2", 8, 5, 3, rng));
  return net;
}

TEST(Checkpoint, RoundTripRestoresAllParams) {
  Network source = make_net(1);
  std::stringstream stream;
  save_checkpoint(stream, source);

  Network target = make_net(2);  // different init
  load_checkpoint(stream, target);

  const auto src_params = source.params();
  const auto dst_params = target.params();
  ASSERT_EQ(src_params.size(), dst_params.size());
  for (std::size_t i = 0; i < src_params.size(); ++i) {
    EXPECT_TRUE(allclose(*src_params[i].value, *dst_params[i].value, 0.0f))
        << src_params[i].name;
  }
}

TEST(Checkpoint, RestoredNetworkComputesSameOutputs) {
  Network source = make_net(3);
  std::stringstream stream;
  save_checkpoint(stream, source);
  Network target = make_net(4);
  load_checkpoint(stream, target);

  Rng rng(5);
  Tensor x(Shape{2, 6});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(source.forward(x), target.forward(x), 1e-6f));
}

TEST(Checkpoint, RejectsArchitectureMismatch) {
  Network source = make_net(6);
  std::stringstream stream;
  save_checkpoint(stream, source);

  Rng rng(7);
  Network other;
  other.add(std::make_unique<DenseLayer>("fc1", 6, 8, rng));
  EXPECT_THROW(load_checkpoint(stream, other), Error);
}

TEST(Checkpoint, RejectsShapeMismatchAfterClipping) {
  Network source = make_net(8);
  std::stringstream stream;
  save_checkpoint(stream, source);

  Network clipped = make_net(9);
  // Simulate a rank clip on fc2: rank 3 → 2.
  auto* lr = dynamic_cast<LowRankDense*>(clipped.find("fc2"));
  ASSERT_NE(lr, nullptr);
  Rng rng(10);
  Tensor u(Shape{8, 2});
  u.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor vt(Shape{2, 5});
  vt.fill_gaussian(rng, 0.0f, 1.0f);
  lr->set_factors(std::move(u), std::move(vt));

  EXPECT_THROW(load_checkpoint(stream, clipped), Error);
}

TEST(Checkpoint, RejectsGarbageStream) {
  std::stringstream stream;
  stream << "this is not a checkpoint";
  Network net = make_net(11);
  EXPECT_THROW(load_checkpoint(stream, net), Error);
}

TEST(Checkpoint, FileRoundTrip) {
  // Test name + pid: ctest may run other cases in parallel.
  const std::string path =
      ::testing::TempDir() + "/gs_checkpoint_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".bin";
  Network source = make_net(12);
  save_checkpoint(path, source);
  Network target = make_net(13);
  load_checkpoint(path, target);
  Rng rng(14);
  Tensor x(Shape{1, 6});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_TRUE(allclose(source.forward(x), target.forward(x), 1e-6f));
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  Network net = make_net(15);
  EXPECT_THROW(load_checkpoint("/nonexistent-dir-xyz/ckpt.bin", net), Error);
}

}  // namespace
}  // namespace gs::nn
