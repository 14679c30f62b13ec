#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/rng.hpp"

namespace gs {
namespace {

// ctest runs every case as its own process, possibly in parallel, so each
// case writes its own file: test name + pid.
class SerializeTest : public ::testing::Test {
 protected:
  std::string path_;
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/gs_tensor_test_" + info->name() + "_" +
            std::to_string(::getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(SerializeTest, RoundTripPreservesShapeAndData) {
  Rng rng(1);
  Tensor t(Shape{3, 4, 5});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  save_tensor(path_, t);
  Tensor back = load_tensor(path_);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_TRUE(allclose(back, t, 0.0f));
}

TEST_F(SerializeTest, RoundTripRank1) {
  Tensor t(Shape{7}, 2.5f);
  save_tensor(path_, t);
  EXPECT_TRUE(allclose(load_tensor(path_), t, 0.0f));
}

TEST(Serialize, StreamRoundTrip) {
  std::stringstream ss;
  Tensor t = Tensor::from_rows({{1, 2}, {3, 4}});
  write_tensor(ss, t);
  Tensor back = read_tensor(ss);
  EXPECT_TRUE(allclose(back, t, 0.0f));
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream ss;
  ss << "not a tensor at all";
  EXPECT_THROW(read_tensor(ss), Error);
}

TEST(Serialize, TruncatedPayloadRejected) {
  std::stringstream ss;
  Tensor t(Shape{100}, 1.0f);
  write_tensor(ss, t);
  std::string raw = ss.str();
  raw.resize(raw.size() / 2);
  std::stringstream truncated(raw);
  EXPECT_THROW(read_tensor(truncated), Error);
}

TEST(Serialize, OverflowingShapeRejected) {
  // Rank 3 with dims 2^31, 2^31, 4: each dim passes the per-dim bound, but
  // the element count 2^64 wraps to 0 in size_t. The header alone must be
  // refused, not loaded as an empty tensor claiming 2^64 cells.
  std::stringstream ss;
  const std::uint32_t magic = 0x47535431;
  const std::uint32_t rank = 3;
  const std::uint64_t dims[] = {1ULL << 31, 1ULL << 31, 4};
  ss.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  ss.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  ss.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  ASSERT_EQ(ss.str().size(), 32u);
  EXPECT_THROW(read_tensor(ss), Error);
}

/// A GST1 header of rank 2 with the given dims and no payload.
std::stringstream header_only(std::uint64_t rows, std::uint64_t cols) {
  std::stringstream ss;
  const std::uint32_t magic = 0x47535431;
  const std::uint32_t rank = 2;
  const std::uint64_t dims[] = {rows, cols};
  ss.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  ss.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  ss.write(reinterpret_cast<const char*>(dims), sizeof(dims));
  return ss;
}

TEST(Serialize, HugeHeaderRejectedBeforeAllocating) {
  // 2^61 elements: no overflow in the element count, but far more bytes
  // than any allocator grants. The reader must refuse it as malformed input
  // (gs::Error), not surface the allocator's std::length_error.
  std::stringstream ss = header_only(1ULL << 31, 1ULL << 30);
  EXPECT_THROW(read_tensor(ss), Error);
}

TEST(Serialize, HeaderLargerThanStreamRejected) {
  // 2^26 elements (256 MiB) claimed by a header with no payload behind it:
  // refused from the stream size, before any buffer is zero-filled.
  std::stringstream ss = header_only(1ULL << 20, 1ULL << 6);
  EXPECT_THROW(read_tensor(ss), Error);
}

TEST(Serialize, LoadFromMissingFileThrows) {
  EXPECT_THROW(load_tensor("/nonexistent-dir-xyz/tensor.bin"), Error);
}

TEST_F(SerializeTest, CsvDumpHasMatrixLayout) {
  Tensor t = Tensor::from_rows({{1.5f, 2.0f}, {3.0f, 4.5f}});
  save_matrix_csv(path_, t);
  std::ifstream in(path_);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "1.5,2");
  EXPECT_EQ(line2, "3,4.5");
}

TEST(Serialize, CsvRequiresRank2) {
  Tensor t(Shape{4});
  EXPECT_THROW(save_matrix_csv("/tmp/gs_whatever.csv", t), Error);
}

}  // namespace
}  // namespace gs
