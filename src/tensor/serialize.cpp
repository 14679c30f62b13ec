#include "tensor/serialize.hpp"

#include <cstdint>
#include <fstream>

namespace gs {

namespace {
constexpr std::uint32_t kMagic = 0x47535431;  // "GST1"
}

void write_tensor(std::ostream& out, const Tensor& t) {
  const std::uint32_t magic = kMagic;
  out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  const std::uint32_t rank = static_cast<std::uint32_t>(t.rank());
  out.write(reinterpret_cast<const char*>(&rank), sizeof(rank));
  for (std::size_t i = 0; i < t.rank(); ++i) {
    const std::uint64_t d = t.dim(i);
    out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  }
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
  GS_CHECK_MSG(out.good(), "tensor write failed");
}

Tensor read_tensor(std::istream& in) {
  std::uint32_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  GS_CHECK_MSG(in.good() && magic == kMagic, "bad tensor magic");
  std::uint32_t rank = 0;
  in.read(reinterpret_cast<char*>(&rank), sizeof(rank));
  GS_CHECK_MSG(in.good() && rank <= 8, "bad tensor rank " << rank);
  Shape shape(rank);
  for (auto& d : shape) {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    GS_CHECK_MSG(in.good() && v > 0 && v < (1ULL << 32), "bad tensor dim");
    d = static_cast<std::size_t>(v);
  }
  // Bound the payload by the bytes the stream actually holds BEFORE
  // allocating, so a hostile header can neither allocate nor zero-fill
  // more than the input it came with.
  const std::size_t numel = shape_numel(shape);
  const std::istream::pos_type pos = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(pos);
  GS_CHECK_MSG(pos != std::istream::pos_type(-1) && in.good(),
               "tensor stream is not seekable");
  GS_CHECK_MSG(numel <= static_cast<std::uint64_t>(end - pos) / sizeof(float),
               "tensor payload truncated: header claims "
                   << shape_to_string(shape) << ", stream holds "
                   << (end - pos) << " bytes");
  Tensor t(shape);
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(t.numel() * sizeof(float)));
  GS_CHECK_MSG(in.good(), "tensor payload truncated");
  return t;
}

void save_tensor(const std::string& path, const Tensor& t) {
  std::ofstream out(path, std::ios::binary);
  GS_CHECK_MSG(out.good(), "cannot open " << path);
  write_tensor(out, t);
}

Tensor load_tensor(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GS_CHECK_MSG(in.good(), "cannot open " << path);
  return read_tensor(in);
}

void save_matrix_csv(const std::string& path, const Tensor& t) {
  GS_CHECK(t.rank() == 2);
  std::ofstream out(path);
  GS_CHECK_MSG(out.good(), "cannot open " << path);
  for (std::size_t i = 0; i < t.rows(); ++i) {
    for (std::size_t j = 0; j < t.cols(); ++j) {
      if (j > 0) out << ',';
      out << t.at(i, j);
    }
    out << '\n';
  }
}

}  // namespace gs
