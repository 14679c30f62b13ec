#include "linalg/compressed.hpp"

#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "linalg/gemm_kernel.hpp"

namespace gs::linalg {

CompressedPanel compress_panel(const Tensor& w, float tol) {
  GS_CHECK_MSG(w.rank() == 2, "compress_panel needs a rank-2 matrix");
  GS_CHECK(tol >= 0.0f);
  CompressedPanel panel;
  panel.rows = w.rows();
  panel.cols = w.cols();

  std::vector<char> row_live(panel.rows, 0);
  std::vector<char> col_live(panel.cols, 0);
  for (std::size_t i = 0; i < panel.rows; ++i) {
    const float* row = w.data() + i * panel.cols;
    for (std::size_t j = 0; j < panel.cols; ++j) {
      if (std::fabs(row[j]) > tol) {
        row_live[i] = 1;
        col_live[j] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < panel.rows; ++i) {
    if (row_live[i]) panel.row_map.push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t j = 0; j < panel.cols; ++j) {
    if (col_live[j]) panel.col_map.push_back(static_cast<std::uint32_t>(j));
  }
  if (panel.empty()) return panel;

  panel.packed = Tensor(Shape{panel.row_map.size(), panel.col_map.size()});
  for (std::size_t ii = 0; ii < panel.row_map.size(); ++ii) {
    const float* src = w.data() + panel.row_map[ii] * panel.cols;
    float* dst = panel.packed.data() + ii * panel.col_map.size();
    for (std::size_t jj = 0; jj < panel.col_map.size(); ++jj) {
      dst[jj] = src[panel.col_map[jj]];
    }
  }
  return panel;
}

void compressed_gemm(const Tensor& x, const CompressedPanel& panel,
                     Tensor& out) {
  GS_CHECK(x.rank() == 2 && x.cols() == panel.rows);
  GS_CHECK(out.rank() == 2 && out.rows() == x.rows() &&
           out.cols() == panel.cols);
  GS_CHECK_MSG(out.data() != x.data(), "compressed_gemm output aliases x");
  // Deleted columns are exact zeros; the live ones are overwritten below.
  out.set_zero();
  if (panel.empty()) return;
  // Nothing removed: a plain product against the panel, bitwise gemm
  // against the original matrix.
  const bool all_live = panel.all_live();
  kernel::sgemm(
      x.rows(), panel.live_cols(), panel.live_rows(), 1.0f,
      kernel::MatrixSource{x.data(), panel.rows, false,
                           all_live ? nullptr : panel.row_map.data()},
      kernel::MatrixSource{panel.packed.data(), panel.live_cols()}, 0.0f,
      kernel::RowMajorStore{out.data(), panel.cols, nullptr,
                            all_live ? nullptr : panel.col_map.data()});
}

Tensor compressed_matmul(const Tensor& x, const CompressedPanel& panel) {
  Tensor out(Shape{x.rows(), panel.cols});
  compressed_gemm(x, panel, out);
  return out;
}

}  // namespace gs::linalg
