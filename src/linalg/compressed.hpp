// Block-compressed GEMM — the digital twin of crossbar repacking.
//
// Group connection deletion zeroes whole rows (input wires) and columns
// (output wires) of a weight matrix. The analog runtime repacks the deleted
// matrix onto smaller crossbars (runtime/program.hpp, CompileOptions::
// repack); this module gives the DIGITAL forward the same treatment, in the
// compress-then-multiply shape of cuSPARSELt: compress W once into a packed
// live-rows × live-cols panel plus two remap vectors, then multiply the
// physically smaller matrix —
//
//   gather   xg(:, i) = x(:, row_map[i])          (drop deleted inputs)
//   GEMM     og = xg · packed                      (small dense product)
//   scatter  out(:, col_map[j]) = og(:, j)         (deleted outputs = 0)
//
// All three are one call of the packed/cache-blocked kernel of
// linalg/gemm_kernel.hpp: its A packer reads x through row_map
// (MatrixSource::live_k) and its write-back stores through col_map
// (RowMajorStore::cols), so compression multiplies a smaller problem through
// the SAME kernel and no gathered or compact product is materialised. When
// every row and column is live the panel IS the original matrix and the call
// is a plain product, bitwise identical to the dense path.
//
// Exactness: when every dropped element is exactly 0.0f (tol = 0 and true
// zeros, the group-deletion case), dropping it removes only exact-zero terms
// from each output dot product, so compressed results equal the dense
// product up to summation of identical term sequences. With tol > 0 the
// product is an approximation that ignores |w| ≤ tol.
//
// Thread-safety: compress_panel and compressed_gemm are pure functions of
// caller-owned inputs (the GEMM dispatches over ThreadPool::global() like
// every gs::gemm call); a CompressedPanel is immutable after construction
// and safe to share across threads.
// Determinism: the gather and scatter are fixed index maps inside the one
// kernel, so results are bitwise identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace gs::linalg {

/// A weight matrix compressed to its live rows × live columns, plus the
/// remap vectors that tie the packed panel back to the original index space.
struct CompressedPanel {
  Tensor packed;                      ///< (live rows, live cols) dense panel
  std::vector<std::uint32_t> row_map; ///< ascending original row indices
  std::vector<std::uint32_t> col_map; ///< ascending original column indices
  std::size_t rows = 0;               ///< original row count
  std::size_t cols = 0;               ///< original column count

  std::size_t live_rows() const { return row_map.size(); }
  std::size_t live_cols() const { return col_map.size(); }
  /// No live element at all — the product is identically zero.
  bool empty() const { return row_map.empty() || col_map.empty(); }
  /// Nothing was removed: the panel is the original matrix and
  /// compressed_gemm degenerates to a plain product.
  bool all_live() const {
    return row_map.size() == rows && col_map.size() == cols;
  }
  /// Packed cells kept relative to the dense matrix (1.0 = no saving).
  double cells_ratio() const {
    const std::size_t dense = rows * cols;
    return dense == 0 ? 1.0
                      : static_cast<double>(live_rows() * live_cols()) /
                            static_cast<double>(dense);
  }
};

/// Compresses `w` (rank 2): a row/column is live when it holds at least one
/// element with |w| > tol. Elements inside live rows AND live columns are
/// kept verbatim (including sub-tolerance ones), so with tol = 0 the packed
/// panel loses exactly the all-zero rows and columns.
CompressedPanel compress_panel(const Tensor& w, float tol = 0.0f);

/// out = x · W via the compressed panel. x is (batch, rows), out must be
/// preallocated (batch, cols); deleted output columns are written as 0.
/// out must not alias x.
void compressed_gemm(const Tensor& x, const CompressedPanel& panel,
                     Tensor& out);

/// Returns x · W as a fresh (batch, cols) tensor.
Tensor compressed_matmul(const Tensor& x, const CompressedPanel& panel);

}  // namespace gs::linalg
