#include "compress/group_index.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace gs::compress {

namespace {

ThreadPool& resolve(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::global();
}

/// Squared L2 norm of a contiguous span, double-accumulated in four
/// independent chains (vectorisable, and deterministic for a fixed length).
double sqnorm_span(const float* p, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    a0 += static_cast<double>(p[j]) * p[j];
    a1 += static_cast<double>(p[j + 1]) * p[j + 1];
    a2 += static_cast<double>(p[j + 2]) * p[j + 2];
    a3 += static_cast<double>(p[j + 3]) * p[j + 3];
  }
  for (; j < n; ++j) a0 += static_cast<double>(p[j]) * p[j];
  return (a0 + a1) + (a2 + a3);
}

/// One sweep task: the tile's index and slice, and its tile-local squared
/// group norms, row[i − slice.row_begin] and col[j − slice.col_begin].
struct TileNorms {
  std::size_t index = 0;
  hw::GroupSlice slice;
  std::vector<double> row;
  std::vector<double> col;
};

/// Runs fn(tile) once per tile, then copies the tile's norms into the
/// shared tables (row table i·grid_cols + tc, column table tr·cols + j).
/// The tiles of one tile row own neighbouring row-table doubles, so a task
/// updating the table in place would bounce cache lines between threads;
/// each task writes it once per row, at its end. Row norms are clamped at 0
/// on the way: apply_proximal and snap_zero_groups fold column-pass
/// removals in by subtraction, which can leave a tiny negative residue on a
/// row whose mass the column pass removed.
template <typename Fn>
void sweep_tiles(const hw::TileGrid& grid, ThreadPool* pool,
                 std::vector<double>& row_table,
                 std::vector<double>& col_table, Fn&& fn) {
  const std::size_t gc = grid.grid_cols();
  resolve(pool).parallel_for(grid.tile_count(), [&](std::size_t t) {
    const std::size_t tr = t / gc;
    const std::size_t tc = t % gc;
    TileNorms tile{t, hw::tile_slice(grid, tr, tc), {}, {}};
    const hw::GroupSlice& s = tile.slice;
    tile.row.assign(s.row_end - s.row_begin, 0.0);
    tile.col.assign(s.col_end - s.col_begin, 0.0);
    fn(tile);
    for (std::size_t r = 0; r < tile.row.size(); ++r) {
      row_table[(s.row_begin + r) * gc + tc] = std::max(tile.row[r], 0.0);
    }
    std::copy(tile.col.begin(), tile.col.end(),
              col_table.begin() + tr * grid.cols + s.col_begin);
  });
}

/// col_sq[j] += row[j]² over one row slice of a tile.
void add_squares(const float* row, std::vector<double>& col_sq) {
  for (std::size_t j = 0; j < col_sq.size(); ++j) {
    col_sq[j] += static_cast<double>(row[j]) * row[j];
  }
}

}  // namespace

GroupIndex::GroupIndex(hw::TileGrid grid) : grid_(grid) {
  GS_CHECK(grid_.rows > 0 && grid_.cols > 0);
  GS_CHECK(grid_.tile.rows > 0 && grid_.tile.cols > 0);
  row_sq_.assign(grid_.row_group_count(), 0.0);
  col_sq_.assign(grid_.col_group_count(), 0.0);
}

void GroupIndex::refresh(const Tensor& w, ThreadPool* pool) {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  const std::size_t stride = grid_.cols;
  const float* base = w.data();
  sweep_tiles(grid_, pool, row_sq_, col_sq_, [&](TileNorms& tile) {
    const hw::GroupSlice& s = tile.slice;
    for (std::size_t r = 0; r < tile.row.size(); ++r) {
      const float* row = base + (s.row_begin + r) * stride + s.col_begin;
      tile.row[r] = sqnorm_span(row, tile.col.size());
      add_squares(row, tile.col);
    }
  });
  stats_valid_ = true;
}

double GroupIndex::penalty_sum(bool row_groups, bool col_groups) const {
  GS_CHECK_MSG(stats_valid_, "penalty_sum before any refresh");
  double acc = 0.0;
  if (row_groups) {
    for (const double sq : row_sq_) acc += std::sqrt(sq);
  }
  if (col_groups) {
    for (const double sq : col_sq_) acc += std::sqrt(sq);
  }
  return acc;
}

hw::WireCount GroupIndex::census(double tol) const {
  GS_CHECK_MSG(stats_valid_, "census before any refresh");
  GS_CHECK(tol >= 0.0);
  const double sq_tol = tol * tol;
  hw::WireCount wires;
  wires.total = grid_.total_wires();
  for (const double sq : row_sq_) {
    if (sq > sq_tol) ++wires.remaining;
  }
  for (const double sq : col_sq_) {
    if (sq > sq_tol) ++wires.remaining;
  }
  return wires;
}

void GroupIndex::add_gradient(const Tensor& w, Tensor& g, double lambda,
                              double epsilon, bool row_groups, bool col_groups,
                              ThreadPool* pool) {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  GS_CHECK(w.same_shape(g));
  const std::size_t stride = grid_.cols;
  const float* base = w.data();
  float* gbase = g.data();
  sweep_tiles(grid_, pool, row_sq_, col_sq_, [&](TileNorms& tile) {
    const hw::GroupSlice& s = tile.slice;
    const std::size_t width = tile.col.size();
    // Pass 1: all group norms of the tile (cached for the census).
    for (std::size_t r = 0; r < tile.row.size(); ++r) {
      const float* row = base + (s.row_begin + r) * stride + s.col_begin;
      tile.row[r] = sqnorm_span(row, width);
      add_squares(row, tile.col);
    }
    std::vector<double> col_scale(width, 0.0);
    for (std::size_t j = 0; j < width; ++j) {
      col_scale[j] = lambda / (std::sqrt(tile.col[j]) + epsilon);
    }
    // Pass 2: Eq. (6) terms, row contribution then column contribution per
    // element (the order the scalar group sweeps applied them in).
    for (std::size_t r = 0; r < tile.row.size(); ++r) {
      const float* row = base + (s.row_begin + r) * stride + s.col_begin;
      float* grow = gbase + (s.row_begin + r) * stride + s.col_begin;
      const double rs = lambda / (std::sqrt(tile.row[r]) + epsilon);
      for (std::size_t j = 0; j < width; ++j) {
        const double wij = row[j];
        if (row_groups) grow[j] += static_cast<float>(rs * wij);
        if (col_groups) grow[j] += static_cast<float>(col_scale[j] * wij);
      }
    }
  });
  stats_valid_ = true;
}

void GroupIndex::apply_proximal(Tensor& w, double threshold, bool row_groups,
                                bool col_groups, ThreadPool* pool) {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  GS_CHECK(threshold > 0.0);
  const std::size_t stride = grid_.cols;
  float* base = w.data();
  sweep_tiles(grid_, pool, row_sq_, col_sq_, [&](TileNorms& tile) {
    const hw::GroupSlice& s = tile.slice;
    const std::size_t height = tile.row.size();
    const std::size_t width = tile.col.size();
    // Row pass: soft-threshold each row group of the tile; the shrink folds
    // into the cached squared norm instead of a rescan.
    for (std::size_t r = 0; r < height; ++r) {
      float* row = base + (s.row_begin + r) * stride + s.col_begin;
      const double sq = sqnorm_span(row, width);
      tile.row[r] = sq;
      if (!row_groups) continue;
      const double norm = std::sqrt(sq);
      if (norm <= threshold) {
        if (sq != 0.0) {
          for (std::size_t j = 0; j < width; ++j) row[j] = 0.0f;
        }
        tile.row[r] = 0.0;
        continue;
      }
      const float shrink = static_cast<float>(1.0 - threshold / norm);
      if (shrink >= 1.0f) continue;  // float no-op: ×1.0f is the identity
      for (std::size_t j = 0; j < width; ++j) row[j] *= shrink;
      tile.row[r] = sq * static_cast<double>(shrink) * shrink;
    }
    // Column pass on the row-shrunk weights. Column shrinks are folded back
    // into the row norms element-by-element so the caches stay coherent
    // without another sweep.
    for (std::size_t r = 0; r < height; ++r) {
      add_squares(base + (s.row_begin + r) * stride + s.col_begin, tile.col);
    }
    if (!col_groups) return;
    for (std::size_t j = 0; j < width; ++j) {
      const double sq = tile.col[j];
      const double norm = std::sqrt(sq);
      float* cell = base + s.row_begin * stride + s.col_begin + j;
      if (norm <= threshold) {
        if (sq != 0.0) {
          for (std::size_t r = 0; r < height; ++r, cell += stride) {
            const double old = *cell;
            tile.row[r] -= old * old;
            *cell = 0.0f;
          }
        }
        tile.col[j] = 0.0;
        continue;
      }
      const float shrink = static_cast<float>(1.0 - threshold / norm);
      if (shrink >= 1.0f) continue;
      const double sq_scale = static_cast<double>(shrink) * shrink;
      for (std::size_t r = 0; r < height; ++r, cell += stride) {
        const double old = *cell;
        tile.row[r] += (sq_scale - 1.0) * old * old;
        *cell *= shrink;
      }
      tile.col[j] = sq * sq_scale;
    }
  });
  stats_valid_ = true;
}

std::size_t GroupIndex::snap_zero_groups(Tensor& w, double tol,
                                         bool row_groups, bool col_groups,
                                         ThreadPool* pool) {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  GS_CHECK(tol >= 0.0);
  const std::size_t stride = grid_.cols;
  float* base = w.data();
  std::vector<std::size_t> snapped(grid_.tile_count(), 0);
  sweep_tiles(grid_, pool, row_sq_, col_sq_, [&](TileNorms& tile) {
    const hw::GroupSlice& s = tile.slice;
    const std::size_t height = tile.row.size();
    const std::size_t width = tile.col.size();
    std::size_t count = 0;
    for (std::size_t r = 0; r < height; ++r) {
      float* row = base + (s.row_begin + r) * stride + s.col_begin;
      const double sq = sqnorm_span(row, width);
      const double norm = std::sqrt(sq);
      if (row_groups && norm > 0.0 && norm < tol) {
        for (std::size_t j = 0; j < width; ++j) row[j] = 0.0f;
        tile.row[r] = 0.0;
        ++count;
      } else {
        tile.row[r] = sq;
      }
    }
    // Column norms on the row-snapped weights (matches the sequential
    // row-family-first order of the scalar implementation).
    for (std::size_t r = 0; r < height; ++r) {
      add_squares(base + (s.row_begin + r) * stride + s.col_begin, tile.col);
    }
    for (std::size_t j = 0; j < width; ++j) {
      const double norm = std::sqrt(tile.col[j]);
      if (col_groups && norm > 0.0 && norm < tol) {
        float* cell = base + s.row_begin * stride + s.col_begin + j;
        for (std::size_t r = 0; r < height; ++r, cell += stride) {
          const double old = *cell;
          tile.row[r] -= old * old;
          *cell = 0.0f;
        }
        tile.col[j] = 0.0;
        ++count;
      }
    }
    snapped[tile.index] = count;
  });
  stats_valid_ = true;
  std::size_t total = 0;
  for (const std::size_t count : snapped) total += count;
  return total;
}

void GroupIndex::zero_group_mask(const Tensor& w, Tensor& mask, float tol,
                                 ThreadPool* pool) const {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  GS_CHECK(w.same_shape(mask));
  const std::size_t gc = grid_.grid_cols();
  const std::size_t stride = grid_.cols;
  const float* base = w.data();
  float* mbase = mask.data();
  resolve(pool).parallel_for(grid_.tile_count(), [&](std::size_t t) {
    const std::size_t tr = t / gc;
    const std::size_t tc = t % gc;
    const hw::GroupSlice s = hw::tile_slice(grid_, tr, tc);
    const std::size_t width = s.col_end - s.col_begin;
    std::vector<char> col_live(width, 0);
    for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
      const float* row = base + i * stride + s.col_begin;
      bool row_live = false;
      for (std::size_t j = 0; j < width; ++j) {
        if (std::fabs(row[j]) > tol) {
          row_live = true;
          col_live[j] = 1;
        }
      }
      if (!row_live) {
        float* mrow = mbase + i * stride + s.col_begin;
        for (std::size_t j = 0; j < width; ++j) mrow[j] = 0.0f;
      }
    }
    for (std::size_t j = 0; j < width; ++j) {
      if (col_live[j]) continue;
      float* cell = mbase + s.row_begin * stride + s.col_begin + j;
      for (std::size_t i = s.row_begin; i < s.row_end; ++i, cell += stride) {
        *cell = 0.0f;
      }
    }
  });
}

}  // namespace gs::compress
