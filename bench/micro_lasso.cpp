// Group-analytics engine benchmark: the tile-indexed parallel sweeps of
// compress::GroupIndex vs. the seed's scalar group loops (checked at()
// element access, one group_norm rescan per group per call) on the
// LeNet-scale deletion-phase matrices of Table 3: fc1_u 800×36,
// fc1_v 36×500, fc2 500×10.
//
// Emits BENCH_lasso.json (seconds and speedup per case, plus a bitwise
// thread-count determinism record) into the working directory and prints
// the same table to stdout. Thread count follows GS_NUM_THREADS. Pass
// --smoke for a tiny-size, few-rep run (CI sanitizer smoke).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "compress/group_lasso.hpp"
#include "hw/area.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"

namespace gs::bench {
namespace {

// ---- Seed replicas ---------------------------------------------------------
// Verbatim re-implementations of the pre-engine scalar paths (group_lasso.cpp
// and hw/{area,tiling}.cpp before the GroupIndex subsystem), kept here so the
// speedup trajectory stays measurable against the original baseline.

double seed_group_norm(const Tensor& m, const hw::GroupSlice& slice) {
  double acc = 0.0;
  for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
    for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
      const double v = m.at(i, j);
      acc += v * v;
    }
  }
  return std::sqrt(acc);
}

bool seed_group_is_zero(const Tensor& m, const hw::GroupSlice& slice,
                        float tol) {
  for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
    for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
      if (std::fabs(m.at(i, j)) > tol) return false;
    }
  }
  return true;
}

template <typename PerGroup>
void seed_for_each_group(const hw::TileGrid& grid, PerGroup&& fn) {
  for (std::size_t i = 0; i < grid.rows; ++i) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      fn(hw::row_group_slice(grid, i, tc));
    }
  }
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t j = 0; j < grid.cols; ++j) {
      fn(hw::col_group_slice(grid, tr, j));
    }
  }
}

void seed_add_gradient(const std::vector<compress::LassoTarget>& targets,
                       double lambda, double epsilon) {
  for (const compress::LassoTarget& target : targets) {
    Tensor& w = target.values();
    Tensor& g = target.grads();
    seed_for_each_group(target.grid, [&](const hw::GroupSlice& slice) {
      const double norm = seed_group_norm(w, slice);
      const double scale = lambda / (norm + epsilon);
      for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
        for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
          g.at(i, j) += static_cast<float>(scale * w.at(i, j));
        }
      }
    });
  }
}

void seed_apply_proximal(const std::vector<compress::LassoTarget>& targets,
                         double threshold) {
  for (const compress::LassoTarget& target : targets) {
    Tensor& w = target.values();
    seed_for_each_group(target.grid, [&](const hw::GroupSlice& slice) {
      const double norm = seed_group_norm(w, slice);
      const double shrink = norm <= threshold ? 0.0 : 1.0 - threshold / norm;
      if (shrink == 1.0) return;
      const float s = static_cast<float>(shrink);
      for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
        for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
          w.at(i, j) *= s;
        }
      }
    });
  }
}

double seed_penalty(const std::vector<compress::LassoTarget>& targets,
                    double lambda) {
  double acc = 0.0;
  for (const compress::LassoTarget& target : targets) {
    seed_for_each_group(target.grid, [&](const hw::GroupSlice& slice) {
      acc += seed_group_norm(target.values(), slice);
    });
  }
  return lambda * acc;
}

hw::WireCount seed_count_routing_wires(const Tensor& m,
                                       const hw::TileGrid& grid, float tol) {
  hw::WireCount wires;
  wires.total = grid.total_wires();
  for (std::size_t i = 0; i < grid.rows; ++i) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      if (!seed_group_is_zero(m, hw::row_group_slice(grid, i, tc), tol)) {
        ++wires.remaining;
      }
    }
  }
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t j = 0; j < grid.cols; ++j) {
      if (!seed_group_is_zero(m, hw::col_group_slice(grid, tr, j), tol)) {
        ++wires.remaining;
      }
    }
  }
  return wires;
}

std::vector<hw::TileOccupancy> seed_analyze_tiles(const Tensor& m,
                                                  const hw::TileGrid& grid,
                                                  float tol) {
  std::vector<hw::TileOccupancy> tiles;
  tiles.reserve(grid.tile_count());
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      hw::TileOccupancy occ;
      occ.tile_row = tr;
      occ.tile_col = tc;
      const std::size_t r0 = tr * grid.tile.rows;
      const std::size_t r1 = std::min(r0 + grid.tile.rows, grid.rows);
      const std::size_t c0 = tc * grid.tile.cols;
      const std::size_t c1 = std::min(c0 + grid.tile.cols, grid.cols);
      std::vector<bool> col_hit(c1 - c0, false);
      for (std::size_t i = r0; i < r1; ++i) {
        bool row_hit = false;
        for (std::size_t j = c0; j < c1; ++j) {
          if (std::fabs(m.at(i, j)) > tol) {
            ++occ.nonzero_cells;
            row_hit = true;
            col_hit[j - c0] = true;
          }
        }
        if (row_hit) ++occ.nonzero_rows;
      }
      occ.nonzero_cols = static_cast<std::size_t>(
          std::count(col_hit.begin(), col_hit.end(), true));
      tiles.push_back(occ);
    }
  }
  return tiles;
}

// ---- Fixture ---------------------------------------------------------------

struct Sizes {
  std::size_t in, out, rank;
  std::size_t phase_steps;
  std::size_t census_every;
  int reps;
};

struct Fixture {
  nn::Network net;
  std::unique_ptr<compress::GroupLassoRegularizer> prox;
  std::unique_ptr<compress::GroupLassoRegularizer> grad;
  std::vector<Tensor> saved;  // pristine weights, one per target

  void restore() const {
    for (std::size_t t = 0; t < prox->targets().size(); ++t) {
      prox->targets()[t].values() = saved[t];
    }
  }
};

Fixture make_fixture(const Sizes& sz) {
  Fixture fx;
  Rng rng(7);
  fx.net.add(std::make_unique<nn::LowRankDense>("fc1", sz.in, sz.out, sz.rank,
                                                rng));
  fx.net.add(std::make_unique<nn::DenseLayer>("fc2", sz.out, 10, rng));
  compress::GroupLassoConfig prox_cfg;
  prox_cfg.lambda = 0.05;
  prox_cfg.mode = compress::LassoMode::kProximal;
  compress::GroupLassoConfig grad_cfg = prox_cfg;
  grad_cfg.mode = compress::LassoMode::kGradient;
  fx.prox = std::make_unique<compress::GroupLassoRegularizer>(
      fx.net, hw::paper_technology(), prox_cfg);
  fx.grad = std::make_unique<compress::GroupLassoRegularizer>(
      fx.net, hw::paper_technology(), grad_cfg);
  // Sparsify a little so census/occupancy paths see real zeros.
  for (const compress::LassoTarget& target : fx.prox->targets()) {
    Tensor& w = target.values();
    for (std::size_t i = 0; i < w.rows(); i += 7) {
      for (std::size_t j = 0; j < w.cols(); ++j) w.at(i, j) = 0.0f;
    }
    fx.saved.push_back(w);
  }
  return fx;
}

/// Times the pair and records per-invocation seconds, the median and the
/// interquartile range of the timed calls. `inner` divides the
/// measured wall clock: per-step cases run `inner` consecutive sweeps per
/// timed call so the one-off fixture reset (weight restore / grad zeroing)
/// amortises away instead of biasing the ratio toward 1×.
BenchRecord run_pair(const char* name, const char* kind,
                     const std::function<void()>& seed_fn,
                     const std::function<void()>& engine_fn, int reps,
                     int inner = 1) {
  const Quartiles seed = time_quartiles_seconds(seed_fn, reps);
  const Quartiles engine = time_quartiles_seconds(engine_fn, reps);
  const double seed_s = seed.median / inner;
  const double engine_s = engine.median / inner;
  BenchRecord rec;
  rec.name = name;
  rec.label("kind", kind);
  rec.metric("seed_seconds", seed_s)
      .metric("seed_iqr_seconds", (seed.q3 - seed.q1) / inner)
      .metric("engine_seconds", engine_s)
      .metric("engine_iqr_seconds", (engine.q3 - engine.q1) / inner)
      .metric("speedup", seed_s / engine_s);
  std::printf("%-26s %-16s seed %9.5fs  engine %9.5fs  x%.2f\n", name, kind,
              seed_s, engine_s, seed_s / engine_s);
  return rec;
}

/// Bitwise determinism across thread counts: identical nets swept by an
/// ad-hoc 1-thread pool and a 4-thread pool must produce identical weights,
/// gradients and census counts.
bool determinism_check(const Sizes& sz) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  Fixture a = make_fixture(sz);
  Fixture b = make_fixture(sz);
  a.prox->set_thread_pool(&pool1);
  a.grad->set_thread_pool(&pool1);
  b.prox->set_thread_pool(&pool4);
  b.grad->set_thread_pool(&pool4);
  for (int step = 0; step < 3; ++step) {
    a.prox->apply_proximal(0.01f);
    b.prox->apply_proximal(0.01f);
    a.grad->add_gradient();
    b.grad->add_gradient();
  }
  const auto census_a = a.prox->census(1e-3);
  const auto census_b = b.prox->census(1e-3);
  for (std::size_t t = 0; t < a.prox->targets().size(); ++t) {
    const Tensor& wa = a.prox->targets()[t].values();
    const Tensor& wb = b.prox->targets()[t].values();
    const Tensor& ga = a.prox->targets()[t].grads();
    const Tensor& gb = b.prox->targets()[t].grads();
    if (std::memcmp(wa.data(), wb.data(), wa.numel() * sizeof(float)) != 0) {
      return false;
    }
    if (std::memcmp(ga.data(), gb.data(), ga.numel() * sizeof(float)) != 0) {
      return false;
    }
    if (census_a[t].remaining != census_b[t].remaining) return false;
  }
  return true;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  using namespace gs;
  using namespace gs::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const Sizes sz = smoke ? Sizes{96, 80, 8, 10, 5, 2}
                         : Sizes{800, 500, 36, 60, 10, 21};

  section(smoke ? "micro_lasso (smoke): GroupIndex engine vs seed scalar"
                : "micro_lasso: GroupIndex engine vs seed scalar sweeps");
  note("targets: fc1_u " + std::to_string(sz.in) + "x" +
       std::to_string(sz.rank) + ", fc1_v " + std::to_string(sz.rank) + "x" +
       std::to_string(sz.out) + ", fc2 " + std::to_string(sz.out) + "x10");

  Fixture fx = make_fixture(sz);
  const std::vector<compress::LassoTarget>& targets = fx.prox->targets();
  const double lambda = fx.prox->config().lambda;
  const double epsilon = fx.prox->config().epsilon;
  const float lr = 0.01f;
  const double threshold = static_cast<double>(lr) * lambda;
  const float census_tol = 1e-3f;

  std::vector<BenchRecord> records;

  constexpr int kStepBatch = 16;  // sweeps per timed call (amortises resets)
  records.push_back(run_pair(
      "proximal_step", "lasso",
      [&] {
        fx.restore();
        for (int s = 0; s < kStepBatch; ++s) {
          seed_apply_proximal(targets, threshold);
        }
      },
      [&] {
        fx.restore();
        for (int s = 0; s < kStepBatch; ++s) fx.prox->apply_proximal(lr);
      },
      sz.reps, kStepBatch));

  records.push_back(run_pair(
      "gradient_step", "lasso",
      [&] {
        for (const auto& t : targets) t.grads().set_zero();
        for (int s = 0; s < kStepBatch; ++s) {
          seed_add_gradient(targets, lambda, epsilon);
        }
      },
      [&] {
        for (const auto& t : targets) t.grads().set_zero();
        for (int s = 0; s < kStepBatch; ++s) fx.grad->add_gradient();
      },
      sz.reps, kStepBatch));

  fx.restore();
  records.push_back(run_pair(
      "penalty", "lasso", [&] { seed_penalty(targets, lambda); },
      [&] { fx.prox->penalty(); }, sz.reps));

  records.push_back(run_pair(
      "census_fresh", "census",
      [&] {
        for (const auto& t : targets) {
          seed_count_routing_wires(t.values(), t.grid, census_tol);
        }
      },
      [&] {
        for (const auto& t : targets) {
          hw::count_routing_wires(t.values(), t.grid, census_tol);
        }
      },
      sz.reps));

  // Cached census: the engine path between training snapshots — an
  // O(groups) table scan against the seed's O(rows·cols) matrix rescan.
  fx.prox->refresh_group_stats();
  records.push_back(run_pair(
      "census_cached", "census",
      [&] {
        for (const auto& t : targets) {
          seed_count_routing_wires(t.values(), t.grid, census_tol);
        }
      },
      [&] { fx.prox->census(census_tol); }, sz.reps));

  records.push_back(run_pair(
      "analyze_tiles", "tiling",
      [&] {
        for (const auto& t : targets) {
          seed_analyze_tiles(t.values(), t.grid, 0.0f);
        }
      },
      [&] {
        for (const auto& t : targets) {
          hw::analyze_tiles(t.values(), t.grid, 0.0f);
        }
      },
      sz.reps));

  // Headline: the phase-3 deletion loop at LeNet scale — lasso sweep every
  // step, wire census every census_every steps.
  records.push_back(run_pair(
      "deletion_phase_proximal", "phase",
      [&] {
        fx.restore();
        for (std::size_t s = 1; s <= sz.phase_steps; ++s) {
          seed_apply_proximal(targets, threshold);
          if (s % sz.census_every == 0) {
            for (const auto& t : targets) {
              seed_count_routing_wires(t.values(), t.grid, census_tol);
            }
          }
        }
      },
      [&] {
        fx.restore();
        for (std::size_t s = 1; s <= sz.phase_steps; ++s) {
          fx.prox->apply_proximal(lr);
          if (s % sz.census_every == 0) fx.prox->census(census_tol);
        }
      },
      sz.reps));

  records.push_back(run_pair(
      "deletion_phase_gradient", "phase",
      [&] {
        fx.restore();
        for (std::size_t s = 1; s <= sz.phase_steps; ++s) {
          for (const auto& t : targets) t.grads().set_zero();
          seed_add_gradient(targets, lambda, epsilon);
          if (s % sz.census_every == 0) {
            for (const auto& t : targets) {
              seed_count_routing_wires(t.values(), t.grid, census_tol);
            }
          }
        }
      },
      [&] {
        fx.restore();
        for (std::size_t s = 1; s <= sz.phase_steps; ++s) {
          for (const auto& t : targets) t.grads().set_zero();
          fx.grad->add_gradient();
          if (s % sz.census_every == 0) fx.grad->census(census_tol);
        }
      },
      sz.reps));

  const bool deterministic = determinism_check(sz);
  {
    BenchRecord rec;
    rec.name = "thread_determinism";
    rec.label("kind", "check").label(
        "detail", "bitwise equal weights/grads/census, pools {1,4}");
    rec.metric("bitwise_identical", deterministic ? 1.0 : 0.0);
    std::printf("%-26s %-16s %s\n", "thread_determinism", "check",
                deterministic ? "bitwise identical" : "MISMATCH");
    records.push_back(rec);
  }

  write_bench_json("BENCH_lasso.json", "lasso", records);
  note("\nwrote BENCH_lasso.json");
  return deterministic ? 0 : 1;
}
