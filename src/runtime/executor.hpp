// Batched execution of a compiled CrossbarProgram.
//
// The executor is stateless with respect to requests (forward() is const and
// thread-safe), so one compiled program can serve many concurrent callers —
// the serving engine (runtime/shard.hpp) relies on this. The one thing it
// keeps between forwards is memory: every intermediate activation (the input
// copy, im2col patches, DAC-quantised inputs, stage outputs, re-tiled and
// pooled maps) comes from a mutex-guarded free list and goes back to it once
// the next step has consumed it, so a stream of batches reuses the same
// pages. Allocated afresh, a batch-32 ConvNet forward mapped and zero-filled
// ~50 MB of new pages, about 40 % of its time, at a cost that swung with the
// heap state earlier work left behind. Every reused buffer is overwritten in
// full, and the returned logits are a fresh tensor, so results are unchanged.
//
// One schedule: every crossbar stage runs the same loop whatever its
// lowering (padded, padded with skip marks, or repacked), in two passes on
// the gs::ThreadPool. The converter front-end takes each input row's full
// scale and DAC-quantises it, one task per row block. Then independent
// (input-row block × tile column) tasks — one per disjoint output region —
// walk the tile column's schedule (MatrixPlan::column_tiles, ascending tile
// row) and for each tile
//   * skip it if it is marked `skip` (a compile-time proof of an exactly
//     zero contribution — the empty crossbars group connection deletion
//     leaves behind);
//   * pack the block's inputs from the contiguous slice of each row, or
//     gather its live rows through `in_gather` (a repacked tile);
//   * run the row-block double-precision analog MVM
//     (AnalogCrossbar::accumulate_matmul) and each row's ADC;
//   * add each partial sum into the output slice directly, or through
//     `out_scatter`.
// Per-output-element arithmetic is a pure function of the row and the tile
// schedule (each partial adds its terms in ascending wire order whatever
// the kernel's blocking), independent of the thread count and the row
// blocking — results are bitwise identical for any GS_NUM_THREADS. A skipped
// tile or a dropped dead wire only ever removes an exact zero term from a
// fixed-order sum, so skipped, unskipped and repacked programs of the same
// network produce bitwise-identical logits (BENCH_runtime.json `tile_skip`
// and `repack` record the work saved).
//
// Converter model: DAC full scale is the per-input-vector max |x| (each
// sample / im2col patch row carries its own scale, so batched and
// single-sample execution agree exactly); ADC full scale is the no-overload
// bound x_max · w_max · P for a P-row library tile — the padded geometry,
// also on a repacked tile.
//
// Conv steps keep the materialised lowering (im2col_batch → stages →
// re-tile, tensor/im2col.hpp), not the implicit GEMM of nn::MatrixLayer:
// the DAC front-end scales each patch row by its own max |x| and quantises
// it before any tile reads it, and the tiles then read slices of those
// quantised rows, so every patch row is written out once per step anyway.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "data/dataset.hpp"
#include "obs/exec_profile.hpp"
#include "runtime/program.hpp"

namespace gs {
class ThreadPool;
}

namespace gs::obs {
class Trace;
}

namespace gs::runtime {

/// Optional per-request trace attachment for a forward: when `trace` is
/// non-null the executor records per-step and per-stage spans (annotated
/// with tile/ADC counts) under `parent`. Tracing only observes — it never
/// touches the arithmetic, so traced and untraced forwards are bitwise
/// identical.
struct ForwardTrace {
  obs::Trace* trace = nullptr;
  std::uint64_t parent = 0;  ///< span id the execute detail nests under
};

/// Thread-safety: forward() is const and safe from any number of threads
/// (a replica's dispatcher and its canary probes share one executor); the only
/// mutator is set_thread_pool(), which must not race forward().
/// Determinism: logits are bitwise identical at any pool size and invariant
/// to batch composition (per-input-vector converter scales); a traced
/// forward returns bitwise the same logits as an untraced one.
class Executor {
 public:
  /// Binds to `program` (borrowed; must outlive the executor). `pool`
  /// defaults to ThreadPool::global().
  explicit Executor(const CrossbarProgram& program,
                    ThreadPool* pool = nullptr);
  ~Executor();
  Executor(Executor&&) noexcept;
  Executor& operator=(Executor&&) noexcept;

  /// Runs a batch (B × sample dims) through the whole program; returns the
  /// logits (B × classes). Thread-safe; bitwise deterministic at any pool
  /// size.
  Tensor forward(const Tensor& batch) const;

  /// As above, recording execution-detail spans into `trace.trace` when
  /// set (see ForwardTrace).
  Tensor forward(const Tensor& batch, const ForwardTrace& trace) const;

  /// Per-sample energy-proxy profile of the bound program's CURRENT state
  /// (skip flags are live; see obs/exec_profile.hpp). Callers serialise
  /// against program mutation exactly as for forward().
  obs::ExecProfile profile() const { return obs::profile_program(*program_); }

  /// Injects an ad-hoc pool (nullptr restores the global pool) — used by the
  /// determinism tests.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  const CrossbarProgram& program() const { return *program_; }

 private:
  ThreadPool& pool() const;
  /// One crossbar stage: out (R × plan cols) = act (R × plan rows) through
  /// the programmed tiles with DAC/ADC at the stage boundary.
  void apply_plan(const MatrixPlan& plan, const Tensor& act,
                  Tensor& out) const;
  Tensor run_linear(const Step& step, const Tensor& act,
                    const ForwardTrace& trace) const;
  Tensor run_conv(const Step& step, const Tensor& act,
                  const ForwardTrace& trace) const;
  Tensor run_pool(const Step& step, const Tensor& act) const;

  /// Recycled activation buffers (defined in executor.cpp).
  class Buffers;

  const CrossbarProgram* program_;
  ThreadPool* pool_;
  std::unique_ptr<Buffers> buffers_;
};

/// Top-1 accuracy of the compiled program over `dataset` (first
/// `max_samples`, 0 = all) — the runtime counterpart of nn::evaluate, so
/// analog inference accuracy can be reported next to digital accuracy.
double evaluate(const Executor& executor, const data::Dataset& dataset,
                std::size_t max_samples = 0, std::size_t batch_size = 32);

}  // namespace gs::runtime
