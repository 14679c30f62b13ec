// Execution profiling — the paper's energy proxies, counted per request.
//
// Group Scissor's argument is an accounting argument: deleted wires and
// empty tiles buy fewer DAC/ADC conversions, fewer analog MVMs, and less
// digital partial-sum traffic. profile_program() walks a compiled
// CrossbarProgram's step/stage/tile schedule and prices ONE sample through
// it — a pure, O(tiles) function of the program's static structure (and its
// current skip flags), so the serving hot path never counts per-tile events:
// the executor/server multiplies the per-sample profile by the batch size
// after each forward.
//
// Counting model (per sample). Every crossbar stage runs one schedule —
// MatrixPlan::column_tiles, the same walk for padded, skip-marked and
// repacked plans (runtime/program.hpp) — so one stage price covers all three:
//  * dac_conversions — one per input-vector element entering a crossbar
//    stage (each im2col patch row of a conv is its own input vector), i.e.
//    MatrixPlan::live_input_wires: every matrix row on a padded plan, only
//    rows live in ≥1 programmed tile on a repacked one;
//  * analog_mvms — one per (input vector × non-skipped tile);
//  * adc_conversions — one per PHYSICAL output column of each non-skipped
//    tile, per input vector: xbar.cols(), the slice width of a padded tile
//    or the live-column count of a repacked one;
//  * tiles_executed / tiles_skipped — STATIC tile counts of the schedule
//    (they match CrossbarProgram::tile_count / skipped_tile_count, and the
//    compile-time `runtime_skipped_tiles` reported in BENCH_runtime.json);
//  * digital_flops — partial-sum additions, bias adds, ReLU max ops, and
//    pooling window ops;
//  * partial_sum_bytes — bytes of per-tile partial sums handed to the
//    digital accumulator (8-byte doubles, non-skipped tiles only).
//
// add_stage() is that per-stage price; the executor annotates its per-stage
// trace spans from it, so span counts and profiles agree by construction.
//
// Because skip flags are live program state (fault injection can clear
// them), callers under a program lock recompute the profile per batch —
// the walk is a few hundred adds and costs nothing next to a forward.
//
// Thread-safety: profile_program() is a pure read of the program; callers
// serialise it against concurrent program mutation exactly as they do
// Executor::forward (the sharded server holds the replica program lock).
// Determinism: the profile is a pure function of the program structure —
// identical programs yield identical profiles at any thread count.
#pragma once

#include <cstdint>

#include "runtime/program.hpp"

namespace gs::obs {

/// Energy-proxy event counts for ONE sample through a compiled program.
struct ExecProfile {
  std::uint64_t dac_conversions = 0;
  std::uint64_t adc_conversions = 0;
  std::uint64_t analog_mvms = 0;
  std::uint64_t tiles_executed = 0;  ///< static schedule count (non-skipped)
  std::uint64_t tiles_skipped = 0;   ///< static schedule count (skip-marked)
  std::uint64_t digital_flops = 0;
  std::uint64_t partial_sum_bytes = 0;

  /// Dynamic event counts scaled to a batch of `n` samples; the static tile
  /// counts (a property of the schedule, not of traffic) stay as-is.
  ExecProfile scaled(std::uint64_t n) const {
    ExecProfile p = *this;
    p.dac_conversions *= n;
    p.adc_conversions *= n;
    p.analog_mvms *= n;
    p.digital_flops *= n;
    p.partial_sum_bytes *= n;
    return p;
  }
};

/// Adds the price of `rows` input vectors through one crossbar stage to `p`
/// (see the counting model above; the static tile counts are added once).
void add_stage(const runtime::MatrixPlan& plan, std::uint64_t rows,
               ExecProfile& p);

/// Prices one sample through `program` (see the counting model above).
ExecProfile profile_program(const runtime::CrossbarProgram& program);

}  // namespace gs::obs
