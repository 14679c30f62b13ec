#include "obs/exec_profile.hpp"

namespace gs::obs {

void add_stage(const runtime::MatrixPlan& plan, std::uint64_t rows,
               ExecProfile& p) {
  p.dac_conversions +=
      rows * static_cast<std::uint64_t>(plan.live_input_wires);
  for (const runtime::ProgramTile& tile : plan.tiles) {
    if (tile.skip) {
      ++p.tiles_skipped;
      continue;
    }
    ++p.tiles_executed;
    const std::uint64_t width = tile.xbar.cols();
    p.analog_mvms += rows;
    p.adc_conversions += rows * width;
    // Digital partial-sum accumulation: one add per ADC output, plus the
    // 8-byte double handed to the accumulator.
    p.digital_flops += rows * width;
    p.partial_sum_bytes += rows * width * sizeof(double);
  }
}

ExecProfile profile_program(const runtime::CrossbarProgram& program) {
  ExecProfile p;
  for (const runtime::Step& step : program.steps()) {
    switch (step.kind) {
      case runtime::Step::Kind::kLinear: {
        // One input vector per sample through each chained stage.
        for (const runtime::MatrixPlan& plan : step.stages) {
          add_stage(plan, 1, p);
        }
        if (step.bias.numel() > 0) p.digital_flops += step.bias.numel();
        break;
      }
      case runtime::Step::Kind::kConv: {
        // Every im2col patch row is its own input vector with its own DAC
        // full scale — the executor's per-input-vector converter contract.
        const std::uint64_t patches =
            static_cast<std::uint64_t>(step.geometry.out_height()) *
            step.geometry.out_width();
        for (const runtime::MatrixPlan& plan : step.stages) {
          add_stage(plan, patches, p);
        }
        if (step.bias.numel() > 0) {
          p.digital_flops += patches * step.bias.numel();
        }
        break;
      }
      case runtime::Step::Kind::kRelu:
        p.digital_flops += shape_numel(step.out_shape);
        break;
      case runtime::Step::Kind::kMaxPool:
      case runtime::Step::Kind::kAvgPool:
        // One compare/add per element of each nominal pooling window.
        p.digital_flops += shape_numel(step.out_shape) *
                           static_cast<std::uint64_t>(step.pool_kernel) *
                           step.pool_kernel;
        break;
      case runtime::Step::Kind::kFlatten:
      case runtime::Step::Kind::kIdentity:
        break;
    }
  }
  return p;
}

}  // namespace gs::obs
