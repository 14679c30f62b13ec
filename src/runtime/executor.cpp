#include "runtime/executor.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "tensor/matrix.hpp"

namespace gs::runtime {

namespace {

std::size_t pool_out_extent(std::size_t in, std::size_t kernel,
                            std::size_t stride) {
  GS_CHECK_MSG(in >= 1, "pooling input too small");
  if (in <= kernel) return 1;
  return (in - kernel + stride - 1) / stride + 1;  // Caffe ceil mode
}

/// Opens a per-stage span annotated with the stage's energy-proxy counts
/// for `rows` input vectors, priced by obs::add_stage exactly as the
/// per-sample profile prices them. Returns 0 when untraced. Pure
/// observation — never touches the stage arithmetic.
std::uint64_t begin_stage_span(const ForwardTrace& trace,
                               const MatrixPlan& plan, std::size_t rows) {
  if (trace.trace == nullptr) return 0;
  const std::uint64_t span =
      trace.trace->begin_span("stage:" + plan.name, trace.parent);
  obs::ExecProfile cost;
  obs::add_stage(plan, rows, cost);
  trace.trace->annotate(span, "rows", std::to_string(rows));
  trace.trace->annotate(span, "tiles", std::to_string(cost.tiles_executed));
  trace.trace->annotate(span, "skipped", std::to_string(cost.tiles_skipped));
  trace.trace->annotate(span, "dac_conversions",
                        std::to_string(cost.dac_conversions));
  trace.trace->annotate(span, "adc_conversions",
                        std::to_string(cost.adc_conversions));
  return span;
}

/// max |x_i| as a double, NaN never winning: the value of the
/// `x_max = std::max(x_max, |x_i|)` chain from 0.0, taken as an integer max
/// over |x| bit patterns (non-negative IEEE floats order as their bits),
/// with NaN patterns (above +Inf's 0x7f800000) masked to 0 by a borrow bit
/// rather than a select, which GCC vectorises.
double max_abs(const float* x, std::size_t n) {
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t b = std::bit_cast<std::uint32_t>(x[i]) & 0x7fffffffu;
    const std::uint32_t nan = (0x7f800000u - b) >> 31;
    m = std::max(m, b & (nan - 1u));
  }
  return static_cast<double>(std::bit_cast<float>(m));
}

}  // namespace

/// The free list of activation buffers. Holds at most the buffers of the
/// largest set of intermediates that were alive at once, each at most the
/// largest request it served.
class Executor::Buffers {
 public:
  /// A tensor of `shape` whose contents are unspecified: the caller writes
  /// every element. Reuses the free buffer of least capacity that fits, else
  /// replaces the largest free one, else allocates.
  Tensor take(Shape shape) {
    const std::size_t n = shape_numel(shape);
    std::vector<float> buffer;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      std::size_t pick = free_.size();
      for (std::size_t i = 0; i < free_.size(); ++i) {
        if (pick == free_.size()) {
          pick = i;
          continue;
        }
        const std::size_t cap = free_[i].capacity();
        const std::size_t best = free_[pick].capacity();
        const bool fits = cap >= n;
        if (fits != (best >= n) ? fits : (fits ? cap < best : cap > best)) {
          pick = i;
        }
      }
      if (pick < free_.size()) {
        buffer = std::move(free_[pick]);
        free_[pick] = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (buffer.capacity() < n) {
      std::vector<float>().swap(buffer);
    }
    buffer.resize(n);
    return Tensor(std::move(shape), std::move(buffer));
  }

  /// Returns `t`'s storage to the free list and leaves `t` empty.
  void give(Tensor& t) {
    std::vector<float> buffer = t.release();
    if (buffer.capacity() == 0) return;
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(buffer));
  }

 private:
  std::mutex mu_;
  std::vector<std::vector<float>> free_;
};

Executor::Executor(const CrossbarProgram& program, ThreadPool* pool)
    : program_(&program), pool_(pool), buffers_(std::make_unique<Buffers>()) {}

Executor::~Executor() = default;
Executor::Executor(Executor&&) noexcept = default;
Executor& Executor::operator=(Executor&&) noexcept = default;

ThreadPool& Executor::pool() const {
  return pool_ != nullptr ? *pool_ : ThreadPool::global();
}

void Executor::apply_plan(const MatrixPlan& plan, const Tensor& act,
                          Tensor& out) const {
  const std::size_t in_dim = plan.grid.rows;
  const std::size_t out_dim = plan.grid.cols;
  GS_CHECK(act.rank() == 2 && act.cols() == in_dim);
  GS_CHECK(out.rank() == 2 && out.rows() == act.rows() &&
           out.cols() == out_dim);
  const std::size_t rows = act.rows();
  const std::size_t grid_cols = plan.grid.grid_cols();
  const DacAdcParams& conv = program_->options().converters;
  const bool need_scale = conv.dac_levels > 0 || conv.adc_levels > 0;
  // ADC no-overload full scale is per tile geometry: P inputs at x_max
  // through weights at w_max.
  const double adc_gain =
      plan.w_max * static_cast<double>(plan.grid.tile.rows);

  ThreadPool& tp = pool();
  // Row blocking only partitions work — per-row arithmetic is partition-
  // independent — so the block size may track the pool size freely without
  // affecting results. Whole kernel micro-tiles where the batch allows.
  constexpr std::size_t kMicro = hw::AnalogCrossbar::kMicroRows;
  std::size_t block = std::clamp<std::size_t>(
      (rows + tp.size() * 4 - 1) / (tp.size() * 4), 1, 64);
  block = std::min<std::size_t>((block + kMicro - 1) / kMicro * kMicro, 64);
  const std::size_t row_blocks = (rows + block - 1) / block;

  // Converter front-end, hoisted out of the per-tile-column tasks: the
  // per-input-vector full scale and the DAC-quantised activations are pure
  // per-row functions, so computing them once per row block keeps every
  // task's arithmetic unchanged while avoiding a grid_cols-fold rescan.
  std::vector<double> row_scale;
  Tensor dac_quantized;
  const Tensor* input = &act;
  if (need_scale) {
    row_scale.resize(rows);
    if (conv.dac_levels > 0) {
      dac_quantized = buffers_->take(act.shape());
      input = &dac_quantized;
    }
    tp.parallel_for(row_blocks, [&](std::size_t rb) {
      const std::size_t r1 = std::min(rb * block + block, rows);
      for (std::size_t r = rb * block; r < r1; ++r) {
        const float* x = act.data() + r * in_dim;
        const double x_max = max_abs(x, in_dim);
        row_scale[r] = x_max;
        if (conv.dac_levels == 0) continue;
        float* q = dac_quantized.data() + r * in_dim;
        if (x_max > 0.0) {
          quantize_uniform_span(x, q, in_dim, x_max, conv.dac_levels);
        } else {
          std::copy(x, x + in_dim, q);
        }
      }
    });
  }

  tp.parallel_for(row_blocks * grid_cols, [&](std::size_t task) {
    const std::size_t tc = task % grid_cols;
    const std::size_t r0 = (task / grid_cols) * block;
    const std::size_t n = std::min(r0 + block, rows) - r0;
    const float* x = input->data() + r0 * in_dim;
    const hw::GroupSlice col = hw::tile_slice(plan.grid, 0, tc);
    const std::size_t width = col.col_end - col.col_begin;
    std::vector<double> acc(n * width, 0.0);
    std::vector<double> partial;
    std::vector<float> packed;

    // column_tiles is ascending tile-row order, so every output element
    // receives its partial sums in the same fixed order whether the plan is
    // padded, skip-marked or repacked: a skipped tile or a dropped dead wire
    // removes an exact zero term and leaves the rest bitwise unchanged (and
    // identical at any pool size and block size).
    for (const std::uint32_t ti : plan.column_tiles[tc]) {
      const ProgramTile& tile = plan.tiles[ti];
      // Compile-proved zero contribution (empty tile after group deletion):
      // eliding its MVM and ADC adds nothing.
      if (tile.skip) continue;
      const std::size_t p = tile.xbar.rows();
      const std::size_t q = tile.xbar.cols();
      // Pack the block's inputs to this tile: its contiguous slice of each
      // row, or the live wires through in_gather.
      packed.resize(n * p);
      for (std::size_t r = 0; r < n; ++r) {
        const float* xr = x + r * in_dim;
        float* dst = packed.data() + r * p;
        if (tile.in_gather.empty()) {
          std::copy(xr + tile.slice.row_begin, xr + tile.slice.row_begin + p,
                    dst);
        } else {
          for (std::size_t i = 0; i < p; ++i) dst[i] = xr[tile.in_gather[i]];
        }
      }
      partial.assign(n * q, 0.0);
      tile.xbar.accumulate_matmul(packed.data(), n, partial.data());
      for (std::size_t r = 0; r < n; ++r) {
        double* part = partial.data() + r * q;
        const double x_max = need_scale ? row_scale[r0 + r] : 0.0;
        if (conv.adc_levels > 0 && x_max > 0.0) {
          // ADC full scale is the PADDED tile geometry even on a repacked
          // array: the library converter does not shrink with the array.
          quantize_uniform_span(part, part, q, x_max * adc_gain,
                                conv.adc_levels);
        }
        // Digital partial-sum accumulation onto the output slice.
        double* a = acc.data() + r * width;
        if (tile.out_scatter.empty()) {
          for (std::size_t j = 0; j < q; ++j) a[j] += part[j];
        } else {
          for (std::size_t j = 0; j < q; ++j) {
            a[tile.out_scatter[j] - col.col_begin] += part[j];
          }
        }
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      float* dst = out.data() + (r0 + r) * out_dim + col.col_begin;
      for (std::size_t j = 0; j < width; ++j) {
        dst[j] = static_cast<float>(acc[r * width + j]);
      }
    }
  });
  buffers_->give(dac_quantized);
}

Tensor Executor::run_linear(const Step& step, const Tensor& act,
                            const ForwardTrace& trace) const {
  const Tensor* cur = &act;
  Tensor reshaped;
  if (act.rank() != 2) {
    reshaped = buffers_->take(Shape{act.dim(0), shape_numel(step.in_shape)});
    GS_CHECK(reshaped.numel() == act.numel());
    std::copy(act.data(), act.data() + act.numel(), reshaped.data());
    cur = &reshaped;
  }
  Tensor out;
  for (const MatrixPlan& plan : step.stages) {
    const std::uint64_t span = begin_stage_span(trace, plan, cur->rows());
    Tensor next = buffers_->take(Shape{cur->rows(), plan.grid.cols});
    apply_plan(plan, *cur, next);
    if (span != 0) trace.trace->end_span(span);
    buffers_->give(out);
    out = std::move(next);
    cur = &out;
  }
  buffers_->give(reshaped);
  if (step.bias.numel() > 0) add_row_vector(out, step.bias);
  return out;
}

Tensor Executor::run_conv(const Step& step, const Tensor& act,
                          const ForwardTrace& trace) const {
  GS_CHECK_MSG(act.rank() == 4, step.name << ": conv input must be B×C×H×W");
  const ConvGeometry& g = step.geometry;
  const std::size_t batch = act.dim(0);
  const std::size_t oh = g.out_height();
  const std::size_t ow = g.out_width();
  const std::size_t patches = oh * ow;

  GS_CHECK_MSG(act.dim(1) == g.in_channels && act.dim(2) == g.in_height &&
                   act.dim(3) == g.in_width,
               step.name << ": conv input " << shape_to_string(act.shape()));
  Tensor cols = buffers_->take(Shape{batch * patches, g.patch_size()});
  im2col_batch(act.data(), batch, g, cols.data(), pool());

  Tensor cur = std::move(cols);
  for (const MatrixPlan& plan : step.stages) {
    const std::uint64_t span = begin_stage_span(trace, plan, cur.rows());
    Tensor next = buffers_->take(Shape{cur.rows(), plan.grid.cols});
    apply_plan(plan, cur, next);
    if (span != 0) trace.trace->end_span(span);
    buffers_->give(cur);
    cur = std::move(next);
  }
  const std::size_t filters = step.out_shape[0];
  GS_CHECK(cur.cols() == filters && oh == step.out_shape[1] &&
           ow == step.out_shape[2]);
  if (step.bias.numel() > 0) add_row_vector(cur, step.bias);

  // Re-tile (B·oh·ow, F) patch-major results into channel-major B×F×oh×ow.
  Tensor out = buffers_->take(Shape{batch, filters, oh, ow});
  retile_batch(cur.data(), batch, patches, filters, out.data(), pool());
  buffers_->give(cur);
  return out;
}

Tensor Executor::run_pool(const Step& step, const Tensor& act) const {
  GS_CHECK_MSG(act.rank() == 4, step.name << ": pool input must be B×C×H×W");
  const std::size_t batch = act.dim(0);
  const std::size_t channels = act.dim(1);
  const std::size_t ih = act.dim(2);
  const std::size_t iw = act.dim(3);
  const std::size_t k = step.pool_kernel;
  const std::size_t s = step.pool_stride;
  const std::size_t oh = pool_out_extent(ih, k, s);
  const std::size_t ow = pool_out_extent(iw, k, s);
  // Guard against convention drift: the windowing below must stay in step
  // with nn::Pool2dLayer, whose output_shape fixed out_shape at compile.
  GS_CHECK(channels == step.out_shape[0] && oh == step.out_shape[1] &&
           ow == step.out_shape[2]);
  const bool is_max = step.kind == Step::Kind::kMaxPool;

  Tensor out = buffers_->take(Shape{batch, channels, oh, ow});
  pool().parallel_for(batch * channels, [&](std::size_t plane) {
    const float* in_plane = act.data() + plane * ih * iw;
    float* out_plane = out.data() + plane * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t y0 = oy * s;
        const std::size_t x0 = ox * s;
        const std::size_t y1 = std::min(y0 + k, ih);
        const std::size_t x1 = std::min(x0 + k, iw);
        if (is_max) {
          float best = -std::numeric_limits<float>::infinity();
          for (std::size_t y = y0; y < y1; ++y) {
            for (std::size_t x = x0; x < x1; ++x) {
              best = std::max(best, in_plane[y * iw + x]);
            }
          }
          out_plane[oy * ow + ox] = best;
        } else {
          double sum = 0.0;
          for (std::size_t y = y0; y < y1; ++y) {
            for (std::size_t x = x0; x < x1; ++x) {
              sum += in_plane[y * iw + x];
            }
          }
          // Caffe divides by the nominal window size (zero padding).
          out_plane[oy * ow + ox] =
              static_cast<float>(sum / static_cast<double>(k * k));
        }
      }
    }
  });
  return out;
}

Tensor Executor::forward(const Tensor& batch) const {
  return forward(batch, ForwardTrace{});
}

Tensor Executor::forward(const Tensor& batch, const ForwardTrace& trace) const {
  const Shape& sample = program_->input_shape();
  GS_CHECK_MSG(batch.rank() == sample.size() + 1,
               "executor input rank " << batch.rank() << ", program expects "
                                      << sample.size() + 1);
  for (std::size_t d = 0; d < sample.size(); ++d) {
    GS_CHECK_MSG(batch.dim(d + 1) == sample[d],
                 "executor input " << shape_to_string(batch.shape())
                                   << " does not match program input "
                                   << shape_to_string(sample));
  }
  const std::size_t b = batch.dim(0);
  GS_CHECK(b > 0);

  Tensor x = buffers_->take(batch.shape());
  std::copy(batch.data(), batch.data() + batch.numel(), x.data());
  // Each step's output replaces x; the consumed input goes back to the
  // free list.
  const auto advance = [&](Tensor next) {
    buffers_->give(x);
    x = std::move(next);
  };
  for (const Step& step : program_->steps()) {
    // Per-step execute span; crossbar steps nest per-stage detail spans.
    std::uint64_t step_span = 0;
    ForwardTrace step_trace = trace;
    if (trace.trace != nullptr) {
      step_span = trace.trace->begin_span("step:" + step.name, trace.parent);
      step_trace.parent = step_span;
    }
    switch (step.kind) {
      case Step::Kind::kLinear:
        advance(run_linear(step, x, step_trace));
        break;
      case Step::Kind::kConv:
        advance(run_conv(step, x, step_trace));
        break;
      case Step::Kind::kRelu: {
        float* data = x.data();
        for (std::size_t i = 0; i < x.numel(); ++i) {
          data[i] = std::max(0.0f, data[i]);
        }
        break;
      }
      case Step::Kind::kMaxPool:
      case Step::Kind::kAvgPool:
        advance(run_pool(step, x));
        break;
      case Step::Kind::kFlatten:
        x.reshape(Shape{b, x.numel() / b});
        break;
      case Step::Kind::kIdentity:
        break;
    }
    if (step_span != 0) trace.trace->end_span(step_span);
  }
  // The logits leave as a fresh tensor of their own size: a recycled buffer
  // may carry the capacity of a much larger intermediate.
  Tensor logits(x.shape(), std::vector<float>(x.data(), x.data() + x.numel()));
  buffers_->give(x);
  return logits;
}

double evaluate(const Executor& executor, const data::Dataset& dataset,
                std::size_t max_samples, std::size_t batch_size) {
  return nn::evaluate_forward(
      [&executor](const Tensor& images) { return executor.forward(images); },
      dataset, max_samples, batch_size);
}

}  // namespace gs::runtime
