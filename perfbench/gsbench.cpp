// Measurement harness of the repo benchmark (perfbench/README.md).
//
// One invocation runs one workload and prints ONE JSON document of raw
// measurements on stdout; run.py turns it into metrics, applies the
// correctness gates and prints the result line. The harness only calls the
// library's public functions and reads the spans the library already
// records — it adds no instrumentation of its own inside the library.
//
//   gsbench serve_lenet            --seed N --seconds S --trace 0|1 < schedule
//   gsbench infer_convnet_nonideal --seed N --seconds S --trace 0|1
//   gsbench compress_lenet         --seed N --seconds S --trace 0|1
//
// The serving schedule (rate steps, arrival offsets, sample indices) is made
// by run.py from the seed and read from stdin:
//   <steps>
//   <label> <rate> <server> <count>          (once per step, then)
//   <offset_us> <sample_index>               (count lines)
// `server` 0 is the untraced server, 1 the traced one (trace runs only).
//
// Every model is a fixed recipe (fixed seeds, fixed budgets); --seed selects
// only the inputs: served requests, held-out sets and evaluation sets.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "compress/rank_clipping.hpp"
#include "core/models.hpp"
#include "core/ncs_report.hpp"
#include "core/pipeline.hpp"
#include "data/batcher.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/lowrank.hpp"
#include "nn/trainer.hpp"
#include "obs/exec_profile.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "runtime/shard.hpp"

namespace {

using namespace gs;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_since_epoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Seeds of the generated inputs: one stream per purpose, mixed from --seed.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- JSON output -------------------------------------------------------------

/// Minimal streaming JSON writer (keys and strings are plain identifiers).
class Json {
 public:
  Json& key(const std::string& k) {
    comma();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& open(char bracket) {
    comma();
    out_ << bracket;
    fresh_ = true;
    return *this;
  }
  Json& close(char bracket) {
    out_ << bracket;
    fresh_ = false;
    return *this;
  }
  Json& num(double v) {
    comma();
    if (std::isfinite(v)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.10g", v);
      out_ << buf;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& str(const std::string& s) {
    comma();
    out_ << '"' << s << '"';
    return *this;
  }
  Json& field(const std::string& k, double v) { return key(k).num(v); }
  Json& field(const std::string& k, const std::string& s) {
    return key(k).str(s);
  }
  Json& array(const std::string& k, const std::vector<double>& v) {
    key(k).open('[');
    for (double x : v) num(x);
    return close(']');
  }
  std::string text() const { return out_.str(); }

 private:
  void comma() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

// --- Data --------------------------------------------------------------------

/// A dataset held in memory (materialised once from a procedural one).
class MemoryDataset final : public data::Dataset {
 public:
  MemoryDataset(const data::Dataset& source, std::size_t count)
      : shape_(source.sample_shape()),
        classes_(source.num_classes()),
        name_(source.name()) {
    samples_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) samples_.push_back(source.get(i));
  }
  std::size_t size() const override { return samples_.size(); }
  data::Sample get(std::size_t index) const override {
    return samples_.at(index);
  }
  Shape sample_shape() const override { return shape_; }
  std::size_t num_classes() const override { return classes_; }
  std::string name() const override { return name_; }

 private:
  std::vector<data::Sample> samples_;
  Shape shape_;
  std::size_t classes_;
  std::string name_;
};

/// Samples [begin, begin + count) of `set` stacked into one batch tensor.
Tensor stack(const data::Dataset& set, std::size_t begin, std::size_t count) {
  const Shape sample = set.sample_shape();
  Shape shape{count};
  shape.insert(shape.end(), sample.begin(), sample.end());
  Tensor batch(shape);
  const std::size_t n = shape_numel(sample);
  for (std::size_t i = 0; i < count; ++i) {
    const data::Sample s = set.get(begin + i);
    std::copy(s.image.data(), s.image.data() + n, batch.data() + i * n);
  }
  return batch;
}

/// Rows [begin, begin + count) of a batch tensor.
Tensor rows(const Tensor& batch, std::size_t begin, std::size_t count) {
  Shape shape = batch.shape();
  const std::size_t n = batch.numel() / shape[0];
  shape[0] = count;
  Tensor out(shape);
  std::copy(batch.data() + begin * n, batch.data() + (begin + count) * n,
            out.data());
  return out;
}

std::size_t correct_top1(const Tensor& logits, const data::Dataset& set,
                         std::size_t first) {
  const std::size_t classes = logits.dim(1);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < logits.dim(0); ++i) {
    const float* row = logits.data() + i * classes;
    const std::size_t top =
        static_cast<std::size_t>(std::max_element(row, row + classes) - row);
    correct += top == set.get(first + i).label ? 1 : 0;
  }
  return correct;
}

// --- Shared per-layer probes ---------------------------------------------------

const char* kind_name(runtime::Step::Kind kind) {
  switch (kind) {
    case runtime::Step::Kind::kLinear: return "linear";
    case runtime::Step::Kind::kConv: return "conv";
    case runtime::Step::Kind::kRelu: return "relu";
    case runtime::Step::Kind::kMaxPool:
    case runtime::Step::Kind::kAvgPool: return "pool";
    case runtime::Step::Kind::kFlatten: return "flatten";
    case runtime::Step::Kind::kIdentity: return "identity";
  }
  return "other";
}

void write_spans(Json& j, const obs::Trace& trace, bool skip_detail) {
  j.open('[');
  for (const obs::SpanRecord& s : trace.spans()) {
    if (skip_detail && (s.name.rfind("step:", 0) == 0 ||
                        s.name.rfind("stage:", 0) == 0)) {
      continue;
    }
    j.open('[').num(static_cast<double>(s.id)).num(static_cast<double>(s.parent));
    j.str(s.name).num(us_since_epoch(s.start)).num(us_since_epoch(s.end));
    j.close(']');
  }
  j.close(']');
}

/// runtime.program: compile time (median of `reps`), tile schedule size and
/// the programmed-cell share of the padded lowering.
runtime::CrossbarProgram probe_program(Json& j, const nn::Network& net,
                                       const Shape& shape,
                                       const runtime::CompileOptions& options,
                                       int reps) {
  std::vector<double> times;
  for (int r = 0; r + 1 < reps; ++r) {
    const auto t0 = Clock::now();
    runtime::compile(net, shape, options);
    times.push_back(seconds_since(t0));
  }
  const auto t0 = Clock::now();
  runtime::CrossbarProgram program = runtime::compile(net, shape, options);
  times.push_back(seconds_since(t0));
  const double padded = static_cast<double>(program.padded_cell_count());
  j.key("program").open('{');
  j.array("compile_s", times);
  j.field("tiles", static_cast<double>(program.tile_count()));
  j.field("cells_ratio",
          padded == 0 ? 1.0 : program.programmed_cell_count() / padded);
  j.close('}');
  return program;
}

/// runtime.executor, measured directly on `program`: per-sample time at
/// several batch sizes, the per-sample energy-proxy counts, and traced batch
/// forwards (interleaved with untraced ones) whose spans give the per-step
/// self times and the tracing overhead.
void probe_executor(Json& j, const runtime::CrossbarProgram& program,
                    const Tensor& pool, double budget_s) {
  const runtime::Executor executor(program);
  j.key("executor").open('{');
  j.key("steps").open('[');
  for (const runtime::Step& step : program.steps()) {
    j.open('[').str(step.name).str(kind_name(step.kind)).close(']');
  }
  j.close(']');
  const obs::ExecProfile p = executor.profile();
  j.field("dac_per_sample", static_cast<double>(p.dac_conversions));
  j.field("adc_per_sample", static_cast<double>(p.adc_conversions));
  j.field("mvm_per_sample", static_cast<double>(p.analog_mvms));
  j.field("psum_bytes_per_sample", static_cast<double>(p.partial_sum_bytes));
  j.field("tiles_run", static_cast<double>(p.tiles_executed));
  j.field("tiles_skipped", static_cast<double>(p.tiles_skipped));

  j.key("us_per_sample").open('{');
  for (const std::size_t b : {1, 8, 32, 64}) {
    const Tensor batch = rows(pool, 0, b);
    executor.forward(batch);  // warm-up
    std::vector<double> per_sample;
    const auto start = Clock::now();
    while (per_sample.size() < 3 ||
           (seconds_since(start) < budget_s / 8 && per_sample.size() < 200)) {
      const auto t0 = Clock::now();
      executor.forward(batch);
      per_sample.push_back(seconds_since(t0) * 1e6 / static_cast<double>(b));
    }
    j.array("b" + std::to_string(b), per_sample);
  }
  j.close('}');

  // Traced and untraced batch-32 forwards, alternating so drift hits both.
  const Tensor batch = rows(pool, 0, 32);
  std::vector<double> plain;
  std::vector<double> traced;
  std::vector<std::unique_ptr<obs::Trace>> traces;
  const auto start = Clock::now();
  while (traced.size() < 3 ||
         (seconds_since(start) < budget_s / 2 && traced.size() < 100)) {
    auto t0 = Clock::now();
    executor.forward(batch);
    plain.push_back(seconds_since(t0));
    auto trace = std::make_unique<obs::Trace>(traces.size() + 1);
    t0 = Clock::now();
    executor.forward(batch, runtime::ForwardTrace{trace.get(),
                                                  obs::Trace::kRoot});
    traced.push_back(seconds_since(t0));
    trace->end_span(obs::Trace::kRoot);
    traces.push_back(std::move(trace));
  }
  j.array("b32_untraced_s", plain);
  j.array("b32_traced_s", traced);
  j.key("b32_traces").open('[');
  for (const auto& trace : traces) write_spans(j, *trace, false);
  j.close(']');
  j.close('}');
}

double deleted_wire_share(const core::NcsReport& report) {
  return report.total_wires == 0
             ? 0.0
             : 1.0 - static_cast<double>(report.remaining_wires) /
                         static_cast<double>(report.total_wires);
}

/// core.report_s plus the area ratios and deleted-wire share of `net`.
void probe_report(Json& j, nn::Network& net) {
  const auto t0 = Clock::now();
  const core::NcsReport report = core::build_ncs_report(
      net, hw::paper_technology(), hw::MappingPolicy::kDivisorExact);
  j.key("report").open('{');
  j.field("report_s", seconds_since(t0));
  j.field("crossbar_area_ratio", report.crossbar_area_ratio());
  j.field("routing_area_ratio", report.mean_routing_area_ratio());
  j.field("deleted_wire_share", deleted_wire_share(report));
  j.close('}');
}

/// nn: SGD training through core::train_phase, timed.
void timed_train(Json& j, nn::Network& net, const data::Dataset& train,
                   const data::Dataset& test, const core::TrainPhase& phase) {
  const auto t0 = Clock::now();
  const double accuracy = core::train_phase(net, train, test, phase, 2, 200);
  const double seconds = seconds_since(t0);
  j.key("train").open('{');
  j.field("pretrain_s", seconds);
  j.field("samples", static_cast<double>(phase.iterations * phase.batch_size));
  j.field("accuracy", accuracy);
  j.close('}');
}

void write_env(Json& j, std::size_t shard_threads, std::size_t replicas) {
  j.key("env").open('{');
  j.field("hardware_concurrency",
          static_cast<double>(std::thread::hardware_concurrency()));
  j.field("gs_num_threads", static_cast<double>(ThreadPool::global().size()));
  j.field("shard_total_threads", static_cast<double>(shard_threads));
  j.field("shard_replicas", static_cast<double>(replicas));
  j.field("build_type", GSB_BUILD_TYPE);
  j.close('}');
}

/// Keeps every CPU of the machine from going idle while it lives: one
/// SCHED_IDLE spinning thread per CPU, which the kernel runs only when no
/// other thread is runnable and preempts at once when one wakes. On a
/// virtual machine an idle vCPU halts, and waking it again waits on the
/// host's scheduler — milliseconds when the host is busy — so without this
/// the serving latencies measure the host rather than the server.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// --- serve_lenet ---------------------------------------------------------------

struct StepSpec {
  std::string label;
  double rate = 0.0;
  int server = 0;
  std::vector<double> offset_us;
  std::vector<std::size_t> sample;
};

std::vector<StepSpec> read_schedule(std::istream& in, std::size_t pool_size) {
  std::size_t steps = 0;
  if (!(in >> steps) || steps == 0 || steps > 1000) {
    throw std::runtime_error("schedule: bad step count");
  }
  std::vector<StepSpec> out(steps);
  for (StepSpec& s : out) {
    std::size_t count = 0;
    if (!(in >> s.label >> s.rate >> s.server >> count) || count == 0 ||
        count > 1000000 || (s.server != 0 && s.server != 1)) {
      throw std::runtime_error("schedule: bad step header");
    }
    s.offset_us.resize(count);
    s.sample.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (!(in >> s.offset_us[i] >> s.sample[i]) ||
          s.sample[i] >= pool_size) {
        throw std::runtime_error("schedule: bad request line");
      }
    }
  }
  return out;
}

/// Zeroes rows [begin, end) of a matrix — one tile-aligned deletion band.
void zero_rows(Tensor& w, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t c = 0; c < w.cols(); ++c) w.at(i, c) = 0.0f;
  }
}

/// One open-loop rate step: a generator thread submits each request at its
/// due time; this thread polls the futures and stamps each when its logits
/// are ready. Latency runs from the due time, so generator lateness and
/// submit blocking both count against the request.
void run_step(Json& j, runtime::ShardedServer& server, const StepSpec& spec,
              const Tensor& pool, const Tensor& reference,
              const std::vector<std::size_t>& labels,
              std::uint64_t first_request_id) {
  const std::size_t n = spec.offset_us.size();
  const std::size_t classes = reference.dim(1);
  std::vector<Tensor> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Tensor s(Shape{1, 28, 28});
    std::copy(pool.data() + spec.sample[i] * s.numel(),
              pool.data() + (spec.sample[i] + 1) * s.numel(), s.data());
    samples.push_back(std::move(s));
  }
  const runtime::ShardStats before = server.stats();
  const std::chrono::microseconds deadline(50000);

  struct Pending {
    std::size_t index;
    std::future<Tensor> future;
  };
  std::vector<double> latency_ms(n, -1.0);
  std::vector<double> lag_ms(n, 0.0);
  std::vector<double> submit_us(n, 0.0);
  std::vector<Clock::time_point> due(n);
  std::mutex inbox_mutex;
  std::vector<Pending> inbox;
  std::atomic<std::size_t> resolved{0};
  std::atomic<bool> generator_done{false};
  std::size_t outstanding_end = 0;
  Clock::time_point generator_end;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(
                          spec.offset_us[i]));
  }
  std::exception_ptr generator_error;
  std::thread generator([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due[i]);
        const auto start = Clock::now();
        std::future<Tensor> future =
            server.submit(std::move(samples[i]), deadline);
        const auto end = Clock::now();
        lag_ms[i] =
            std::chrono::duration<double, std::milli>(start - due[i]).count();
        submit_us[i] =
            std::chrono::duration<double, std::micro>(end - start).count();
        std::lock_guard<std::mutex> lock(inbox_mutex);
        inbox.push_back(Pending{i, std::move(future)});
      }
    } catch (...) {
      generator_error = std::current_exception();
    }
    outstanding_end = n - resolved.load();
    generator_end = Clock::now();
    generator_done.store(true);
  });

  std::size_t ok = 0;
  std::size_t mismatched = 0;
  std::size_t correct = 0;
  std::vector<Pending> live;
  bool timed_out = false;
  while (resolved.load() < n) {
    {
      std::lock_guard<std::mutex> lock(inbox_mutex);
      for (Pending& p : inbox) live.push_back(std::move(p));
      inbox.clear();
    }
    bool any = false;
    for (std::size_t k = 0; k < live.size();) {
      if (live[k].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const auto ready = Clock::now();
      const std::size_t i = live[k].index;
      try {
        const Tensor row = live[k].future.get();
        latency_ms[i] =
            std::chrono::duration<double, std::milli>(ready - due[i]).count();
        ++ok;
        const float* ref = reference.data() + spec.sample[i] * classes;
        if (row.numel() != classes ||
            std::memcmp(row.data(), ref, classes * sizeof(float)) != 0) {
          ++mismatched;
        }
        const std::size_t top = static_cast<std::size_t>(
            std::max_element(row.data(), row.data() + row.numel()) -
            row.data());
        correct += top == labels[spec.sample[i]] ? 1 : 0;
      } catch (const std::exception&) {
        // Refused, shed or failed: counted through the server's counters;
        // the latency stays negative, i.e. it misses any limit.
      }
      resolved.fetch_add(1);
      live[k] = std::move(live.back());
      live.pop_back();
      any = true;
    }
    if (generator_done.load() && seconds_since(generator_end) > 10.0) {
      timed_out = true;
      break;
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  generator.join();
  if (generator_error) std::rethrow_exception(generator_error);
  const std::size_t unresolved = n - resolved.load();
  if (timed_out) {
    // Futures that never resolve fail the run; do not wait on them again.
    for (Pending& p : live) p.future = std::future<Tensor>();
  }
  if (spec.server == 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const runtime::ShardStats after = server.stats();
  const auto delta = [](std::size_t a, std::size_t b) {
    return static_cast<double>(a - b);
  };

  j.open('{');
  j.field("label", spec.label).field("rate", spec.rate);
  j.field("server", spec.server).field("count", static_cast<double>(n));
  j.array("offset_us", spec.offset_us);
  j.array("latency_ms", latency_ms);
  j.array("lag_ms", lag_ms);
  j.array("submit_us", submit_us);
  j.field("outstanding_end", static_cast<double>(outstanding_end));
  j.field("unresolved", static_cast<double>(unresolved));
  j.field("ok", static_cast<double>(ok));
  j.field("mismatched", static_cast<double>(mismatched));
  j.field("correct", static_cast<double>(correct));
  j.field("completed", delta(after.aggregate.completed, before.aggregate.completed));
  j.field("rejected", delta(after.aggregate.rejected, before.aggregate.rejected));
  j.field("admission_rejected", delta(after.aggregate.admission_rejected,
                                      before.aggregate.admission_rejected));
  j.field("shed", delta(after.aggregate.shed, before.aggregate.shed));
  j.field("failed", delta(after.aggregate.failed, before.aggregate.failed));
  j.field("batches", delta(after.aggregate.batches, before.aggregate.batches));
  j.field("stolen_batches", delta(after.stolen_batches, before.stolen_batches));
  if (spec.server == 1 && server.tracer() != nullptr) {
    j.key("traces").open('[');
    for (const auto& trace : server.tracer()->completed()) {
      if (trace->request_id() > first_request_id &&
          trace->request_id() <= first_request_id + n) {
        write_spans(j, *trace, true);
      }
    }
    j.close(']');
  }
  j.close('}');
}

int serve_lenet(std::uint64_t seed, bool trace) {
  constexpr std::size_t kPool = 4096;
  std::vector<StepSpec> schedule = read_schedule(std::cin, kPool);
  Json j;
  j.open('{');
  const Shape shape{1, 28, 28};

  // Fixed model recipe: LeNet trained briefly, factorised to the paper's
  // Table 1 ranks, tile-aligned row bands deleted (conv2_u and fc1_u tile at
  // 50 rows, so 8/10 and 12/16 of their crossbars end up empty), then a
  // masked fine-tune.
  const data::SyntheticMnist train(1001, 500);
  const data::SyntheticMnist test(2002, 200);
  Rng rng(1);
  nn::Network dense = core::build_lenet(rng);
  timed_train(j, dense, train, test,
              core::TrainPhase{150, 25, {0.02f, 0.9f, 1e-4f}});
  core::FactorizeSpec spec;
  spec.ranks = {{"conv1", 5}, {"conv2", 12}, {"fc1", 36}};
  spec.keep_dense = {core::lenet_classifier()};
  auto t0 = Clock::now();
  nn::Network net = core::to_lowrank(dense, spec);
  j.field("to_lowrank_s", seconds_since(t0));
  auto* conv2 = dynamic_cast<nn::FactorizedLayer*>(net.find("conv2"));
  auto* fc1 = dynamic_cast<nn::FactorizedLayer*>(net.find("fc1"));
  if (conv2 == nullptr || fc1 == nullptr) {
    throw std::runtime_error("serve_lenet: conv2/fc1 are not factorised");
  }
  const auto apply_masks = [&] {
    zero_rows(conv2->mutable_u(), 100, 500);
    zero_rows(fc1->mutable_u(), 200, 800);
  };
  apply_masks();
  {
    data::Batcher batcher(train, 25, Rng(31));
    nn::SgdOptimizer opt(nn::SgdConfig{0.006f, 0.9f, 1e-4f});
    nn::train(net, opt, batcher, 100, {},
              [&](nn::Network&, std::size_t) { apply_masks(); });
  }
  probe_report(j, net);

  // Inputs: a seeded pool of labelled digits the requests draw from.
  const MemoryDataset pool_set(data::SyntheticMnist(input_seed(seed, 1), kPool),
                               kPool);
  const Tensor pool = stack(pool_set, 0, kPool);
  std::vector<std::size_t> labels(kPool);
  for (std::size_t i = 0; i < kPool; ++i) labels[i] = pool_set.get(i).label;

  runtime::CompileOptions options;
  options.repack = true;
  const runtime::CrossbarProgram program =
      probe_program(j, net, shape, options, 3);
  const runtime::Executor executor(program);
  Tensor reference(Shape{kPool, 10});
  t0 = Clock::now();
  for (std::size_t b = 0; b < kPool; b += 64) {
    const Tensor logits = executor.forward(rows(pool, b, 64));
    std::copy(logits.data(), logits.data() + logits.numel(),
              reference.data() + b * 10);
  }
  j.field("eval_s", seconds_since(t0));
  {
    const Tensor batch = rows(pool, 0, 256);
    t0 = Clock::now();
    const Tensor digital = net.forward(batch, false);
    j.field("digital_eval_s", seconds_since(t0));
    j.field("parity_max_diff", max_abs_diff(digital, rows(reference, 0, 256)));
  }

  // Serving tier: 2 replicas, one executor thread each (the dispatcher runs
  // its replica's forward inline), autoscaling off, admission on.
  const auto make_config = [](bool traced) {
    runtime::ShardConfig config;
    config.replicas = 2;
    config.total_threads = 2;
    config.batching.admission.enabled = true;
    config.batching.observability.trace_sample_every = traced ? 1 : 0;
    config.batching.observability.trace_keep = 200000;
    return config;
  };
  std::vector<double> setup_s;
  std::unique_ptr<runtime::ShardedServer> servers[2];
  for (int r = 0; r < 9; ++r) {
    servers[0].reset();
    t0 = Clock::now();
    servers[0] = std::make_unique<runtime::ShardedServer>(net, shape, options,
                                                          make_config(false));
    setup_s.push_back(seconds_since(t0));
  }
  j.array("setup_s", setup_s);
  if (trace) {
    servers[1] = std::make_unique<runtime::ShardedServer>(net, shape, options,
                                                          make_config(true));
  }
  std::uint64_t submitted[2] = {0, 0};
  j.key("steps").open('[');
  for (const StepSpec& step : schedule) {
    if (!servers[step.server]) {
      throw std::runtime_error("schedule names the traced server in an "
                               "untraced run");
    }
    run_step(j, *servers[step.server], step, pool, reference, labels,
             submitted[step.server]);
    submitted[step.server] += step.offset_us.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  j.close(']');
  for (auto& server : servers) {
    if (server) server->shutdown();
  }
  if (trace) probe_executor(j, program, pool, 4.0);
  j.field("peak_rss_mb", peak_rss_mb());
  write_env(j, 2, 2);
  j.close('}');
  std::cout << j.text() << '\n';
  return 0;
}

// --- infer_convnet_nonideal -----------------------------------------------------

int infer_convnet_nonideal(std::uint64_t seed, double seconds, bool trace) {
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kHeldOut = 1024;
  Json j;
  j.open('{');
  const Shape shape{3, 32, 32};

  // Fixed model recipe: ConvNet trained briefly on synthetic CIFAR.
  const data::SyntheticCifar train(3003, 500);
  const data::SyntheticCifar test(4004, 200);
  Rng rng(1);
  nn::Network net = core::build_convnet(rng);
  timed_train(j, net, train, test,
              core::TrainPhase{100, 16, {0.01f, 0.9f, 1e-4f}});
  probe_report(j, net);

  const MemoryDataset held_out(data::SyntheticCifar(input_seed(seed, 2), kHeldOut),
                               kHeldOut);
  std::vector<Tensor> batches;
  for (std::size_t b = 0; b < kHeldOut; b += kBatch) {
    batches.push_back(stack(held_out, b, kBatch));
  }

  // Nonideal chip: 64-level cells, 8-bit DAC, 12-bit ADC, padded lowering.
  runtime::CompileOptions options;
  options.analog.levels = 64;
  options.converters.dac_levels = 255;
  options.converters.adc_levels = 4095;
  std::vector<double> setup_s;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    const runtime::CrossbarProgram p = runtime::compile(net, shape, options);
    const runtime::Executor e(p);
    setup_s.push_back(seconds_since(t0));
  }
  j.array("setup_s", setup_s);
  const runtime::CrossbarProgram program =
      probe_program(j, net, shape, options, 3);
  const runtime::Executor executor(program);
  executor.forward(batches[0]);  // warm-up

  // Offline evaluation: whole passes over the held-out set until the time
  // budget is spent (a trace run makes one pass). Every later pass must
  // reproduce the first pass's logits bitwise.
  std::vector<Tensor> first_pass(batches.size());
  std::vector<double> batch_s;
  std::size_t evaluated = 0;
  std::size_t mismatched = 0;
  std::size_t correct = 0;
  std::size_t passes = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const auto t0 = Clock::now();
      Tensor logits = executor.forward(batches[b]);
      batch_s.push_back(seconds_since(t0));
      evaluated += logits.dim(0);
      if (passes == 0) {
        correct += correct_top1(logits, held_out, b * kBatch);
        first_pass[b] = std::move(logits);
      } else if (logits.numel() != first_pass[b].numel() ||
                 std::memcmp(logits.data(), first_pass[b].data(),
                             logits.numel() * sizeof(float)) != 0) {
        ++mismatched;
      }
      if (passes > 0 && seconds_since(start) >= seconds) break;
    }
    ++passes;
  } while (!trace && seconds_since(start) < seconds);
  j.array("batch_s", batch_s);
  j.field("batch", static_cast<double>(kBatch));
  j.field("held_out", static_cast<double>(kHeldOut));
  j.field("evaluated", static_cast<double>(evaluated));
  j.field("first_pass_correct", static_cast<double>(correct));
  j.field("mismatched_batches", static_cast<double>(mismatched));
  if (trace) {
    const Tensor pool = stack(held_out, 0, 64);
    auto t0 = Clock::now();
    net.forward(pool, false);
    j.field("digital_eval_s", seconds_since(t0));
    probe_executor(j, program, pool, 8.0);
  }
  j.field("peak_rss_mb", peak_rss_mb());
  write_env(j, 0, 0);
  j.close('}');
  std::cout << j.text() << '\n';
  return 0;
}

// --- compress_lenet -------------------------------------------------------------

core::PipelineConfig compress_config() {
  core::PipelineConfig c;
  c.seed = 7;
  c.pretrain = {100, 25, {0.02f, 0.9f, 1e-4f}};
  c.clipping.epsilon = 0.03;
  c.clipping.clip_interval = 30;
  c.clipping.max_iterations = 150;
  c.clipping_phase = {0, 25, {0.02f, 0.9f, 1e-4f}};
  c.deletion.lasso.lambda = 0.1;
  c.deletion.train_iterations = 100;
  c.deletion.finetune_iterations = 50;
  c.deletion_phase = {0, 25, {0.02f, 0.9f, 0.0f}};
  c.keep_dense = {core::lenet_classifier()};
  c.repack_eval = false;
  c.fault_eval_rate = 0.0;
  return c;
}

/// The phases core::run_group_scissor runs for compress_config(), made
/// through the same public calls in the same order, each timed. The final
/// network and reports must equal the untraced pipeline's.
core::PipelineResult phased_pipeline(Json& j, const data::Dataset& train,
                                     const data::Dataset& test,
                                     const core::PipelineConfig& config) {
  core::PipelineResult result;
  double report_s = 0.0;
  double eval_s = 0.0;
  const auto report = [&](nn::Network& net) {
    const auto t0 = Clock::now();
    core::NcsReport r = core::build_ncs_report(net, config.tech, config.policy);
    report_s += seconds_since(t0);
    return r;
  };
  const auto evaluate = [&](nn::Network& net) {
    const auto t0 = Clock::now();
    const double a = nn::evaluate(net, test, config.eval_samples);
    eval_s += seconds_since(t0);
    return a;
  };
  j.key("phases").open('{');
  Rng rng(config.seed);
  nn::Network dense = core::build_lenet(rng);
  auto t0 = Clock::now();
  result.baseline_accuracy = core::train_phase(
      dense, train, test, config.pretrain, config.seed + 1, config.eval_samples);
  j.field("pretrain_s", seconds_since(t0));
  result.dense_report = report(dense);

  core::FactorizeSpec spec;
  spec.method = config.clipping.method;
  spec.keep_dense = config.keep_dense;
  t0 = Clock::now();
  nn::Network lowrank = core::to_lowrank(dense, spec);
  j.field("to_lowrank_s", seconds_since(t0));
  result.lowrank_start_accuracy = evaluate(lowrank);
  {
    Rng clip_rng(config.seed + 2);
    data::Batcher batcher(train, config.clipping_phase.batch_size,
                          clip_rng.split());
    nn::SgdOptimizer opt(config.clipping_phase.sgd);
    t0 = Clock::now();
    result.clipping_run =
        compress::run_rank_clipping(lowrank, opt, batcher, config.clipping);
    j.field("clipping_s", seconds_since(t0));
  }
  result.clipped_accuracy = evaluate(lowrank);
  result.clipped_report = report(lowrank);
  {
    Rng del_rng(config.seed + 3);
    data::Batcher batcher(train, config.deletion_phase.batch_size,
                          del_rng.split());
    nn::SgdOptimizer opt(config.deletion_phase.sgd);
    compress::DeletionConfig del = config.deletion;
    del.tech = config.tech;
    del.lasso.policy = config.policy;
    t0 = Clock::now();
    result.deletion = compress::run_group_connection_deletion(
        lowrank, opt, batcher, test, config.eval_samples, del);
    j.field("deletion_s", seconds_since(t0));
  }
  result.final_report = report(lowrank);
  result.final_report.digital_accuracy = result.deletion.accuracy_after_finetune;
  {
    t0 = Clock::now();
    runtime::CompileOptions copts;
    copts.tech = config.tech;
    copts.policy = config.policy;
    const runtime::CrossbarProgram program =
        runtime::compile(lowrank, test.sample_shape(), copts);
    const runtime::Executor executor(program);
    result.runtime_accuracy =
        runtime::evaluate(executor, test, config.eval_samples);
    obs::profile_program(program);
    j.field("runtime_eval_s", seconds_since(t0));
  }
  j.field("report_s", report_s);
  j.field("eval_s", eval_s);
  j.close('}');
  result.network = std::move(lowrank);
  return result;
}

void write_job(Json& j, double seconds, core::PipelineResult& r,
               const core::PipelineConfig& config) {
  // Gate input: the ratios recomputed from the compressed network.
  const core::NcsReport again =
      core::build_ncs_report(r.network, config.tech, config.policy);
  std::size_t clip_events = 0;
  const auto& snaps = r.clipping_run.snapshots;
  for (std::size_t s = 1; s < snaps.size(); ++s) {
    for (std::size_t l = 0; l < snaps[s].ranks.size(); ++l) {
      clip_events += snaps[s].ranks[l] < snaps[s - 1].ranks[l] ? 1 : 0;
    }
  }
  const core::NcsReport& f = r.final_report;
  j.open('{');
  j.field("seconds", seconds);
  j.field("accuracy", r.deletion.accuracy_after_finetune);
  j.field("runtime_accuracy", r.runtime_accuracy);
  j.field("crossbar_area_ratio", f.crossbar_area_ratio());
  j.field("routing_area_ratio", f.mean_routing_area_ratio());
  j.field("recomputed_crossbar_area_ratio", again.crossbar_area_ratio());
  j.field("recomputed_routing_area_ratio", again.mean_routing_area_ratio());
  j.field("deleted_wire_share", deleted_wire_share(f));
  j.field("clip_events", static_cast<double>(clip_events));
  j.close('}');
}

int compress_lenet(std::uint64_t seed, double seconds, bool trace) {
  Json j;
  j.open('{');
  const core::PipelineConfig config = compress_config();
  const auto build = [](Rng& rng) { return core::build_lenet(rng); };

  // Set-up: the job's datasets, materialised in memory. The training set is
  // fixed (the job is a fixed recipe); the evaluation set comes from --seed.
  std::vector<double> setup_s;
  std::unique_ptr<MemoryDataset> train;
  std::unique_ptr<MemoryDataset> test;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    train = std::make_unique<MemoryDataset>(data::SyntheticMnist(1001, 500), 500);
    test = std::make_unique<MemoryDataset>(
        data::SyntheticMnist(input_seed(seed, 3), 1000), 1000);
    setup_s.push_back(seconds_since(t0));
  }
  j.array("setup_s", setup_s);
  j.field("sgd_samples",
          static_cast<double>(
              config.pretrain.iterations * config.pretrain.batch_size +
              config.clipping.max_iterations * config.clipping_phase.batch_size +
              (config.deletion.train_iterations +
               config.deletion.finetune_iterations) *
                  config.deletion_phase.batch_size));

  // Whole jobs until the time budget is spent (at least one; a trace run
  // makes one untraced job and one phased job).
  std::unique_ptr<core::PipelineResult> last;
  j.key("jobs").open('[');
  const auto start = Clock::now();
  double longest = 0.0;
  do {
    const auto t0 = Clock::now();
    auto result = std::make_unique<core::PipelineResult>(
        core::run_group_scissor(build, *train, *test, config));
    const double s = seconds_since(t0);
    longest = std::max(longest, s);
    write_job(j, s, *result, config);
    last = std::move(result);
  } while (!trace && seconds_since(start) + longest <= seconds);
  j.close(']');

  if (trace) {
    const auto t0 = Clock::now();
    core::PipelineResult phased = phased_pipeline(j, *train, *test, config);
    const double s = seconds_since(t0);
    j.key("phased_job");
    write_job(j, s, phased, config);
    j.field("phased_matches",
            phased.final_report.crossbar_area_ratio() ==
                        last->final_report.crossbar_area_ratio() &&
                    phased.final_report.mean_routing_area_ratio() ==
                        last->final_report.mean_routing_area_ratio() &&
                    phased.deletion.accuracy_after_finetune ==
                        last->deletion.accuracy_after_finetune &&
                    phased.runtime_accuracy == last->runtime_accuracy
                ? 1.0
                : 0.0);
    j.field("pretrain_samples",
            static_cast<double>(config.pretrain.iterations *
                                config.pretrain.batch_size));
    runtime::CompileOptions copts;
    const runtime::CrossbarProgram program = probe_program(
        j, last->network, test->sample_shape(), copts, 3);
    probe_executor(j, program, stack(*test, 0, 64), 4.0);
  }
  j.field("peak_rss_mb", peak_rss_mb());
  write_env(j, 0, 0);
  j.close('}');
  std::cout << j.text() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: gsbench <workload> --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  const std::string workload = argv[1];
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--seconds") {
      seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else {
      std::cerr << "gsbench: unknown flag " << flag << '\n';
      return 2;
    }
  }
  try {
    const IdleSpinners spinners;
    if (workload == "serve_lenet") return serve_lenet(seed, trace);
    if (workload == "infer_convnet_nonideal") {
      return infer_convnet_nonideal(seed, seconds, trace);
    }
    if (workload == "compress_lenet") {
      return compress_lenet(seed, seconds, trace);
    }
  } catch (const std::exception& e) {
    std::cerr << "gsbench: " << e.what() << '\n';
    return 1;
  }
  std::cerr << "gsbench: unknown workload " << workload << '\n';
  return 2;
}
