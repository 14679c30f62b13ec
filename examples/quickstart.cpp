// Quickstart: the Group Scissor library in ~80 lines.
//
// Builds a small factorised network, trains it on the synthetic digit task,
// applies both compression steps (rank clipping + group connection
// deletion), prints the hardware savings, and finally serves the compressed
// network through the crossbar inference runtime.
//
//   ./quickstart
#include <iostream>
#include <memory>
#include <sstream>

#include "compress/connection_deletion.hpp"
#include "compress/rank_clipping.hpp"
#include "core/ncs_report.hpp"
#include "data/batcher.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/shard.hpp"

int main() {
  using namespace gs;

  // 1. Data: a deterministic 10-class digit-image generator.
  data::SyntheticMnist train_set(/*seed=*/1, /*count=*/400);
  data::SyntheticMnist test_set(/*seed=*/2, /*count=*/100);

  // 2. Model: a factorised MLP — fc1 holds W = U·Vᵀ and starts at rank 32.
  Rng rng(7);
  nn::Network net;
  net.add(std::make_unique<nn::FlattenLayer>("flatten"));
  net.add(std::make_unique<nn::LowRankDense>("fc1", 784, 128, 32, rng));
  net.add(std::make_unique<nn::ReluLayer>("relu"));
  net.add(std::make_unique<nn::DenseLayer>("fc2", 128, 10, rng));

  // 3. Train the baseline.
  data::Batcher batcher(train_set, 25, Rng(8));
  nn::SgdOptimizer opt({0.03f, 0.9f, 1e-4f});
  nn::train(net, opt, batcher, 400);
  std::cout << "baseline accuracy: " << nn::evaluate(net, test_set) << "\n";

  // 4. Step 1 — rank clipping (Algorithm 2): shrink factor ranks while
  //    training absorbs the clipping error.
  compress::RankClippingConfig clip;
  clip.epsilon = 0.05;
  clip.clip_interval = 50;
  clip.max_iterations = 300;
  compress::run_rank_clipping(net, opt, batcher, clip);
  std::cout << "after rank clipping: rank="
            << net.factorized_layers()[0]->current_rank()
            << " accuracy=" << nn::evaluate(net, test_set) << "\n";

  // 5. Step 2 — group connection deletion: group-Lasso training prunes
  //    whole crossbar wires, then masked fine-tuning recovers accuracy.
  compress::DeletionConfig del;
  del.lasso.lambda = 6e-2;
  del.tech = hw::paper_technology();
  del.train_iterations = 300;
  del.finetune_iterations = 150;
  nn::SgdOptimizer del_opt({0.05f, 0.9f, 0.0f});
  const compress::DeletionResult result =
      compress::run_group_connection_deletion(net, del_opt, batcher, test_set,
                                              0, del);
  std::cout << "after deletion: wires kept " << result.mean_wire_ratio
            << ", routing area kept " << result.mean_routing_area_ratio
            << ", accuracy " << result.accuracy_after_finetune << "\n";

  // 6. Hardware report: crossbars, areas, wires for the whole network.
  const core::NcsReport report =
      core::build_ncs_report(net, hw::paper_technology());
  core::print_ncs_report(std::cout, report);

  // 7. Crossbar inference runtime: compile the compressed network into a
  //    tiled analog execution plan (ideal device here; AnalogParams /
  //    DacAdcParams add nonidealities) and serve requests through the
  //    batching engine. The compiler marks the all-zero tiles deletion left
  //    behind; the executor skips them with bitwise-identical logits.
  const runtime::CrossbarProgram program =
      runtime::compile(net, test_set.sample_shape());
  const runtime::Executor executor(program);
  std::cout << "crossbar runtime: " << program.tile_count() << " tiles ("
            << program.skipped_tile_count() << " skipped as empty), "
            << program.stage_count() << " stages, accuracy "
            << runtime::evaluate(executor, test_set) << "\n";

  //    The server is a one-replica ShardedServer compiling the same
  //    program. Observability: the engine counts into its own metrics
  //    registry, plus every-10th-request tracing. Both only observe —
  //    logits are bitwise identical with tracing on or off — and the
  //    execution profile prices one inference in the paper's energy proxies
  //    (conversions, analog MVMs, skipped tiles).
  runtime::ShardConfig serve_config;
  serve_config.replicas = 1;
  serve_config.batching.observability.trace_sample_every = 10;
  runtime::ShardedServer server(net, test_set.sample_shape(),
                                runtime::CompileOptions{}, serve_config);
  std::size_t agreement = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const data::Sample sample = test_set.get(i);
    const Tensor logits = server.infer(sample.image);
    if (logits.argmax() == sample.label) ++agreement;
  }
  server.shutdown();
  std::cout << "served 20 requests, " << agreement << " correct\n";

  const obs::ExecProfile profile = executor.profile();
  std::cout << "per-sample profile: " << profile.dac_conversions
            << " DAC + " << profile.adc_conversions << " ADC conversions, "
            << profile.analog_mvms << " analog MVMs, "
            << profile.tiles_executed << " tiles executed ("
            << profile.tiles_skipped << " skipped)\n";
  std::cout << "metrics (prometheus excerpt):\n";
  std::istringstream exposition(server.registry().prometheus_text());
  std::string line;
  int shown = 0;
  while (std::getline(exposition, line) && shown < 5) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("gs_server_", 0) == 0 || line.rfind("gs_exec_", 0) == 0) {
      std::cout << "  " << line << "\n";
      ++shown;
    }
  }
  const auto traces = server.tracer()->completed();
  if (!traces.empty()) {
    std::cout << "trace of request " << traces.front()->request_id() << ":\n"
              << obs::render(*traces.front());
  }

  // 8. Sharded serving: the same network on two compiled replicas (distinct
  //    chips once nonidealities are on) behind one load-balanced,
  //    work-stealing server — the multi-socket scaling path.
  runtime::ShardConfig shard;
  shard.replicas = 2;
  runtime::ShardedServer sharded(net, test_set.sample_shape(),
                                 runtime::CompileOptions{}, shard);
  std::cout << "sharded serving (" << sharded.replica_count()
            << " replicas): accuracy "
            << runtime::evaluate(sharded, test_set) << "\n";
  return 0;
}
