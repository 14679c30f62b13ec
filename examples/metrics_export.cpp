// Serves a burst of requests through a one-replica serving engine with
// request tracing on, then writes the engine's metrics registry to stdout in
// Prometheus text exposition format (version 0.0.4) — and nothing else, so
// the output can be piped straight into a scraper or the CI format checker
// (scripts/check_metrics_export.py).
//
//   ./metrics_export | promtool check metrics   # (or the bundled checker)
#include <iostream>
#include <memory>

#include "nn/dense.hpp"
#include "obs/metrics.hpp"
#include "runtime/shard.hpp"

int main() {
  using namespace gs;

  Rng rng(3);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", 64, 10, rng));

  runtime::ShardConfig config;
  config.replicas = 1;
  config.batching.observability.trace_sample_every = 4;
  runtime::ShardedServer server(net, Shape{64}, runtime::CompileOptions{},
                                config);
  for (std::uint64_t s = 0; s < 32; ++s) {
    Tensor sample(Shape{64});
    Rng sample_rng(100 + s);
    sample.fill_uniform(sample_rng, -1.0f, 1.0f);
    (void)server.infer(sample);
  }
  server.shutdown();

  // No registry was configured, so the engine counted into its own.
  std::cout << server.registry().prometheus_text();
  return 0;
}
