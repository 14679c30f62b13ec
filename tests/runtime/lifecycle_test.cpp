// Request lifecycle: every way a request can leave ShardedServer — reply,
// each rejection, each shed — runs the same bookkeeping. One table row per
// terminal outcome drives a fresh server into it and checks that the
// request lands in exactly one of completed/rejected/shed/failed, the
// inflight gauge drains to zero, the tenant's slot is free again, and its
// sampled trace is finished with the outcome's `result` note.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/shard.hpp"
#include "shard_fixtures.hpp"

namespace gs::runtime {
namespace {

using namespace fixtures;

/// The subject's tenant, capped at one inflight request: a slot its ending
/// failed to free would reject the tenant's next submit. Helper requests
/// belong to another tenant unless a row needs the subject's.
constexpr std::uint64_t kTenant = 7;
constexpr std::uint64_t kOtherTenant = 9;

/// A sample whose element 17 is `value`.
Tensor poisoned_sample(float value) {
  Tensor t = random_sample(11);
  t.data()[17] = value;
  return t;
}

RequestOptions tenant_options(std::chrono::microseconds deadline = {},
                              std::uint64_t tenant = kTenant) {
  RequestOptions options;
  options.tenant = tenant;
  options.deadline = deadline;
  return options;
}

/// What a row's traffic produced: the request under test, and any helper
/// requests that must be served normally.
struct Driven {
  std::future<Tensor> subject;
  std::vector<std::future<Tensor>> others;
};

struct Row {
  const char* name = "";
  /// Final counts over every request the row submitted.
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  /// The subject's trace `result` note, and a substring of its error ("" for
  /// a served request).
  const char* result = "";
  const char* error = "";
  /// False where the server accepts nothing afterwards (shut down).
  bool resubmit = true;
  std::function<void(ShardConfig&)> configure = nullptr;
  /// Drives the server until the subject's outcome is decided; the server
  /// may be left paused.
  std::function<Driven(ShardedServer&)> drive = nullptr;
};

std::vector<Row> rows() {
  const auto submit = [](ShardedServer& server, std::uint64_t seed,
                         std::chrono::microseconds deadline = {}) {
    return server.submit(random_sample(seed), tenant_options(deadline));
  };
  const auto helper = [](ShardedServer& server, std::uint64_t seed,
                         std::chrono::microseconds deadline = {}) {
    return server.submit(random_sample(seed),
                         tenant_options(deadline, kOtherTenant));
  };
  const auto non_finite = [](const char* name, float value) {
    Row row{.name = name, .rejected = 1, .result = "rejected",
            .error = "non-finite"};
    row.drive = [value](ShardedServer& server) {
      return Driven{
          server.submit(poisoned_sample(value), tenant_options()), {}};
    };
    return row;
  };
  std::vector<Row> table;

  Row ok{.name = "ok", .completed = 1, .result = "ok"};
  ok.drive = [submit](ShardedServer& server) {
    return Driven{submit(server, 1), {}};
  };
  table.push_back(ok);

  Row shutdown{.name = "rejected_shutdown", .rejected = 1, .result = "rejected",
               .error = "shut down"};
  shutdown.resubmit = false;
  shutdown.drive = [submit](ShardedServer& server) {
    server.shutdown();
    return Driven{submit(server, 1), {}};
  };
  table.push_back(shutdown);

  Row queue_full{.name = "rejected_queue_full", .completed = 1, .rejected = 1,
                 .result = "rejected", .error = "queue full"};
  queue_full.configure = [](ShardConfig& config) {
    config.batching.max_queue_depth = 1;
  };
  queue_full.drive = [submit, helper](ShardedServer& server) {
    server.set_paused(true);
    Driven driven;
    driven.others.push_back(helper(server, 1));
    driven.subject = submit(server, 2);  // equal rank: cannot displace
    return driven;
  };
  table.push_back(queue_full);

  Row admission{.name = "rejected_admission", .rejected = 1,
                .result = "admission_rejected", .error = "admission"};
  admission.configure = [](ShardConfig& config) {
    config.batching.admission.enabled = true;
    config.batching.admission.assumed_batch_cost =
        std::chrono::microseconds(10'000);
  };
  admission.drive = [submit](ShardedServer& server) {
    return Driven{submit(server, 1, std::chrono::milliseconds(1)), {}};
  };
  table.push_back(admission);

  Row tenant_cap{.name = "rejected_tenant_cap", .completed = 1, .rejected = 1,
                 .result = "rejected", .error = "tenant"};
  tenant_cap.drive = [submit](ShardedServer& server) {
    server.set_paused(true);
    Driven driven;
    driven.others.push_back(submit(server, 1));  // holds the tenant's cap
    driven.subject = submit(server, 2);
    return driven;
  };
  table.push_back(tenant_cap);

  table.push_back(non_finite("rejected_nan",
                             std::numeric_limits<float>::quiet_NaN()));
  table.push_back(non_finite("rejected_pos_inf",
                             std::numeric_limits<float>::infinity()));
  table.push_back(non_finite("rejected_neg_inf",
                             -std::numeric_limits<float>::infinity()));

  Row displaced{.name = "shed_displaced", .completed = 1, .shed = 1,
                .result = "displaced", .error = "displaced"};
  displaced.configure = [](ShardConfig& config) {
    config.batching.max_queue_depth = 1;
  };
  displaced.drive = [submit, helper](ShardedServer& server) {
    server.set_paused(true);
    Driven driven;
    driven.subject = submit(server, 1, std::chrono::seconds(20));
    driven.others.push_back(helper(server, 2, std::chrono::seconds(5)));
    return driven;
  };
  table.push_back(displaced);

  Row expired{.name = "shed_expired", .shed = 1, .result = "shed",
              .error = "deadline expired"};
  expired.drive = [submit](ShardedServer& server) {
    server.set_paused(true);
    Driven driven{submit(server, 1, std::chrono::milliseconds(1)), {}};
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.set_paused(false);
    return driven;
  };
  table.push_back(expired);

  Row quarantine{.name = "shed_quarantine_reroute", .completed = 1, .shed = 1,
                 .result = "shed", .error = "quarantined"};
  quarantine.configure = [](ShardConfig& config) {
    config.replicas = 2;
    config.seed_stride = 0;
    config.steal_work = false;
    config.max_retries = 0;  // quarantine sheds the queue outright
  };
  quarantine.drive = [submit, helper](ShardedServer& server) {
    server.set_paused(true);
    Driven driven;
    driven.others.push_back(helper(server, 1));  // replica 0
    driven.subject = submit(server, 2);          // replica 1
    server.inject_replica_faults(1, heavy_faults());
    (void)server.probe_now(1);
    return driven;
  };
  table.push_back(quarantine);

  Row drain{.name = "shed_scale_down_drain", .completed = 1, .shed = 1,
            .result = "shed", .error = "scale-down"};
  drain.configure = [](ShardConfig& config) {
    config.replicas = 2;
    config.seed_stride = 0;
    config.steal_work = false;
    config.batching.max_queue_depth = 1;  // the survivor has no room
    config.autoscale.enabled = true;
    config.autoscale.min_replicas = 1;
    config.autoscale.scale_up_depth = 100.0;
    config.autoscale.scale_down_depth = 1.0;
    config.autoscale.down_ticks = 1;
  };
  drain.drive = [submit, helper](ShardedServer& server) {
    server.set_paused(true);
    Driven driven;
    driven.others.push_back(helper(server, 1));  // replica 0
    driven.subject = submit(server, 2);          // replica 1, retired below
    const AutoscaleDecision decision = server.autoscale_tick_now();
    EXPECT_EQ(decision.action, AutoscaleAction::kDown);
    EXPECT_EQ(decision.target, 1u);
    return driven;
  };
  table.push_back(drain);
  return table;
}

TEST(LifecycleTest, EveryTerminalOutcomeSettlesItsBookkeeping) {
  const nn::Network net = small_net();
  for (const Row& row : rows()) {
    SCOPED_TRACE(row.name);
    obs::Registry registry;
    ShardConfig config;
    config.replicas = 1;
    config.max_inflight_per_tenant = 1;
    config.batching.observability.registry = &registry;
    config.batching.observability.trace_sample_every = 1;
    config.batching.observability.trace_keep = 64;
    if (row.configure) row.configure(config);
    ShardedServer server(net, Shape{64}, CompileOptions{}, config);

    Driven driven = row.drive(server);
    server.set_paused(false);
    if (*row.error == '\0') {
      EXPECT_EQ(driven.subject.get().numel(), 10u);
    } else {
      try {
        (void)driven.subject.get();
        ADD_FAILURE() << "expected the request to end with an error";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(row.error), std::string::npos)
            << e.what();
      }
    }
    for (auto& other : driven.others) EXPECT_EQ(other.get().numel(), 10u);

    // Exactly one terminal count per request, and nothing left inflight.
    const ServerStats stats = server.stats().aggregate;
    EXPECT_EQ(stats.completed, row.completed);
    EXPECT_EQ(stats.rejected, row.rejected);
    EXPECT_EQ(stats.shed, row.shed);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(registry
                  .gauge("gs_server_inflight", "",
                         obs::Labels{{"engine", "sharded"}})
                  .value(),
              0.0);

    // Every request's trace is finished before its future settles; the
    // subject's note is the only one of its kind among them.
    const auto traces = server.tracer()->completed();
    EXPECT_EQ(traces.size(), 1 + driven.others.size());
    std::size_t with_result = 0;
    for (const auto& trace : traces) {
      for (const obs::SpanRecord& span : trace->spans()) {
        for (const auto& [key, value] : span.notes) {
          if (key == "result" && value == row.result) ++with_result;
        }
      }
    }
    EXPECT_EQ(with_result, 1u);

    // The tenant's slot is free again.
    if (row.resubmit) {
      EXPECT_EQ(server.submit(random_sample(100), tenant_options())
                    .get()
                    .numel(),
                10u);
    }
  }
}

}  // namespace
}  // namespace gs::runtime
