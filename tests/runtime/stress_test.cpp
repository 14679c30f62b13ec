// Shutdown-under-load stress tests for the serving engine — the
// ThreadSanitizer workload (CI runs this suite under GS_SANITIZE=thread).
//
// The scenarios no other test exercises:
//  * destructor racing in-flight submits — futures issued before teardown
//    must all resolve (logits or the documented rejection error) while the
//    destructor drains, never hang or crash; and shutdown() must be safe
//    concurrently with live submitters. submit() AFTER shutdown() (object
//    alive) is a defined, tested path — an immediately-rejected future —
//    only calling into an already-destroyed object remains caller UB and is
//    deliberately NOT exercised;
//  * sharded shutdown during a steal storm — tiny deadlines force
//    work stealing while shutdown() drains the queues from another thread;
//  * fault injection / probing / recalibration racing live traffic — the
//    per-replica program lock must serialise reprogramming against forwards
//    without ever failing or dropping a request.
// Counters are cross-checked afterwards so drained work is fully accounted.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/models.hpp"
#include "nn/dense.hpp"
#include "runtime/shard.hpp"

namespace gs::runtime {
namespace {

nn::Network tiny_net(std::uint64_t seed) {
  Rng rng(seed);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", 12, 4, rng));
  return net;
}

Tensor sample(float value) { return Tensor(Shape{12}, value); }

/// A one-replica server config — the plain batching server.
ShardConfig one_replica(std::size_t max_batch = 32,
                        std::chrono::microseconds max_delay =
                            std::chrono::microseconds(1000)) {
  ShardConfig config;
  config.replicas = 1;
  config.batching.max_batch = max_batch;
  config.batching.max_delay = max_delay;
  return config;
}

/// Runs `clients` threads hammering `submit` until `stop` flips; returns
/// (completed, rejected) as counted from the client side.
struct ClientStorm {
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> threads;

  template <typename Submit>
  void launch(std::size_t clients, Submit submit) {
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([this, submit, c] {
        while (!stop.load(std::memory_order_relaxed)) {
          std::future<Tensor> future =
              submit(sample(0.1f * static_cast<float>(c + 1)));
          try {
            future.get();
            completed.fetch_add(1, std::memory_order_relaxed);
          } catch (const std::runtime_error&) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }

  void join() {
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }
};

TEST(ServerStressTest, DestructorResolvesInFlightFutures) {
  nn::Network net = tiny_net(3);

  for (int round = 0; round < 8; ++round) {
    auto server = std::make_optional<ShardedServer>(
        net, Shape{12}, CompileOptions{},
        one_replica(4, std::chrono::microseconds(200)));

    // Pile up in-flight work, then destroy the server while none of it has
    // been collected: the destructor's drain must resolve every future.
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 32; ++i) {
      futures.push_back(server->submit(sample(0.5f)));
    }
    server.reset();
    std::size_t resolved = 0;
    for (std::future<Tensor>& f : futures) {
      try {
        EXPECT_EQ(f.get().numel(), 4u);
        ++resolved;
      } catch (const std::runtime_error&) {
        // acceptable: rejected at the shutdown edge
      }
    }
    EXPECT_GT(resolved, 0u);  // shutdown drains, it does not drop
  }
}

TEST(ServerStressTest, ConcurrentShutdownRacesLiveSubmitters) {
  nn::Network net = tiny_net(3);

  for (int round = 0; round < 8; ++round) {
    ShardedServer server(net, Shape{12}, CompileOptions{},
                         one_replica(4, std::chrono::microseconds(200)));

    ClientStorm storm;
    storm.launch(4, [&server](Tensor s) {
      // Shutdown may land mid-call: submit() must either accept (future
      // resolves with logits) or reject (runtime_error) — the storm treats
      // both as success, a hang or crash fails the test.
      return server.submit(std::move(s));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.shutdown();  // races the storm, object stays alive
    storm.join();
    SUCCEED();
  }
}

TEST(ServerStressTest, ShutdownDrainsAndAccountsEveryRequest) {
  nn::Network net = tiny_net(5);
  ShardedServer server(net, Shape{12}, CompileOptions{},
                       one_replica(8, std::chrono::microseconds(500)));

  ClientStorm storm;
  storm.launch(4, [&server](Tensor s) { return server.submit(std::move(s)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.shutdown();  // concurrent with live submitters
  storm.join();

  const ServerStats stats = server.stats().aggregate;
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, storm.completed.load());
  EXPECT_EQ(stats.rejected, storm.rejected.load());
  // Shutdown drained the queue: everything accepted was completed.
  EXPECT_GT(stats.completed, 0u);
}

TEST(ServerStressTest, ShutdownIsIdempotentUnderConcurrentCallers) {
  nn::Network net = tiny_net(7);

  for (int round = 0; round < 8; ++round) {
    ShardedServer server(net, Shape{12}, CompileOptions{}, one_replica());
    std::vector<std::thread> closers;
    for (int t = 0; t < 4; ++t) {
      closers.emplace_back([&server] { server.shutdown(); });
    }
    for (std::thread& t : closers) t.join();
    SUCCEED();
  }
}

TEST(ShardStressTest, DestructorResolvesInFlightFuturesDuringStealStorm) {
  nn::Network net = tiny_net(11);

  for (int round = 0; round < 4; ++round) {
    ShardConfig config;
    config.replicas = 3;
    config.total_threads = 3;
    config.steal_work = true;
    config.batching.max_batch = 4;
    // A zero coalescing deadline makes every queued request instantly ripe,
    // so idle replicas steal constantly while the drain runs.
    config.batching.max_delay = std::chrono::microseconds(0);
    auto server =
        std::make_optional<ShardedServer>(net, Shape{12}, CompileOptions{},
                                          config);

    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 48; ++i) {
      futures.push_back(server->submit(sample(0.25f)));
    }
    server.reset();  // dispatchers + steal paths drain under destruction
    std::size_t resolved = 0;
    for (std::future<Tensor>& f : futures) {
      try {
        EXPECT_EQ(f.get().numel(), 4u);
        ++resolved;
      } catch (const std::runtime_error&) {
      }
    }
    EXPECT_GT(resolved, 0u);
  }
}

TEST(ShardStressTest, ConcurrentShutdownRacesStealStorm) {
  nn::Network net = tiny_net(11);

  for (int round = 0; round < 4; ++round) {
    ShardConfig config;
    config.replicas = 3;
    config.total_threads = 3;
    config.steal_work = true;
    config.batching.max_batch = 4;
    config.batching.max_delay = std::chrono::microseconds(0);
    ShardedServer server(net, Shape{12}, CompileOptions{}, config);

    ClientStorm storm;
    storm.launch(6, [&server](Tensor s) {
      return server.submit(std::move(s));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.shutdown();  // races submits and steals, object stays alive
    storm.join();
    SUCCEED();
  }
}

TEST(ServerStressTest, PostShutdownSubmitsRejectImmediatelyFromManyThreads) {
  nn::Network net = tiny_net(9);
  ShardedServer server(net, Shape{12}, CompileOptions{}, one_replica());
  server.shutdown();

  // Regression: submit() after shutdown() used to be caller UB; it is now a
  // defined path returning an immediately-rejected future — from any number
  // of threads.
  std::vector<std::thread> clients;
  std::atomic<std::size_t> rejected{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&server, &rejected] {
      for (int i = 0; i < 16; ++i) {
        auto future = server.submit(sample(0.5f));
        try {
          future.get();
        } catch (const std::runtime_error& e) {
          if (std::string(e.what()).find("shut down") != std::string::npos) {
            rejected.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(rejected.load(), 64u);
  EXPECT_EQ(server.stats().aggregate.rejected, 64u);
}

TEST(ShardStressTest, ShutdownDuringStealDrainsEveryQueue) {
  nn::Network net = tiny_net(13);
  ShardConfig config;
  config.replicas = 2;
  config.total_threads = 2;
  config.steal_work = true;
  config.batching.max_batch = 2;
  config.batching.max_delay = std::chrono::microseconds(0);
  ShardedServer server(net, Shape{12}, CompileOptions{}, config);

  ClientStorm storm;
  storm.launch(6, [&server](Tensor s) { return server.submit(std::move(s)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.shutdown();
  storm.join();

  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.failed, 0u);
  EXPECT_EQ(stats.aggregate.completed, storm.completed.load());
  EXPECT_EQ(stats.aggregate.rejected, storm.rejected.load());
  EXPECT_GT(stats.aggregate.completed, 0u);
  std::size_t per_replica = 0;
  for (const ReplicaStats& r : stats.replicas) per_replica += r.completed;
  EXPECT_EQ(per_replica, stats.aggregate.completed);
}

TEST(ShardStressTest, FaultLifecycleRacesServingTraffic) {
  nn::Network net = tiny_net(17);

  for (int round = 0; round < 2; ++round) {
    ShardConfig config;
    config.replicas = 2;
    config.total_threads = 2;
    config.seed_stride = 0;
    config.batching.max_batch = 4;
    config.batching.max_delay = std::chrono::microseconds(100);
    ShardedServer server(net, Shape{12}, CompileOptions{}, config);

    ClientStorm storm;
    storm.launch(4, [&server](Tensor s) {
      return server.submit(std::move(s));
    });
    // Chaos thread: degrade / detect / heal replica 1 in a tight loop while
    // traffic flows. Every forward holds the program lock shared; injection
    // and recalibration hold it exclusive — TSan validates the ordering.
    std::thread chaos([&server] {
      hw::FaultModelConfig faults;
      faults.stuck_rate = 0.2;
      faults.stuck_at_gmax_fraction = 1.0;
      for (int i = 0; i < 20; ++i) {
        faults.seed = 100 + i;
        server.inject_replica_faults(1, faults);
        server.probe_now(1);
        server.recalibrate_now(1);
        std::this_thread::yield();
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    chaos.join();
    server.shutdown();
    storm.join();

    // After the last heal the replica is fully readmitted, and no request
    // ever failed — shed/retried requests surface as rejections client-side.
    EXPECT_EQ(server.health(1), ReplicaHealth::kHealthy);
    const ShardStats stats = server.stats();
    EXPECT_EQ(stats.aggregate.failed, 0u);
    EXPECT_EQ(stats.aggregate.completed, storm.completed.load());
    EXPECT_GT(stats.replicas[1].recalibrations, 0u);
  }
}

}  // namespace
}  // namespace gs::runtime
