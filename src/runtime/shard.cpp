#include "runtime/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/models.hpp"
#include "nn/trainer.hpp"

namespace gs::runtime {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// FNV-1a fold of one integral value into a running hash.
std::uint64_t fnv1a_fold(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// The error a refused (rejected or shed) request's future carries.
std::exception_ptr refusal(const std::string& message) {
  return std::make_exception_ptr(std::runtime_error(message));
}
}  // namespace

void AutoscaleConfig::validate() const {
  if (!enabled) return;
  GS_CHECK_MSG(min_replicas >= 1, "AutoscaleConfig: min_replicas >= 1");
  GS_CHECK(scale_up_depth >= 0.0);
  GS_CHECK(scale_down_depth >= 0.0);
  GS_CHECK_MSG(up_ticks >= 1 && down_ticks >= 1,
               "AutoscaleConfig: streak lengths are at least one tick");
}

void ShardConfig::validate() const {
  GS_CHECK_MSG(replicas >= 1, "ShardConfig: need at least one replica");
  GS_CHECK(probe_interval.count() >= 0);
  batching.validate();
  health.validate();
  autoscale.validate();
  if (autoscale.enabled) {
    GS_CHECK_MSG(autoscale.min_replicas <= replicas,
                 "AutoscaleConfig: min_replicas exceeds the initial fleet");
    GS_CHECK_MSG(
        autoscale.max_replicas == 0 || autoscale.max_replicas >= replicas,
        "AutoscaleConfig: max_replicas below the initial fleet");
  }
}

std::vector<std::size_t> split_thread_budget(std::size_t total,
                                             std::size_t replicas) {
  GS_CHECK(replicas >= 1);
  GS_CHECK(total >= 1);
  std::vector<std::size_t> split(replicas, std::max<std::size_t>(
                                               1, total / replicas));
  if (total >= replicas) {
    const std::size_t remainder = total % replicas;
    for (std::size_t r = 0; r < remainder; ++r) ++split[r];
    std::size_t sum = 0;
    for (const std::size_t share : split) sum += share;
    GS_CHECK_MSG(sum == total,
                 "split_thread_budget: shares " << sum
                                                << " != budget " << total);
  }
  return split;
}

ShardedServer::ShardedServer(const nn::Network& net, const Shape& sample_shape,
                             const CompileOptions& options, ShardConfig config)
    : config_(std::move(config)),
      network_(core::clone_network(net)),
      sample_shape_(sample_shape),
      base_options_(options) {
  config_.validate();
  capacity_ = config_.autoscale.enabled && config_.autoscale.max_replicas != 0
                  ? config_.autoscale.max_replicas
                  : config_.replicas;
  const std::size_t budget = config_.total_threads != 0
                                 ? config_.total_threads
                                 : ThreadPool::global().size();
  thread_split_ = split_thread_budget(budget, capacity_);

  const obs::ObservabilityConfig& obs_config = config_.batching.observability;
  registry_ = obs_config.registry;
  if (registry_ == nullptr) {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  metrics_ = std::make_unique<obs::ServingMetrics>(*registry_, "sharded");
  fleet_metrics_ = std::make_unique<obs::FleetMetrics>(*registry_);
  fleet_metrics_->active_replicas.set(static_cast<double>(config_.replicas));
  replica_metrics_.reserve(capacity_);
  for (std::size_t r = 0; r < capacity_; ++r) {
    replica_metrics_.emplace_back(*registry_, r);
    replica_metrics_.back().health_state.set(
        static_cast<double>(static_cast<int>(ReplicaHealth::kHealthy)));
  }
  // A shared registry already holds other engines' counts: every read is
  // relative to the values found here.
  baseline_.fault_injections.assign(capacity_, 0);
  baseline_.recalibrations.assign(capacity_, 0);
  baseline_ = counts();
  if (obs_config.tracer != nullptr) {
    tracer_ = obs_config.tracer;
  } else if (obs_config.trace_sample_every > 0) {
    owned_tracer_ = std::make_unique<obs::Tracer>(
        obs_config.trace_sample_every, obs_config.trace_keep, registry_);
    tracer_ = owned_tracer_.get();
  }

  {
    MutexLock lock(mutex_);
    replicas_.resize(capacity_);  // null slots; built below / on activation
    queues_.resize(capacity_);
    health_.assign(capacity_, ReplicaHealth::kHealthy);
    trackers_.reserve(capacity_);
    for (std::size_t r = 0; r < capacity_; ++r) {
      trackers_.push_back(std::make_unique<HealthTracker>(config_.health));
    }
    active_.assign(capacity_, 0);
    for (std::size_t r = 0; r < config_.replicas; ++r) active_[r] = 1;
  }
  {
    MutexLock lock(stats_mutex_);
    counters_.resize(capacity_);
  }
  // Initially-active replicas compile eagerly; headroom slots (autoscale
  // capacity beyond the initial fleet) compile lazily on first activation.
  for (std::size_t r = 0; r < config_.replicas; ++r) build_replica(r);
  // Dispatchers start only after every initial replica exists — they scan
  // the whole replica vector for steal victims.
  {
    MutexLock join_lock(join_mutex_);
    dispatchers_.reserve(capacity_);
    for (std::size_t r = 0; r < capacity_; ++r) {
      dispatchers_.emplace_back([this, r] { dispatch_loop(r); });
    }
    if (config_.probe_interval.count() > 0) {
      maintenance_ = std::thread([this] { maintenance_loop(); });
    }
  }
}

ShardedServer::~ShardedServer() { shutdown(); }

void ShardedServer::build_replica(std::size_t r) {
  GS_CHECK(r < capacity_);
  {
    MutexLock lock(mutex_);
    if (replicas_[r] != nullptr) return;
  }
  auto replica = std::make_unique<Replica>();
  CompileOptions replica_options = base_options_;
  replica_options.analog.seed =
      base_options_.analog.seed + r * config_.seed_stride;
  replica->options = replica_options;
  {
    SharedWriterLock plock(replica->program_mutex);
    replica->program = compile(network_, sample_shape_, replica_options);
    replica->pool = std::make_unique<ThreadPool>(thread_split_[r]);
    replica->executor =
        std::make_unique<Executor>(replica->program, replica->pool.get());
    // Record the clean canary reference while the chip is known pristine —
    // this is the bitwise target every future probe (and recalibration)
    // compares against.
    replica->canary =
        std::make_unique<CanarySet>(sample_shape_, config_.health);
    replica->canary->record_reference(*replica->executor);
  }
  MutexLock lock(mutex_);
  GS_CHECK_MSG(replicas_[r] == nullptr,
               "replica slot " << r << " built twice (concurrent activation "
                                        "is serialised by autoscale_mutex_)");
  replicas_[r] = std::move(replica);
}

ShardedServer::Replica& ShardedServer::replica_ref(std::size_t r) const {
  GS_CHECK(r < capacity_);
  Replica* replica = nullptr;
  {
    MutexLock lock(mutex_);
    replica = replicas_[r].get();
  }
  GS_CHECK_MSG(replica != nullptr,
               "replica " << r << " is an unbuilt autoscale headroom slot");
  return *replica;
}

const CrossbarProgram& ShardedServer::program(std::size_t r) const {
  Replica& replica = replica_ref(r);
  // The reader lock satisfies the guard for the access itself; as documented
  // in the header, the RETURNED reference is not synchronised against later
  // mutation — callers quiesce injection/recalibration first.
  SharedReaderLock plock(replica.program_mutex);
  return replica.program;
}

std::size_t ShardedServer::placement_target(std::size_t exclude) const {
  std::size_t target = kNone;
  for (std::size_t r = 0; r < capacity_; ++r) {
    if (r == exclude) continue;
    if (!active_[r]) continue;
    if (health_[r] == ReplicaHealth::kQuarantined) continue;
    if (target == kNone || queues_[r].size() < queues_[target].size()) {
      target = r;
    }
  }
  return target;
}

void ShardedServer::finish_requests(std::span<Request> requests,
                                    Outcome outcome,
                                    const std::exception_ptr& error,
                                    const Tensor* logits) {
  const std::size_t n = requests.size();
  if (n == 0) return;
  if (outcome > Outcome::kAdmissionRejected) {  // admitted
    // The tenant count is only kept while the cap is enforced.
    if (config_.max_inflight_per_tenant > 0) {
      MutexLock lock(mutex_);
      for (const Request& request : requests) {
        const auto it = tenant_inflight_.find(request.tenant);
        if (it != tenant_inflight_.end() && --it->second == 0) {
          tenant_inflight_.erase(it);
        }
      }
    }
    metrics_->inflight.add(-static_cast<double>(n));
  }
  // Both indexed by Outcome.
  static constexpr const char* kNotes[] = {
      "rejected", "rejected", "admission_rejected", "ok",
      "displaced", "shed", "failed"};
  obs::Counter* const counters[] = {
      &metrics_->rejected, &metrics_->rejected, &metrics_->rejected,
      &metrics_->completed, &metrics_->shed, &metrics_->shed,
      &metrics_->failed};
  const auto index = static_cast<std::size_t>(outcome);
  counters[index]->inc(n);
  if (outcome == Outcome::kTenantRejected) metrics_->tenant_rejected.inc(n);
  if (outcome == Outcome::kAdmissionRejected) {
    metrics_->admission_rejected.inc(n);
  }
  const std::size_t classes = logits != nullptr ? logits->numel() / n : 0;
  for (std::size_t i = 0; i < n; ++i) {
    Request& request = requests[i];
    const std::shared_ptr<obs::Trace> trace = std::move(request.trace);
    std::uint64_t reply_span = 0;
    if (trace) {
      if (request.execute_span != 0) trace->end_span(request.execute_span);
      trace->end_span(request.span);
      if (logits != nullptr) {
        reply_span = trace->begin_span("reply", obs::Trace::kRoot);
      }
    }
    Tensor row;
    if (logits != nullptr) {
      row = Tensor(Shape{classes});
      std::copy(logits->data() + i * classes,
                logits->data() + (i + 1) * classes, row.data());
    }
    // The trace is finished before the promise settles, so a client holding
    // its result also sees its finished trace.
    if (trace) {
      if (reply_span != 0) trace->end_span(reply_span);
      trace->annotate(obs::Trace::kRoot, "result", kNotes[index]);
      if (tracer_ != nullptr) tracer_->finish(trace);
    }
    if (logits != nullptr) {
      request.promise.set_value(std::move(row));
    } else {
      request.promise.set_exception(error);
    }
  }
}

void ShardedServer::update_queue_gauges() const {
  std::size_t total = 0;
  for (std::size_t r = 0; r < queues_.size(); ++r) {
    total += queues_[r].size();
    replica_metrics_[r].queue_depth.set(
        static_cast<double>(queues_[r].size()));
  }
  metrics_->queue_depth.set(static_cast<double>(total));
}

void ShardedServer::record_health(std::size_t r, ReplicaHealth state) const {
  const int index = static_cast<int>(state);
  replica_metrics_[r].health_state.set(static_cast<double>(index));
  replica_metrics_[r].transitions_to[static_cast<std::size_t>(index)]->inc();
}

ShardedServer::Counts ShardedServer::counts() const {
  const auto since = [](const obs::Counter& counter, std::uint64_t base) {
    return counter.value() - base;
  };
  Counts c;
  c.rejected = since(metrics_->rejected, baseline_.rejected);
  c.admission_rejected =
      since(metrics_->admission_rejected, baseline_.admission_rejected);
  c.tenant_rejected =
      since(metrics_->tenant_rejected, baseline_.tenant_rejected);
  c.shed = since(metrics_->shed, baseline_.shed);
  c.failed = since(metrics_->failed, baseline_.failed);
  c.retried = since(metrics_->retries, baseline_.retried);
  c.drained = since(fleet_metrics_->drained, baseline_.drained);
  c.deadline_hits = since(metrics_->deadline_hits, baseline_.deadline_hits);
  c.deadline_misses =
      since(metrics_->deadline_misses, baseline_.deadline_misses);
  for (std::size_t r = 0; r < capacity_; ++r) {
    c.fault_injections.push_back(since(replica_metrics_[r].fault_injections,
                                       baseline_.fault_injections[r]));
    c.recalibrations.push_back(since(replica_metrics_[r].recalibrations,
                                     baseline_.recalibrations[r]));
  }
  return c;
}

std::future<Tensor> ShardedServer::submit(Tensor sample,
                                          std::chrono::microseconds deadline) {
  return submit(std::move(sample), RequestOptions{.deadline = deadline});
}

std::future<Tensor> ShardedServer::submit(Tensor sample,
                                          const RequestOptions& options) {
  // Every replica program's input_shape() is the sample_shape_ the server
  // compiled with, so validation needs no program lock.
  GS_CHECK_MSG(sample.shape() == sample_shape_,
               "sharded server sample " << shape_to_string(sample.shape())
                                        << " does not match program input "
                                        << shape_to_string(sample_shape_));
  const bool finite =
      std::all_of(sample.data(), sample.data() + sample.numel(),
                  [](float v) { return std::isfinite(v); });
  Request request;
  request.sample = std::move(sample);
  request.enqueued = std::chrono::steady_clock::now();
  request.deadline = options.deadline.count() > 0
                         ? request.enqueued + options.deadline
                         : kNoDeadline;
  request.tenant = options.tenant;
  request.priority = options.priority;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ != nullptr) request.trace = tracer_->start(request.id);
  if (request.trace) {
    request.span = request.trace->begin_span("submit", obs::Trace::kRoot);
  }
  std::future<Tensor> future = request.promise.get_future();

  std::string reject_reason;
  Outcome rejection = Outcome::kRejected;
  std::optional<Request> displaced;
  {
    MutexLock lock(mutex_);
    // Counts are only kept while the cap is enforced (non-zero).
    const auto held = tenant_inflight_.find(request.tenant);
    const bool tenant_capped = held != tenant_inflight_.end() &&
                               held->second >= config_.max_inflight_per_tenant;
    if (stopping_) {
      reject_reason = "ShardedServer: rejected — server is shut down";
    } else if (!finite) {
      // A NaN or Inf sample would reach the logits with nothing counted.
      reject_reason =
          "ShardedServer: rejected — sample holds a non-finite value (NaN or "
          "Inf)";
    } else if (tenant_capped) {
      // Per-tenant fairness: a tenant already holding its inflight cap is
      // rejected while other tenants keep being placed.
      std::ostringstream msg;
      msg << "ShardedServer: rejected — tenant " << request.tenant
          << " at its inflight cap (max_inflight_per_tenant="
          << config_.max_inflight_per_tenant << ")";
      reject_reason = msg.str();
      rejection = Outcome::kTenantRejected;
    } else {
      // Shortest-queue placement over ACTIVE replicas (quarantined chips
      // take no new work).
      const std::size_t target = placement_target(kNone);
      if (target == kNone) {
        reject_reason = "ShardedServer: rejected — no active replica";
      } else {
        std::deque<Request>& queue = queues_[target];
        if (config_.batching.admission.enabled &&
            request.deadline != kNoDeadline) {
          const double cost_us =
              config_.batching.admission.assumed_batch_cost.count() > 0
                  ? static_cast<double>(
                        config_.batching.admission.assumed_batch_cost.count())
                  : ewma_batch_cost_us_.load(std::memory_order_relaxed);
          const double batches_ahead =
              std::ceil(static_cast<double>(queue.size() + 1) /
                        static_cast<double>(config_.batching.max_batch));
          const auto predicted_wait = std::chrono::microseconds(
              static_cast<long long>(batches_ahead * cost_us));
          if (request.enqueued + predicted_wait > request.deadline) {
            reject_reason =
                "ShardedServer: rejected — admission control predicts a "
                "deadline miss";
            rejection = Outcome::kAdmissionRejected;
          }
        }
        if (reject_reason.empty() &&
            queue.size() >= config_.batching.max_queue_depth) {
          // The shortest active queue being full means every active queue is
          // full. The queue is deadline-then-priority ranked, so its BACK is
          // the worst-ranked entry: shed it if ours strictly outranks it,
          // otherwise reject ours.
          if (!queue.empty() &&
              request_outranks(request.deadline, request.priority,
                               queue.back().deadline,
                               queue.back().priority)) {
            displaced = std::move(queue.back());
            queue.pop_back();
          } else {
            std::ostringstream msg;
            msg << "ShardedServer: rejected — queue full (max_queue_depth="
                << config_.batching.max_queue_depth << ")";
            reject_reason = msg.str();
          }
        }
        if (reject_reason.empty()) {
          if (request.trace) {
            request.trace->end_span(request.span);
            request.span =
                request.trace->begin_span("queue", obs::Trace::kRoot);
            request.trace->annotate(request.span, "replica",
                                    std::to_string(target));
          }
          if (config_.max_inflight_per_tenant > 0) {
            ++tenant_inflight_[request.tenant];
          }
          insert_ranked(queue, std::move(request));
          update_queue_gauges();
          // Counted under the lock, so no dispatcher can finish the request
          // (and decrement) first.
          metrics_->inflight.add(1.0);
        }
      }
    }
  }
  if (displaced) {
    finish_requests(std::span(&*displaced, 1), Outcome::kDisplaced,
                    refusal("ShardedServer: shed — displaced by an "
                            "earlier-deadline request under overload"));
  }
  if (!reject_reason.empty()) {
    finish_requests(std::span(&request, 1), rejection,
                    refusal(reject_reason));
    return future;
  }
  // All dispatchers share one cv: the owner must wake to coalesce, and idle
  // replicas must wake to re-evaluate their steal horizon.
  queue_cv_.notify_all();
  return future;
}

Tensor ShardedServer::infer(const Tensor& sample) {
  return submit(sample).get();
}

void ShardedServer::shutdown() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  MutexLock join_lock(join_mutex_);
  if (maintenance_.joinable()) maintenance_.join();
  for (std::thread& dispatcher : dispatchers_) {
    if (dispatcher.joinable()) dispatcher.join();
  }
}

void ShardedServer::set_paused(bool paused) {
  {
    MutexLock lock(mutex_);
    paused_ = paused;
  }
  queue_cv_.notify_all();
}

FaultInjectionReport ShardedServer::inject_replica_faults(
    std::size_t r, const hw::FaultModelConfig& config) {
  Replica& replica = replica_ref(r);
  const std::string label = "replica" + std::to_string(r) + ":";
  FaultInjectionReport report;
  {
    SharedWriterLock plock(replica.program_mutex);
    report = inject_faults(replica.program, config, label);
  }
  replica_metrics_[r].fault_injections.inc();
  GS_LOG_DEBUG.field("replica", r)
          .field("faulty_tiles", report.faulty_tiles)
          .field("unskipped_tiles", report.unskipped_tiles)
      << "fault injection";
  return report;
}

std::size_t ShardedServer::reroute_queue(std::size_t r,
                                         std::vector<Request>& shed,
                                         bool count_retry) {
  std::size_t rerouted = 0;
  while (!queues_[r].empty()) {
    Request request = std::move(queues_[r].front());
    queues_[r].pop_front();
    if (count_retry) ++request.attempts;
    const std::size_t target = placement_target(r);
    if ((count_retry && request.attempts > config_.max_retries) ||
        target == kNone ||
        queues_[target].size() >= config_.batching.max_queue_depth) {
      shed.push_back(std::move(request));
    } else {
      if (request.trace) {
        request.trace->annotate(
            request.span, "reroute",
            std::to_string(r) + "->" + std::to_string(target));
      }
      insert_ranked(queues_[target], std::move(request));
      ++rerouted;
    }
  }
  return rerouted;
}

CanaryProbe ShardedServer::probe_replica(std::size_t r) {
  Replica& replica = replica_ref(r);
  CanaryProbe probe;
  {
    SharedReaderLock plock(replica.program_mutex);
    probe = replica.canary->probe(*replica.executor);
  }
  replica_metrics_[r].probes.inc();
  return probe;
}

void ShardedServer::reprogram_replica(std::size_t r) {
  Replica& replica = replica_ref(r);
  // A fresh chip from the pristine weights, compiled with the replica's
  // original options (same analog seed) — bitwise the program it started
  // with. Move-assignment mutates the program at the same address, so the
  // borrowed Executor stays valid; the exclusive lock keeps forwards out
  // while conductances change.
  SharedWriterLock plock(replica.program_mutex);
  replica.program = compile(network_, sample_shape_, replica.options);
}

void ShardedServer::mark_healthy(std::size_t r, bool activate) {
  ReplicaHealth prev = ReplicaHealth::kHealthy;
  {
    MutexLock lock(mutex_);
    prev = health_[r];
    trackers_[r]->reset();
    health_[r] = ReplicaHealth::kHealthy;
    if (activate) active_[r] = 1;
  }
  if (prev != ReplicaHealth::kHealthy) {
    record_health(r, ReplicaHealth::kHealthy);
  }
  queue_cv_.notify_all();
}

CanaryProbe ShardedServer::probe_now(std::size_t r) {
  const CanaryProbe probe = probe_replica(r);
  std::vector<Request> shed;
  std::size_t rerouted = 0;
  ReplicaHealth prev = ReplicaHealth::kHealthy;
  ReplicaHealth current = ReplicaHealth::kHealthy;
  {
    MutexLock lock(mutex_);
    prev = health_[r];
    const ReplicaHealth next = trackers_[r]->observe(probe.divergence);
    if (next == ReplicaHealth::kQuarantined) {
      if (placement_target(r) == kNone) {
        // Never quarantine the last active replica: a degraded answer beats
        // no answer. Clamp to Degraded; the tracker keeps voting Quarantined
        // and the clamp is re-evaluated at every probe, so the replica is
        // pulled as soon as a peer rejoins.
        health_[r] = ReplicaHealth::kDegraded;
      } else {
        health_[r] = ReplicaHealth::kQuarantined;
        // Re-route the quarantined replica's queued requests onto active
        // replicas (the mid-flight retry path). Requests out of retries or
        // finding every active queue full are shed.
        rerouted = reroute_queue(r, shed, /*count_retry=*/true);
        update_queue_gauges();
      }
    } else {
      health_[r] = next;
    }
    current = health_[r];
  }
  if (current != prev) {
    record_health(r, current);
    GS_LOG_DEBUG.field("replica", r)
            .field("state", to_string(current))
            .field("divergence", probe.divergence)
            .field("rerouted", rerouted)
            .field("shed", shed.size())
        << "replica health transition";
  }
  if (rerouted > 0) metrics_->retries.inc(rerouted);
  finish_requests(shed, Outcome::kShed,
                  refusal("ShardedServer: shed — could not re-route off "
                          "quarantined replica"));
  queue_cv_.notify_all();
  return probe;
}

bool ShardedServer::recalibrate_now(std::size_t r) {
  reprogram_replica(r);
  // Rejoin only on a bitwise-clean canary — the readmission gate.
  if (!probe_replica(r).bitwise_clean) return false;
  replica_metrics_[r].recalibrations.inc();
  mark_healthy(r, /*activate=*/false);
  GS_LOG_DEBUG.field("replica", r).field("state", "healthy")
      << "replica recalibrated and rejoined";
  return true;
}

ReplicaHealth ShardedServer::health(std::size_t r) const {
  GS_CHECK(r < capacity_);
  MutexLock lock(mutex_);
  return health_[r];
}

std::uint64_t ShardedServer::replica_program_checksum(std::size_t r) const {
  Replica& replica = replica_ref(r);
  SharedReaderLock plock(replica.program_mutex);
  return program_checksum(replica.program);
}

std::uint64_t ShardedServer::replica_reference_checksum(std::size_t r) const {
  return replica_ref(r).canary->reference_checksum();
}

double ShardedServer::evaluate_replica(std::size_t r,
                                       const data::Dataset& dataset,
                                       std::size_t max_samples,
                                       std::size_t batch_size) const {
  Replica& replica = replica_ref(r);
  SharedReaderLock plock(replica.program_mutex);
  return runtime::evaluate(*replica.executor, dataset, max_samples,
                           batch_size);
}

std::vector<ShardedServer::Request> ShardedServer::take_batch(
    std::size_t victim, std::vector<Request>& expired) {
  std::deque<Request>& queue = queues_[victim];
  const auto now = std::chrono::steady_clock::now();
  std::vector<Request> batch;
  batch.reserve(std::min(config_.batching.max_batch, queue.size()));
  // Expired requests are shed, not executed — they do not consume batch
  // slots, so one take can drain more than max_batch queue entries.
  while (!queue.empty() && batch.size() < config_.batching.max_batch) {
    Request request = std::move(queue.front());
    queue.pop_front();
    if (request.deadline < now) {
      expired.push_back(std::move(request));
    } else {
      batch.push_back(std::move(request));
    }
  }
  update_queue_gauges();
  return batch;
}

std::size_t ShardedServer::ripe_victim(
    std::size_t self, std::chrono::steady_clock::time_point now) const {
  std::size_t best = kNone;
  std::size_t best_depth = 0;
  for (std::size_t r = 0; r < capacity_; ++r) {
    if (r == self) continue;
    if (!active_[r]) continue;
    // A quarantined replica's queue is re-routed, not stolen (re-routing
    // counts retries and respects max_retries; stealing would bypass both).
    if (health_[r] == ReplicaHealth::kQuarantined) continue;
    const std::deque<Request>& queue = queues_[r];
    if (queue.empty()) continue;
    // With ranked insertion the front is the most urgent request, not the
    // oldest — the coalescing ripeness is owed to the OLDEST enqueue.
    const bool ripe = queue.size() >= config_.batching.max_batch ||
                      oldest_enqueued(queue) + config_.batching.max_delay <=
                          now;
    if (ripe && queue.size() > best_depth) {
      best = r;
      best_depth = queue.size();
    }
  }
  return best;
}

void ShardedServer::dispatch_loop(std::size_t self) {
  for (;;) {
    std::vector<Request> batch;
    std::vector<Request> expired;
    std::size_t victim = self;
    bool exit_after_shed = false;
    {
      MutexLock lock(mutex_);
      for (;;) {
        if (stopping_) {
          // Drain: own queue first, then — only when stealing is allowed —
          // whatever is left anywhere. With steal_work off every request
          // must run on the replica placement chose (the controlled-
          // experiment guarantee the flag exists for), and each queue's own
          // dispatcher drains it before returning, so nothing is orphaned.
          // An INACTIVE slot exits immediately: its queue was drained at
          // retirement (or never took placement), and an unbuilt or stale
          // retired program must not execute anyone else's work.
          if (!active_[self]) {
            exit_after_shed = true;
            break;
          }
          victim = queues_[self].empty() ? kNone : self;
          if (victim == kNone && config_.steal_work) {
            for (std::size_t r = 0; r < capacity_; ++r) {
              if (!queues_[r].empty()) {
                victim = r;
                break;
              }
            }
          }
          if (victim == kNone) {
            exit_after_shed = true;
            break;
          }
          batch = take_batch(victim, expired);
          break;
        }
        // Paused dispatchers let work accumulate (the deterministic bench's
        // burst builder); inactive replica slots idle until the autoscaler
        // admits them; quarantined replicas take no work at all — their
        // queue was re-routed at quarantine and placement avoids them.
        if (paused_ || !active_[self] ||
            health_[self] == ReplicaHealth::kQuarantined) {
          queue_cv_.wait(mutex_);
          continue;
        }
        if (!queues_[self].empty()) {
          // Own work: coalescing — launch when full, or when
          // the OLDEST request's coalescing deadline passes (with ranked
          // insertion the front is the most urgent, not the oldest). The
          // launch decision is made against the CURRENT queue; the wait
          // below is only a timed sleep, re-evaluated from scratch on every
          // wake (a thief may steal mid-sleep, which would leave a stale
          // horizon — launching on it would fire newer requests early).
          const auto launch =
              oldest_enqueued(queues_[self]) + config_.batching.max_delay;
          if (queues_[self].size() >= config_.batching.max_batch ||
              launch <= std::chrono::steady_clock::now()) {
            victim = self;
            batch = take_batch(self, expired);
            break;
          }
          while (!stopping_ && !paused_ &&
                 queues_[self].size() < config_.batching.max_batch) {
            if (queue_cv_.wait_until(mutex_, launch) ==
                std::cv_status::timeout) {
              break;
            }
          }
          continue;
        }
        // Idle: steal ripe work (a full batch, or past-deadline requests
        // whose owner is busy executing); otherwise sleep until new work
        // arrives or the earliest foreign deadline ripens.
        std::optional<std::chrono::steady_clock::time_point> horizon;
        if (config_.steal_work) {
          const std::size_t v =
              ripe_victim(self, std::chrono::steady_clock::now());
          if (v != kNone) {
            victim = v;
            batch = take_batch(v, expired);
            break;
          }
          for (std::size_t r = 0; r < capacity_; ++r) {
            if (r == self || queues_[r].empty()) continue;
            const auto t = oldest_enqueued(queues_[r]) +
                           config_.batching.max_delay;
            if (!horizon || t < *horizon) horizon = t;
          }
        }
        if (horizon) {
          queue_cv_.wait_until(mutex_, *horizon);
        } else {
          queue_cv_.wait(mutex_);
        }
      }
    }
    if (!expired.empty()) {
      finish_requests(expired, Outcome::kShed,
                      refusal("ShardedServer: shed — deadline expired before "
                              "execution"));
    }
    if (exit_after_shed) return;
    if (!batch.empty()) run_batch(self, victim, batch);
  }
}

void ShardedServer::maintenance_loop() {
  MutexLock lock(mutex_);
  auto next = std::chrono::steady_clock::now() + config_.probe_interval;
  while (!stopping_) {
    if (queue_cv_.wait_until(mutex_, next) != std::cv_status::timeout) {
      continue;  // submit traffic or shutdown — re-check and re-sleep
    }
    if (stopping_) break;
    const bool paused = paused_;
    lock.unlock();
    if (!paused) {
      for (std::size_t r = 0; r < capacity_; ++r) {
        // Retired/never-activated slots are not probed: an inactive chip
        // serves nothing, and probing an unbuilt slot would compile it.
        bool serving = false;
        {
          MutexLock probe_lock(mutex_);
          serving = active_[r] != 0 && replicas_[r] != nullptr;
        }
        if (!serving) continue;
        probe_now(r);
        if (health(r) == ReplicaHealth::kQuarantined) recalibrate_now(r);
      }
      if (config_.autoscale.enabled) autoscale_tick_now();
    }
    lock.lock();
    next = std::chrono::steady_clock::now() + config_.probe_interval;
  }
}

void ShardedServer::run_batch(std::size_t self, std::size_t victim,
                              std::vector<Request>& requests) {
  Replica& replica = replica_ref(self);
  const std::size_t count = requests.size();
  // Every replica program's input shape is sample_shape_ (the compile-time
  // contract), so batch assembly needs no program lock.
  const std::size_t sample_numel = shape_numel(sample_shape_);

  Shape batch_shape;
  batch_shape.reserve(sample_shape_.size() + 1);
  batch_shape.push_back(count);
  batch_shape.insert(batch_shape.end(), sample_shape_.begin(),
                     sample_shape_.end());
  Tensor batch(batch_shape);
  for (std::size_t i = 0; i < count; ++i) {
    std::copy(requests[i].sample.data(),
              requests[i].sample.data() + sample_numel,
              batch.data() + i * sample_numel);
  }

  // Close queue spans, open batch/execute spans on every sampled request.
  // Execution-detail spans (per step/stage) go to the FIRST sampled trace
  // only — the batch runs once, so the detail belongs to one tree. A stolen
  // batch is annotated with the executing replica on every sampled request.
  ForwardTrace forward_trace;
  std::uint64_t trace_log_id = 0;
  for (Request& request : requests) {
    if (!request.trace) continue;
    request.trace->end_span(request.span);
    request.span = request.trace->begin_span("batch", obs::Trace::kRoot);
    request.trace->annotate(request.span, "batch_size", std::to_string(count));
    request.trace->annotate(request.span, "replica", std::to_string(self));
    if (victim != self) {
      request.trace->annotate(request.span, "stolen_from",
                              std::to_string(victim));
    }
    request.execute_span = request.trace->begin_span("execute", request.span);
    if (forward_trace.trace == nullptr) {
      forward_trace.trace = request.trace.get();
      forward_trace.parent = request.execute_span;
      trace_log_id = request.id;
    }
  }
  // Correlate any log lines the forward emits with the sampled request.
  LogTraceScope log_scope(trace_log_id);

  const auto started = std::chrono::steady_clock::now();
  Tensor logits;
  obs::ExecProfile profile;
  try {
    // Shared with other forwards/probes; excluded only by fault injection
    // and recalibration mutating this replica's program.
    SharedReaderLock plock(replica.program_mutex);
    // Re-priced per batch: fault injection and recalibration change the
    // program's skip flags mid-flight.
    profile = replica.executor->profile();
    logits = replica.executor->forward(batch, forward_trace);
  } catch (...) {
    finish_requests(requests, Outcome::kFailed, std::current_exception());
    return;
  }
  const auto finished = std::chrono::steady_clock::now();
  const double batch_us =
      std::chrono::duration<double, std::micro>(finished - started).count();
  // EWMA of batch cost feeds the admission predictor (α = 1/8). CAS loop:
  // concurrent dispatcher completions must not lose each other's samples.
  ewma_record(ewma_batch_cost_us_, batch_us);
  // Per-request deadline outcomes over EXECUTED requests — the
  // SLO-attainment inputs (no-deadline requests count in neither).
  std::size_t hits = 0;
  std::size_t misses = 0;
  {
    MutexLock lock(stats_mutex_);
    ReplicaCounters& counters = counters_[self];
    counters.completed += count;
    ++counters.batches;
    if (victim != self) ++counters.stolen_batches;
    counters.max_batch_seen = std::max(counters.max_batch_seen, count);
    for (const Request& request : requests) {
      const double latency_ms =
          std::chrono::duration<double, std::milli>(finished -
                                                    request.enqueued)
              .count();
      counters.latencies.record(latency_ms);
      metrics_->latency_ms.observe(latency_ms);
      if (request.deadline != kNoDeadline) {
        (finished <= request.deadline ? hits : misses) += 1;
      }
    }
  }
  metrics_->batches.inc();
  if (victim != self) metrics_->batches_stolen.inc();
  metrics_->batch_size.observe(static_cast<double>(count));
  metrics_->record_forward(profile, count);
  if (hits > 0) metrics_->deadline_hits.inc(hits);
  if (misses > 0) metrics_->deadline_misses.inc(misses);
  finish_requests(requests, Outcome::kCompleted, nullptr, &logits);
}

ShardStats ShardedServer::stats() const {
  ShardStats stats;
  std::vector<ReplicaHealth> health;
  std::vector<char> active;
  {
    MutexLock lock(mutex_);
    health = health_;
    active = active_;
  }
  const Counts counted = counts();
  stats.aggregate.rejected = counted.rejected;
  stats.aggregate.admission_rejected = counted.admission_rejected;
  stats.aggregate.shed = counted.shed;
  stats.aggregate.failed = counted.failed;
  stats.aggregate.deadline_hits = counted.deadline_hits;
  stats.aggregate.deadline_misses = counted.deadline_misses;
  stats.retried = counted.retried;
  stats.tenant_rejected = counted.tenant_rejected;
  stats.drained = counted.drained;
  std::vector<double> all_latencies;
  {
    MutexLock lock(stats_mutex_);
    stats.replicas.reserve(capacity_);
    for (std::size_t r = 0; r < capacity_; ++r) {
      const ReplicaCounters& counters = counters_[r];
      ReplicaStats rs;
      rs.completed = counters.completed;
      rs.health = health[r];
      rs.active = active[r] != 0;
      rs.fault_injections = counted.fault_injections[r];
      rs.recalibrations = counted.recalibrations[r];

      stats.aggregate.completed += rs.completed;
      stats.aggregate.batches += counters.batches;
      stats.aggregate.max_batch_seen =
          std::max(stats.aggregate.max_batch_seen, counters.max_batch_seen);
      stats.stolen_batches += counters.stolen_batches;
      stats.recalibrations += rs.recalibrations;
      stats.aggregate.latency_samples_total += counters.latencies.total();
      all_latencies.insert(all_latencies.end(),
                           counters.latencies.samples().begin(),
                           counters.latencies.samples().end());
      stats.replicas.push_back(rs);
    }
  }
  for (const char a : active) {
    if (a != 0) ++stats.active_replicas;
  }
  {
    MutexLock lock(autoscale_mutex_);
    for (const AutoscaleDecision& decision : decision_log_) {
      if (decision.action == AutoscaleAction::kUp) ++stats.autoscale_ups;
      if (decision.action == AutoscaleAction::kDown) ++stats.autoscale_downs;
    }
  }
  stats.aggregate.mean_batch =
      stats.aggregate.batches == 0
          ? 0.0
          : static_cast<double>(stats.aggregate.completed) /
                static_cast<double>(stats.aggregate.batches);
  if (!all_latencies.empty()) {
    std::sort(all_latencies.begin(), all_latencies.end());
    stats.aggregate.latency_p50_ms = latency_percentile(all_latencies, 0.50);
    stats.aggregate.latency_p95_ms = latency_percentile(all_latencies, 0.95);
    stats.aggregate.latency_p99_ms = latency_percentile(all_latencies, 0.99);
    stats.aggregate.latency_p999_ms = latency_percentile(all_latencies, 0.999);
    stats.aggregate.latency_max_ms = all_latencies.back();
    stats.aggregate.latency_p99_saturated =
        percentile_saturated(all_latencies.size(), 0.99);
    stats.aggregate.latency_p999_saturated =
        percentile_saturated(all_latencies.size(), 0.999);
  }
  return stats;
}

bool ShardedServer::activate_replica(std::size_t r) {
  build_replica(r);
  // Scale-up admission runs the same bitwise-clean canary gate quarantined
  // replicas rejoin through: a slot that decayed while retired (e.g. faults
  // injected into it) must not serve divergent logits.
  if (!probe_replica(r).bitwise_clean) {
    reprogram_replica(r);
    if (!probe_replica(r).bitwise_clean) return false;
  }
  mark_healthy(r, /*activate=*/true);
  GS_LOG_DEBUG.field("replica", r) << "autoscale: replica activated";
  return true;
}

void ShardedServer::retire_replica(std::size_t r) {
  std::vector<Request> shed;
  std::size_t drained = 0;
  {
    MutexLock lock(mutex_);
    active_[r] = 0;
    // Voluntary drain: re-placement does NOT consume retry attempts —
    // retirement is a scaling decision, not a fault.
    drained = reroute_queue(r, shed, /*count_retry=*/false);
    update_queue_gauges();
  }
  if (drained > 0) fleet_metrics_->drained.inc(drained);
  finish_requests(shed, Outcome::kShed,
                  refusal("ShardedServer: shed — could not re-route off a "
                          "replica retired by scale-down"));
  GS_LOG_DEBUG.field("replica", r).field("drained", drained)
      << "autoscale: replica retired";
}

AutoscaleDecision ShardedServer::autoscale_tick_now() {
  GS_CHECK_MSG(config_.autoscale.enabled,
               "autoscale_tick_now: autoscaling is disabled");
  const AutoscaleConfig& knobs = config_.autoscale;
  MutexLock tick_lock(autoscale_mutex_);

  AutoscaleDecision decision;
  decision.tick = ++tick_;

  // --- Sample the controller inputs at this tick. -------------------------
  // Depth is summed from the queues, not read from the queue-depth gauge: a
  // gauge shared through an injected registry is last-writer across engines.
  bool quarantined = false;
  std::size_t active = 0;
  std::size_t depth = 0;
  {
    MutexLock lock(mutex_);
    for (std::size_t r = 0; r < capacity_; ++r) {
      if (!active_[r]) continue;
      ++active;
      depth += queues_[r].size();
      if (health_[r] == ReplicaHealth::kQuarantined) quarantined = true;
    }
  }
  const Counts counted = counts();
  decision.queue_depth = depth;
  decision.active_replicas = active;
  decision.deadline_hits_delta = counted.deadline_hits - last_hits_;
  decision.deadline_misses_delta = counted.deadline_misses - last_misses_;
  decision.shed_delta = counted.shed - last_shed_;
  decision.rejected_delta = counted.rejected - last_rejected_;
  decision.quarantine_hold = quarantined;
  last_hits_ = counted.deadline_hits;
  last_misses_ = counted.deadline_misses;
  last_shed_ = counted.shed;
  last_rejected_ = counted.rejected;

  // --- Decide (a pure function of the sampled inputs + streak state). -----
  if (quarantined) {
    // The fault loop owns the fleet first: no scaling while any active
    // replica is quarantined, and streaks restart from scratch after.
    up_streak_ = 0;
    down_streak_ = 0;
  } else {
    const double per_replica =
        active == 0 ? 0.0
                    : static_cast<double>(depth) / static_cast<double>(active);
    const bool up_signal = per_replica >= knobs.scale_up_depth;
    const bool down_signal = !up_signal &&
                             per_replica <= knobs.scale_down_depth &&
                             decision.shed_delta == 0 &&
                             decision.rejected_delta == 0;
    up_streak_ = up_signal ? up_streak_ + 1 : 0;
    down_streak_ = down_signal ? down_streak_ + 1 : 0;

    if (up_signal && up_streak_ >= knobs.up_ticks && active < capacity_) {
      // Scale up into the lowest inactive slot (deterministic target
      // choice).
      std::size_t target = kNone;
      {
        MutexLock lock(mutex_);
        for (std::size_t r = 0; r < capacity_; ++r) {
          if (!active_[r]) {
            target = r;
            break;
          }
        }
      }
      if (target != kNone && activate_replica(target)) {
        decision.action = AutoscaleAction::kUp;
        decision.target = target;
        up_streak_ = 0;
      }
    } else if (down_signal && down_streak_ >= knobs.down_ticks &&
               active > knobs.min_replicas) {
      // Scale down the emptiest active replica; ties retire the HIGHEST
      // index, keeping the active set packed toward low slots.
      std::size_t target = kNone;
      std::size_t best_depth = std::numeric_limits<std::size_t>::max();
      {
        MutexLock lock(mutex_);
        for (std::size_t r = 0; r < capacity_; ++r) {
          if (!active_[r]) continue;
          if (queues_[r].size() <= best_depth) {
            best_depth = queues_[r].size();
            target = r;
          }
        }
      }
      if (target != kNone) {
        retire_replica(target);
        decision.action = AutoscaleAction::kDown;
        decision.target = target;
        down_streak_ = 0;
      }
    }
  }

  decision_log_.push_back(decision);
  std::size_t now_active = active;
  if (decision.action == AutoscaleAction::kUp) {
    fleet_metrics_->scale_ups.inc();
    ++now_active;
  }
  if (decision.action == AutoscaleAction::kDown) {
    fleet_metrics_->scale_downs.inc();
    --now_active;
  }
  fleet_metrics_->active_replicas.set(static_cast<double>(now_active));
  GS_LOG_DEBUG.field("tick", decision.tick)
          .field("depth", decision.queue_depth)
          .field("active", decision.active_replicas)
          .field("action", static_cast<int>(decision.action))
          .field("target",
                 decision.target == AutoscaleDecision::kNoTarget
                     ? -1
                     : static_cast<long long>(decision.target))
      << "autoscale tick";
  queue_cv_.notify_all();
  return decision;
}

std::vector<AutoscaleDecision> ShardedServer::autoscale_log() const {
  MutexLock lock(autoscale_mutex_);
  return decision_log_;
}

std::uint64_t ShardedServer::autoscale_log_checksum() const {
  MutexLock lock(autoscale_mutex_);
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const AutoscaleDecision& decision : decision_log_) {
    hash = fnv1a_fold(hash, decision.tick);
    hash = fnv1a_fold(hash, decision.queue_depth);
    hash = fnv1a_fold(hash, decision.active_replicas);
    hash = fnv1a_fold(hash, decision.deadline_hits_delta);
    hash = fnv1a_fold(hash, decision.deadline_misses_delta);
    hash = fnv1a_fold(hash, decision.shed_delta);
    hash = fnv1a_fold(hash, decision.rejected_delta);
    hash = fnv1a_fold(hash, decision.quarantine_hold ? 1 : 0);
    hash = fnv1a_fold(hash, static_cast<std::uint64_t>(decision.action));
    hash = fnv1a_fold(hash, decision.target);
  }
  return hash;
}

std::size_t ShardedServer::active_replica_count() const {
  MutexLock lock(mutex_);
  std::size_t count = 0;
  for (const char a : active_) {
    if (a != 0) ++count;
  }
  return count;
}

double evaluate(ShardedServer& server, const data::Dataset& dataset,
                std::size_t max_samples, std::size_t batch_size) {
  return nn::evaluate_forward(
      [&server](const Tensor& images) {
        const std::size_t batch = images.dim(0);
        const Shape sample_shape(images.shape().begin() + 1,
                                 images.shape().end());
        const std::size_t sample_numel = shape_numel(sample_shape);
        std::vector<std::future<Tensor>> futures;
        futures.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i) {
          Tensor sample(sample_shape);
          std::copy(images.data() + i * sample_numel,
                    images.data() + (i + 1) * sample_numel, sample.data());
          futures.push_back(server.submit(std::move(sample)));
        }
        Tensor logits;
        for (std::size_t i = 0; i < batch; ++i) {
          const Tensor row = futures[i].get();
          if (i == 0) logits = Tensor(Shape{batch, row.numel()});
          std::copy(row.data(), row.data() + row.numel(),
                    logits.data() + i * row.numel());
        }
        return logits;
      },
      dataset, max_samples, batch_size);
}

}  // namespace gs::runtime
