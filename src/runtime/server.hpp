// Shared serving vocabulary: the coalescing / admission / per-request knobs,
// the deadline-then-priority queue order, and the ServerStats counters.
// ShardedServer (runtime/shard.hpp) is the serving engine; a one-replica
// ShardedServer is the plain batching server.
//
// Overload behaviour the knobs describe:
//  * queues are kept in deadline-then-priority order (earlier deadline
//    first; equal deadlines, higher priority first; ties FIFO), so batch
//    formation serves the most urgent work first. Requests without
//    deadlines queue behind dated ones in priority order.
//  * queues are bounded (`max_queue_depth`); a full queue rejects new work
//    at submit — EXCEPT when the new request outranks the worst-ranked
//    queued request (request_outranks: latest deadline, then lowest
//    priority), in which case the laggard is displaced (shed) in its
//    favour. Overload therefore sheds the work most likely to miss anyway,
//    not the most recent arrival.
//  * requests may carry a deadline; with admission control enabled the
//    engine predicts the queueing delay from the target queue's depth and
//    rejects at submit any request it expects to miss.
//  * at batch formation, requests whose deadline has already passed are
//    shed instead of executed — a late result is worthless, the batch slot
//    is not.
// A sample holding NaN or ±Inf is rejected at submit: it would otherwise
// reach the logits uncounted. Every rejected or shed future carries a
// std::runtime_error whose message names the reason; no future is ever left
// dangling (see ServerStats).
//
// Thread-safety: the free helpers are pure or lock-free (ewma_record);
// LatencyWindow is not thread-safe and is guarded by its owner.
// Determinism: ordering and percentile helpers are pure functions of their
// inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <vector>

#include "obs/trace.hpp"

namespace gs::runtime {

/// Absolute time representing "no deadline" (never expires).
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// Latency samples each replica retains for its percentile window.
inline constexpr std::size_t kLatencyWindow = 16384;

/// Deadline-based admission control knobs. Admission predicts the queueing
/// delay of a new request from the target queue's depth,
///     predicted_wait = ceil((depth + 1) / max_batch) · batch_cost,
/// and rejects at submit when now + predicted_wait exceeds the request's
/// deadline. `batch_cost` is `assumed_batch_cost` when set (fixed cost —
/// the deterministic mode the fault bench replays), otherwise an EWMA of
/// measured batch execution times.
struct AdmissionConfig {
  /// Off by default: requests without deadlines are never admission-tested,
  /// and the server behaves exactly as before this knob existed.
  bool enabled = false;
  /// Fixed per-batch execution cost for the wait prediction; 0 = use the
  /// EWMA of measured batch times instead.
  std::chrono::microseconds assumed_batch_cost{0};

  void validate() const;
};

/// Coalescing knobs.
struct BatchingConfig {
  std::size_t max_batch = 32;  ///< launch as soon as this many are queued
  std::chrono::microseconds max_delay{1000};  ///< oldest-request deadline
  /// Queue bound: beyond this depth, submissions are rejected (or displace
  /// a later-deadline queued request — see the overload notes above).
  std::size_t max_queue_depth = 4096;
  AdmissionConfig admission;  ///< deadline admission control (default off)
  /// Export registry and tracing knobs (obs/trace.hpp). Counting is always
  /// on; tracing defaults off.
  obs::ObservabilityConfig observability;

  void validate() const;
};

/// Per-request serving options. Queue order and displacement shedding are
/// deadline-then-priority ordered (see request_outranks); the defaults make a
/// request behave exactly like a plain submit(sample) call.
struct RequestOptions {
  /// Time allowed from submit to completion; 0 = none (never expires, never
  /// admission-tested).
  std::chrono::microseconds deadline{0};
  /// Tenant owning the request; the per-tenant inflight cap
  /// (ShardConfig::max_inflight_per_tenant) is enforced against it.
  std::uint64_t tenant = 0;
  /// Higher wins among equal deadlines — both for queue position and for
  /// choosing displacement victims under overload.
  int priority = 0;
};

/// Strict deadline-then-priority order: a outranks b when a's deadline is
/// earlier, or deadlines are equal and a's priority is higher. Requests
/// without deadlines (time_point::max()) rank behind every dated request and
/// among themselves by priority only. NOT a total order over requests —
/// equal (deadline, priority) pairs tie, and ties keep FIFO order.
bool request_outranks(std::chrono::steady_clock::time_point deadline_a,
                      int priority_a,
                      std::chrono::steady_clock::time_point deadline_b,
                      int priority_b);

/// Deadline-then-priority ordered insertion into a request deque (FIFO among
/// equal ranks): walks back from the tail past every queued request the new
/// one outranks. With default options on every request this degenerates to
/// push_back — plain FIFO. Requires Request members `deadline`/`priority`.
template <typename RequestType>
void insert_ranked(std::deque<RequestType>& queue, RequestType&& request) {
  auto it = queue.end();
  while (it != queue.begin() &&
         request_outranks(request.deadline, request.priority,
                          std::prev(it)->deadline, std::prev(it)->priority)) {
    --it;
  }
  queue.insert(it, std::move(request));
}

/// Earliest enqueue time in `queue` (the coalescing-launch horizon). With
/// ranked insertion the FRONT is the most urgent request, not necessarily
/// the oldest — the max_delay guarantee is owed to the oldest.
template <typename RequestType>
std::chrono::steady_clock::time_point oldest_enqueued(
    const std::deque<RequestType>& queue) {
  auto oldest = std::chrono::steady_clock::time_point::max();
  for (const RequestType& request : queue) {
    if (request.enqueued < oldest) oldest = request.enqueued;
  }
  return oldest;
}

/// Nearest-rank percentile — the ⌈q·n⌉-th smallest element of `sorted`
/// (ascending); 0 when empty.
double latency_percentile(const std::vector<double>& sorted, double q);

/// True when the nearest-rank percentile q over n samples degenerates to the
/// sample maximum — i.e. n·(1−q) < 1, so ⌈q·n⌉ == n. p99 needs ≥ 100
/// samples, p99.9 needs ≥ 1000; below that the reported tail is just the max
/// (ServerStats marks these — see docs/OBSERVABILITY.md "Small-sample
/// percentiles").
bool percentile_saturated(std::size_t n, double q);

/// Atomically folds `sample` into an EWMA accumulator with a
/// compare-exchange loop (α = `alpha`; the first sample seeds the
/// accumulator directly). Lock-free and lossless under concurrent callers —
/// a plain load→blend→store drops concurrent updates.
void ewma_record(std::atomic<double>& accumulator, double sample,
                 double alpha = 0.125);

/// Bounded ring of the most recent latency samples. Not thread-safe; callers
/// guard it with their stats mutex.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t capacity) : capacity_(capacity) {}

  void record(double ms) {
    ++total_;
    if (samples_.size() < capacity_) {
      samples_.push_back(ms);
    } else {
      samples_[next_] = ms;
    }
    next_ = (next_ + 1) % capacity_;
  }

  /// Retained samples, unordered (ring layout).
  const std::vector<double>& samples() const { return samples_; }

  /// Samples EVER recorded — the percentile-provenance counter: when it
  /// exceeds samples().size(), the window has discarded (the percentiles
  /// cover only the most recent `capacity` samples).
  std::uint64_t total() const { return total_; }

 private:
  std::size_t capacity_;
  std::vector<double> samples_;
  std::size_t next_ = 0;  ///< ring write position
  std::uint64_t total_ = 0;
};

/// Serving counters; latency aggregates cover the most recent window of
/// completed requests (kLatencyWindow samples per replica), so a
/// long-running server keeps bounded memory and stats() cost.
/// Every submitted request lands in exactly one of completed / rejected /
/// shed / failed — futures never dangle.
struct ServerStats {
  std::size_t completed = 0;
  /// Refused at submit: full queue, shut down, tenant cap, predicted miss or
  /// non-finite sample.
  std::size_t rejected = 0;
  /// Subset of `rejected` refused by admission control (predicted deadline
  /// miss) rather than by queue depth or shutdown.
  std::size_t admission_rejected = 0;
  /// Accepted but dropped before execution: deadline expired in the queue,
  /// or displaced by an earlier-deadline request under overload.
  std::size_t shed = 0;
  std::size_t failed = 0;    ///< accepted but the executor threw
  std::size_t batches = 0;   ///< successfully executed batches
  double mean_batch = 0.0;        ///< completed / batches
  std::size_t max_batch_seen = 0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Latency samples EVER recorded (percentile provenance): when this
  /// exceeds the window capacity, the percentiles above cover only the most
  /// recent kLatencyWindow samples — older ones were silently discarded
  /// before this counter existed.
  std::uint64_t latency_samples_total = 0;
  /// Small-sample markers (percentile_saturated over the retained window):
  /// true when the corresponding tail percentile degenerated to the window
  /// maximum — fewer than 100 retained samples for p99, fewer than 1000 for
  /// p99.9. SLO reporting must not gate on a saturated percentile; use the
  /// per-request deadline counters below instead.
  bool latency_p99_saturated = false;
  bool latency_p999_saturated = false;
  /// Per-request deadline outcomes over EXECUTED requests: a completed
  /// request whose result arrived by its deadline is a hit, otherwise a
  /// miss. Requests without deadlines count in neither; rejected/shed
  /// requests are tracked by their own counters. These are the inputs SLO
  /// attainment is computed from (not the windowed tail percentiles).
  std::size_t deadline_hits = 0;
  std::size_t deadline_misses = 0;
};

}  // namespace gs::runtime
