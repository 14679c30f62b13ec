#include "runtime/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace gs::runtime {

double latency_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = std::min(
      sorted.size() - 1, static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
  return sorted[idx];
}

bool percentile_saturated(std::size_t n, double q) {
  // ⌈q·n⌉ == n exactly when n·(1−q) < 1: the nearest-rank index is the last
  // element, so the "percentile" is just the sample maximum.
  return static_cast<double>(n) * (1.0 - q) < 1.0;
}

bool request_outranks(std::chrono::steady_clock::time_point deadline_a,
                      int priority_a,
                      std::chrono::steady_clock::time_point deadline_b,
                      int priority_b) {
  if (deadline_a != deadline_b) return deadline_a < deadline_b;
  return priority_a > priority_b;
}

void ewma_record(std::atomic<double>& accumulator, double sample,
                 double alpha) {
  double prev = accumulator.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev == 0.0 ? sample : prev + alpha * (sample - prev);
  } while (!accumulator.compare_exchange_weak(prev, next,
                                              std::memory_order_relaxed));
}

void AdmissionConfig::validate() const {
  GS_CHECK(assumed_batch_cost.count() >= 0);
}

void BatchingConfig::validate() const {
  GS_CHECK(max_batch >= 1);
  GS_CHECK(max_queue_depth >= 1);
  GS_CHECK(max_delay.count() >= 0);
  admission.validate();
}

}  // namespace gs::runtime
