// Metrics registry — labelled counters, gauges, and fixed-bucket histograms
// for the serving stack, exported as a JSON snapshot and as Prometheus text
// exposition.
//
// Design notes:
//  * Hot paths are sharded per thread: a Counter is kShards cache-line-padded
//    atomics and inc() touches only the calling thread's shard, so concurrent
//    dispatchers never bounce one cache line. value() folds the shards in
//    fixed shard order.
//  * Handles are stable: counter()/gauge()/histogram() return references that
//    stay valid for the Registry's lifetime, so callers register once and
//    increment lock-free forever after.
//  * Identity: the same (name, labels) pair always yields the same child;
//    re-registering a name with a different metric type (or a histogram with
//    different bounds) throws. Metric names must match gs_[a-z0-9_]+ — the
//    gslint `metric-name` rule enforces the same pattern statically, and the
//    catalogue in docs/OBSERVABILITY.md must list every registered name.
//  * Export is deterministic: families and children are held in ordered maps,
//    so snapshot()/prometheus_text()/json() emit a stable order regardless of
//    registration or scheduling order.
//
// Thread-safety: registration takes the registry mutex; Counter::inc,
// Gauge::set/add and Histogram::observe are lock-free and safe from any
// number of threads, concurrently with snapshot/export.
// Determinism: counter values and histogram bucket/count tallies are exact
// sums of the recorded events (order-independent by commutativity of integer
// addition), so equal event multisets produce bitwise-equal exports at any
// thread count. Histogram `sum` is a floating-point accumulation whose order
// depends on scheduling — it is NOT bitwise reproducible and is excluded
// from every determinism gate.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"

namespace gs::obs {

/// Label set of one metric child, canonically ordered by key.
using Labels = std::map<std::string, std::string>;

enum class MetricType { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricType type);

/// Shards per hot-path metric. A power of two so the per-thread slot hash is
/// a mask; 16 covers every pool size this repo runs while keeping value()
/// folds trivially cheap.
inline constexpr std::size_t kMetricShards = 16;

/// Stable per-thread shard slot in [0, kMetricShards): threads are assigned
/// round-robin on first use, so a thread always hits the same shard of every
/// metric (no rehash per call).
std::size_t metric_shard_index();

/// Monotonically increasing event count. inc() is lock-free and wait-free on
/// the calling thread's shard; value() sums the shards in fixed order.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    shards_[metric_shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class Registry;
  Counter() = default;

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kMetricShards> shards_;
};

/// Last-written instantaneous value (queue depth, in-flight requests, health
/// state). set() is a plain atomic store; add() is a CAS loop.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }

  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class Registry;
  Gauge() = default;

  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending upper bounds; values above
/// the last bound land in the implicit +Inf bucket. Bucket tallies and the
/// total count are exact integer sums (deterministic); `sum` is a sharded
/// floating-point accumulation and is not bitwise reproducible.
class Histogram {
 public:
  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }

  /// Per-bucket (non-cumulative) counts, bounds_.size() + 1 entries (the
  /// last is the +Inf bucket), folded over shards in fixed order.
  std::vector<std::uint64_t> bucket_counts() const;

  std::uint64_t count() const;
  double sum() const;

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);

  std::vector<double> bounds_;
  std::size_t stride_ = 0;  ///< buckets per shard (bounds + 1)
  /// kMetricShards × stride_ bucket cells, shard-major.
  std::vector<std::atomic<std::uint64_t>> cells_;
  struct alignas(64) ShardSum {
    std::atomic<double> sum{0.0};
    std::atomic<std::uint64_t> count{0};
  };
  std::array<ShardSum, kMetricShards> sums_;
};

/// One exported metric child — the flattened view snapshot() returns.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::kCounter;
  std::string help;
  Labels labels;
  double value = 0.0;  ///< counter / gauge value (histograms: 0)
  // Histogram-only fields:
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;  ///< cumulative counts incl. +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// The metric family table. Each serving engine owns one unless it is handed
/// a shared registry to export through.
///
/// Thread-safety: all methods are safe from any number of threads; returned
/// metric references remain valid (and lock-free) for the registry lifetime.
/// Determinism: export order is the ordered-map order of (name, label-key);
/// see the header notes for which values are bitwise-stable.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or finds) a counter child. Throws gs::Error on a name that
  /// does not match gs_[a-z0-9_]+ or on a metric-type conflict.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});

  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});

  /// `bounds` must be non-empty and strictly ascending; re-registration must
  /// pass identical bounds.
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::vector<double>& bounds,
                       const Labels& labels = {});

  /// Flattened, deterministically-ordered view of every registered child.
  std::vector<MetricSample> snapshot() const;

  /// Prometheus text exposition format, version 0.0.4 (# HELP / # TYPE,
  /// histogram _bucket/_sum/_count series with cumulative le buckets).
  std::string prometheus_text() const;

  /// JSON object {"metrics": [...]} mirroring snapshot().
  std::string json() const;

  /// Registered family names, in order (the docs-catalogue contract).
  std::vector<std::string> family_names() const;

 private:
  struct Child {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricType type = MetricType::kCounter;
    std::string help;
    std::vector<double> bounds;  ///< histogram families only
    std::map<std::string, Child> children;  ///< keyed by canonical labels
  };

  Family& family_for(const std::string& name, MetricType type,
                     const std::string& help) GS_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, Family> families_ GS_GUARDED_BY(mutex_);
};

}  // namespace gs::obs
