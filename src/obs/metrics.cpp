#include "obs/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/check.hpp"

namespace gs::obs {

std::string_view to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

std::size_t metric_shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      stride_(bounds_.size() + 1),
      cells_(kMetricShards * stride_) {}

void Histogram::observe(double v) {
  // Lower-bound over the ascending bounds: first bucket whose upper bound
  // admits v; everything above the last bound lands in the +Inf cell.
  std::size_t bucket = bounds_.size();
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (v <= bounds_[i]) {
      bucket = i;
      break;
    }
  }
  const std::size_t shard = metric_shard_index();
  cells_[shard * stride_ + bucket].fetch_add(1, std::memory_order_relaxed);
  sums_[shard].count.fetch_add(1, std::memory_order_relaxed);
  double cur = sums_[shard].sum.load(std::memory_order_relaxed);
  while (!sums_[shard].sum.compare_exchange_weak(
      cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(stride_, 0);
  for (std::size_t shard = 0; shard < kMetricShards; ++shard) {
    for (std::size_t b = 0; b < stride_; ++b) {
      counts[b] += cells_[shard * stride_ + b].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const ShardSum& shard : sums_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (const ShardSum& shard : sums_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.size() < 4 || name.compare(0, 3, "gs_") != 0) return false;
  for (const char c : name) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

bool valid_label_key(const std::string& key) {
  if (key.empty()) return false;
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return !(key[0] >= '0' && key[0] <= '9');
}

/// Canonical child key: "k1=v1,k2=v2" in map (sorted-key) order.
std::string labels_key(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

void validate_labels(const std::string& name, const Labels& labels) {
  for (const auto& [k, v] : labels) {
    GS_CHECK_MSG(valid_label_key(k),
                 "metric '" << name << "': invalid label key '" << k << "'");
    (void)v;
  }
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// JSON string escaping (control characters, quote, backslash).
std::string escape_json(const std::string& value) {
  std::ostringstream out;
  for (const char c : value) {
    switch (c) {
      case '\\':
        out << "\\\\";
        break;
      case '"':
        out << "\\\"";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec;
        } else {
          out << c;
        }
    }
  }
  return out.str();
}

std::string format_double(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

std::string prometheus_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += '"';
  }
  out += '}';
  return out;
}

/// Histogram bucket line labels: the child labels plus le="<bound>".
std::string prometheus_bucket_labels(const Labels& labels,
                                     const std::string& le) {
  std::string out = "{";
  for (const auto& [k, v] : labels) {
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += "\",";
  }
  out += "le=\"";
  out += le;
  out += "\"}";
  return out;
}

}  // namespace

Registry::Family& Registry::family_for(const std::string& name,
                                       MetricType type,
                                       const std::string& help) {
  GS_CHECK_MSG(valid_metric_name(name),
               "metric name '" << name
                               << "' must match gs_[a-z0-9_]+ (see "
                                  "docs/OBSERVABILITY.md)");
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.type = type;
    family.help = help;
  } else {
    GS_CHECK_MSG(family.type == type,
                 "metric '" << name << "' already registered as "
                            << to_string(family.type) << ", requested "
                            << to_string(type));
  }
  return family;
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  validate_labels(name, labels);
  MutexLock lock(mutex_);
  Family& family = family_for(name, MetricType::kCounter, help);
  auto [it, inserted] = family.children.try_emplace(labels_key(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.counter.reset(new Counter());
  }
  return *it->second.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const Labels& labels) {
  validate_labels(name, labels);
  MutexLock lock(mutex_);
  Family& family = family_for(name, MetricType::kGauge, help);
  auto [it, inserted] = family.children.try_emplace(labels_key(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.gauge.reset(new Gauge());
  }
  return *it->second.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               const std::vector<double>& bounds,
                               const Labels& labels) {
  validate_labels(name, labels);
  GS_CHECK_MSG(!bounds.empty(), "histogram '" << name << "': empty bounds");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    GS_CHECK_MSG(bounds[i - 1] < bounds[i],
                 "histogram '" << name
                               << "': bounds must be strictly ascending");
  }
  MutexLock lock(mutex_);
  Family& family = family_for(name, MetricType::kHistogram, help);
  if (family.children.empty() && family.bounds.empty()) {
    family.bounds = bounds;
  } else {
    GS_CHECK_MSG(family.bounds == bounds,
                 "histogram '" << name
                               << "' re-registered with different bounds");
  }
  auto [it, inserted] = family.children.try_emplace(labels_key(labels));
  if (inserted) {
    it->second.labels = labels;
    it->second.histogram.reset(new Histogram(bounds));
  }
  return *it->second.histogram;
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> samples;
  MutexLock lock(mutex_);
  for (const auto& [name, family] : families_) {
    for (const auto& [key, child] : family.children) {
      (void)key;
      MetricSample sample;
      sample.name = name;
      sample.type = family.type;
      sample.help = family.help;
      sample.labels = child.labels;
      switch (family.type) {
        case MetricType::kCounter:
          sample.value = static_cast<double>(child.counter->value());
          break;
        case MetricType::kGauge:
          sample.value = child.gauge->value();
          break;
        case MetricType::kHistogram: {
          sample.bounds = child.histogram->bounds();
          const std::vector<std::uint64_t> counts =
              child.histogram->bucket_counts();
          sample.cumulative.resize(counts.size());
          std::uint64_t running = 0;
          for (std::size_t i = 0; i < counts.size(); ++i) {
            running += counts[i];
            sample.cumulative[i] = running;
          }
          sample.count = child.histogram->count();
          sample.sum = child.histogram->sum();
          break;
        }
      }
      samples.push_back(std::move(sample));
    }
  }
  return samples;
}

std::string Registry::prometheus_text() const {
  const std::vector<MetricSample> samples = snapshot();
  std::ostringstream out;
  std::string last_family;
  for (const MetricSample& s : samples) {
    if (s.name != last_family) {
      out << "# HELP " << s.name << ' ' << s.help << '\n';
      out << "# TYPE " << s.name << ' ' << to_string(s.type) << '\n';
      last_family = s.name;
    }
    if (s.type == MetricType::kHistogram) {
      for (std::size_t i = 0; i < s.cumulative.size(); ++i) {
        const std::string le = i < s.bounds.size()
                                   ? format_double(s.bounds[i])
                                   : std::string("+Inf");
        out << s.name << "_bucket" << prometheus_bucket_labels(s.labels, le)
            << ' ' << s.cumulative[i] << '\n';
      }
      out << s.name << "_sum" << prometheus_labels(s.labels) << ' '
          << format_double(s.sum) << '\n';
      out << s.name << "_count" << prometheus_labels(s.labels) << ' '
          << s.count << '\n';
    } else {
      out << s.name << prometheus_labels(s.labels) << ' '
          << format_double(s.value) << '\n';
    }
  }
  return out.str();
}

std::string Registry::json() const {
  const std::vector<MetricSample> samples = snapshot();
  std::ostringstream out;
  out << "{\"metrics\": [";
  bool first_sample = true;
  for (const MetricSample& s : samples) {
    if (!first_sample) out << ", ";
    first_sample = false;
    out << "{\"name\": \"" << escape_json(s.name) << "\", \"type\": \""
        << to_string(s.type) << "\", \"labels\": {";
    bool first_label = true;
    for (const auto& [k, v] : s.labels) {
      if (!first_label) out << ", ";
      first_label = false;
      out << '"' << escape_json(k) << "\": \"" << escape_json(v) << '"';
    }
    out << '}';
    if (s.type == MetricType::kHistogram) {
      out << ", \"buckets\": [";
      for (std::size_t i = 0; i < s.cumulative.size(); ++i) {
        if (i > 0) out << ", ";
        const std::string le = i < s.bounds.size()
                                   ? format_double(s.bounds[i])
                                   : std::string("+Inf");
        out << "{\"le\": \"" << le << "\", \"count\": " << s.cumulative[i]
            << '}';
      }
      out << "], \"count\": " << s.count
          << ", \"sum\": " << format_double(s.sum);
    } else {
      out << ", \"value\": " << format_double(s.value);
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

std::vector<std::string> Registry::family_names() const {
  std::vector<std::string> names;
  MutexLock lock(mutex_);
  names.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    (void)family;
    names.push_back(name);
  }
  return names;
}

}  // namespace gs::obs
