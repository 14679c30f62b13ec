#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>

#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "data/batcher.hpp"
#include "nn/trainer.hpp"

namespace gs::bench {

std::size_t scale() {
  static const std::size_t value = [] {
    if (const char* env = std::getenv("GS_BENCH_SCALE")) {
      const long parsed = std::atol(env);
      if (parsed >= 1) return static_cast<std::size_t>(parsed);
    }
    return std::size_t{1};
  }();
  return value;
}

std::size_t iters(std::size_t base) { return base * scale(); }

data::SyntheticMnist mnist_train() { return data::SyntheticMnist(1001, 500); }
data::SyntheticMnist mnist_test() { return data::SyntheticMnist(2002, 200); }
data::SyntheticCifar cifar_train() { return data::SyntheticCifar(3003, 500); }
data::SyntheticCifar cifar_test() { return data::SyntheticCifar(4004, 200); }

nn::SgdConfig lenet_sgd() { return {0.02f, 0.9f, 1e-4f}; }
// 0.015 trains slightly faster but occasionally diverges mid-clip on the
// synthetic task; 0.01 is stable across every sweep.
nn::SgdConfig convnet_sgd() { return {0.01f, 0.9f, 1e-4f}; }

TrainedModel trained_lenet(std::size_t iterations, std::uint64_t seed) {
  Rng rng(seed);
  TrainedModel model{core::build_lenet(rng), 0.0};
  const auto train_set = mnist_train();
  const auto test_set = mnist_test();
  data::Batcher batcher(train_set, 25, Rng(seed + 7));
  nn::SgdOptimizer opt(lenet_sgd());
  nn::train(model.net, opt, batcher, iterations);
  model.accuracy = nn::evaluate(model.net, test_set);
  return model;
}

TrainedModel trained_convnet(std::size_t iterations, std::uint64_t seed) {
  Rng rng(seed);
  TrainedModel model{core::build_convnet(rng), 0.0};
  const auto train_set = cifar_train();
  const auto test_set = cifar_test();
  data::Batcher batcher(train_set, 16, Rng(seed + 7));
  nn::SgdOptimizer opt(convnet_sgd());
  nn::train(model.net, opt, batcher, iterations);
  model.accuracy = nn::evaluate(model.net, test_set);
  return model;
}

void section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

void note(const std::string& text) { std::cout << text << '\n'; }

void paper_vs(const std::string& label, double measured, double paper_value) {
  std::cout << pad(label, 24) << " measured=" << percent(measured)
            << "  paper=" << percent(paper_value) << '\n';
}

BenchRecord& BenchRecord::label(std::string key, std::string value) {
  labels.emplace_back(std::move(key), std::move(value));
  return *this;
}

BenchRecord& BenchRecord::metric(std::string key, double value) {
  metrics.emplace_back(std::move(key), value);
  return *this;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void write_bench_json(const std::string& path, const std::string& bench_name,
                      const std::vector<BenchRecord>& records) {
  std::ofstream out(path);
  GS_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << "{\n  \"bench\": \"" << json_escape(bench_name) << "\",\n"
      << "  \"env\": {\"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ", \"gs_num_threads\": " << ThreadPool::global().size() << "},\n"
      << "  \"records\": [\n";
  for (std::size_t r = 0; r < records.size(); ++r) {
    const BenchRecord& rec = records[r];
    out << "    {\"name\": \"" << json_escape(rec.name) << '"';
    for (const auto& [key, value] : rec.labels) {
      out << ", \"" << json_escape(key) << "\": \"" << json_escape(value)
          << '"';
    }
    out << std::setprecision(6);
    for (const auto& [key, value] : rec.metrics) {
      out << ", \"" << json_escape(key) << "\": ";
      if (std::isfinite(value)) {
        out << value;
      } else {
        out << "null";
      }
    }
    out << '}' << (r + 1 < records.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  GS_CHECK_MSG(out.good(), "failed writing " << path);
}

std::string weights_checksum(nn::Network& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const nn::ParamRef& param : net.params()) {
    const float* data = param.value->data();
    for (std::size_t i = 0; i < param.value->numel(); ++i) {
      std::uint32_t bits;
      std::memcpy(&bits, &data[i], sizeof bits);
      for (int b = 0; b < 4; ++b) {
        h ^= (bits >> (8 * b)) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

Quartiles time_quartiles_seconds(const std::function<void()>& fn, int reps) {
  fn();  // warm-up: page-in, pool spin-up, cache priming
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return {samples[n / 4], samples[n / 2], samples[3 * n / 4]};
}

double time_median_seconds(const std::function<void()>& fn, int reps) {
  return time_quartiles_seconds(fn, reps).median;
}

}  // namespace gs::bench
