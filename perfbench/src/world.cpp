#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace perfbench {

World build_world(std::uint64_t seed, Tracer* tracer) {
  auto spec = duo::video::DatasetSpec::hmdb51_like(seed);
  spec.train_per_class = 100;
  spec.test_per_class = 8;
  spec.geometry = kGeometry;

  World w;
  w.data = duo::video::SyntheticGenerator(spec).generate();

  // Untrained: serving cost depends on geometry and gallery size only.
  duo::Rng rng(seed ^ 0x13D);
  auto victim = duo::models::make_extractor(duo::models::ModelKind::kI3D,
                                            kGeometry, kFeatureDim, rng);
  if (tracer != nullptr) {
    victim = std::make_unique<TracingExtractor>(std::move(victim), *tracer);
  }
  w.system =
      std::make_unique<duo::retrieval::RetrievalSystem>(std::move(victim));
  w.system->add_all(w.data.train);
  return w;
}

void Report::gate(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  gate_failures.push_back(what);
}

void Report::line(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-34s %14.6g %-6s %s", name.c_str(), value,
                unit.c_str(), note.c_str());
  lines.emplace_back(buf);
}

void Report::add_layer(const std::string& name, double value,
                       const std::string& unit) {
  layer.push_back({name, value, unit});
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double tail_quantile_for(std::size_t samples) {
  for (const double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

// Reference-host time of one calibration round (all threads done), frozen
// from the fastest rounds seen on a 4-core AVX-512 Xeon.
constexpr double kReferenceRoundMs = 2.0;
// Per-thread buffer: larger than a core's L2, so a round also feels the
// shared cache and memory bandwidth other tenants contend for. Of the
// kernels tried (ALU-only, this, fork-join wake-ups), this one tracked the
// attack workload's throughput best.
constexpr std::size_t kBufferFloats = std::size_t{1} << 19;  // 2 MiB
constexpr int kPasses = 4;

float stream(std::vector<float>& buf) {
  for (int p = 0; p < kPasses; ++p) {
    for (float& x : buf) x = x * 0.9999f + 1e-6f;
  }
  return buf[buf.size() / 2];
}

}  // namespace

double host_factor() {
  const std::size_t threads =
      std::max<std::size_t>(1, duo::compute_pool().size());
  static std::vector<std::vector<float>> buffers(
      threads, std::vector<float>(kBufferFloats, 1.0f));
  std::vector<float> sink(threads);
  std::vector<double> rounds;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([&sink, t] { sink[t] = stream(buffers[t]); });
    }
    for (auto& th : pool) th.join();
    rounds.push_back((now_s() - t0) * 1e3);
  }
  volatile float keep = sink[0];
  (void)keep;
  return median(rounds) / kReferenceRoundMs;
}

}  // namespace perfbench
