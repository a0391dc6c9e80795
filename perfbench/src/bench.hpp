#pragma once

// Shared types of the benchmark driver: the shared world every workload runs
// against, the report a workload fills in, and small statistics helpers.

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "retrieval/system.hpp"
#include "trace.hpp"
#include "video/synthetic.hpp"

namespace perfbench {

// Quick geometry of the repository's benches: 8 frames of 16x16 RGB.
inline const duo::video::VideoGeometry kGeometry{8, 16, 16, 3};
constexpr std::int64_t kFeatureDim = 16;
constexpr std::size_t kTopM = 10;

// Synthetic hmdb51_like videos (gallery of 1000, query pool of 80), an
// untrained seeded MiniI3D victim, and a flat index over the gallery.
struct World {
  duo::video::Dataset data;  // train = gallery, test = query pool
  std::unique_ptr<duo::retrieval::RetrievalSystem> system;
};

// With `tracer` set, the victim is wrapped in a TracingExtractor.
World build_world(std::uint64_t seed, Tracer* tracer);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a workload reports. `e2e` are the end-to-end metrics (untraced run),
// `layer` the per-layer ones (traced run), `lines` the human-readable
// breakdown under the per-workload metric names.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> lines;
  std::vector<std::string> gate_failures;

  void gate(bool ok, const std::string& what);
  void line(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  void add_layer(const std::string& name, double value,
                 const std::string& unit);
};

// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty vector.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
// Highest of p50/p90/p99/p999 with at least ten samples beyond it.
double tail_quantile_for(std::size_t samples);

// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// Host-speed factor: how much slower than the reference host a fixed,
// bench-owned kernel runs right now, on as many threads as the compute pool
// has (1.0 = reference host, 2.0 = twice as slow). The kernel shares no
// code with src/, so no change under test can move it (README.md, "Host
// normalisation").
double host_factor();
inline double window_factor(double before, double after) {
  return std::sqrt(before * after);
}

// Host factors sampled between the timed pieces of one run. A run's raw
// times are divided by (its rates multiplied by) the median sample.
class HostSamples {
 public:
  void take() { samples_.push_back(host_factor()); }
  double median_factor() const { return median(samples_); }

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
