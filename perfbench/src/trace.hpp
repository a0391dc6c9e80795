#pragma once

// Benchmark-side tracing. Spans are recorded around calls into the
// library's public functions from the benchmark's own files; nothing in
// src/ knows about them. Spans stay in memory and are written out once, when
// the run ends.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "models/feature_extractor.hpp"

namespace perfbench {

// Seconds on the steady clock since process start.
double now_s();
// Sleeps until now_s() reaches `t`.
void sleep_until_s(double t);

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t items = 0;         // batch size, or 1 for single calls
  std::vector<std::int64_t> ids;  // request (video) ids the span served

  double ms() const { return (end_s - start_s) * 1e3; }
};

// Thread-safe in-memory span sink.
class Tracer {
 public:
  void record(Span span);
  std::vector<Span> spans(const std::string& name) const;
  void clear();
  // One CSV line per span: name,start_s,end_s,items,ids (ids ';'-joined).
  bool write_csv(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Records [construction, destruction) as one span when `tracer` is set.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::int64_t items = 1);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
};

// Decorator around the victim extractor, used only in the traced run. It
// forwards every call — extract_batch and clone included — to the wrapped
// extractor, so whatever extract_batch the victim implements is what gets
// measured. Spans: "models.extract" (one item) and "models.extract_batch"
// (batch size plus the video ids it carried).
class TracingExtractor final : public duo::models::FeatureExtractor {
 public:
  TracingExtractor(std::unique_ptr<duo::models::FeatureExtractor> inner,
                   Tracer& tracer);

  duo::Tensor extract_model_input(const duo::Tensor& input) override;
  std::vector<duo::Tensor> extract_batch(
      std::span<const duo::video::Video> videos) override;
  duo::Tensor backward_to_input(const duo::Tensor& grad_feature) override;
  std::vector<duo::nn::Parameter*> parameters() override;
  void set_training(bool training) override;
  std::unique_ptr<duo::models::FeatureExtractor> clone() const override;
  std::int64_t feature_dim() const override;
  std::string name() const override;

 private:
  std::unique_ptr<duo::models::FeatureExtractor> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
