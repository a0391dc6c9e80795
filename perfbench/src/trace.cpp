#include "trace.hpp"

#include <fstream>
#include <thread>

namespace perfbench {

namespace {
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_epoch)
      .count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      g_epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(t)));
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

bool Tracer::write_csv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "name,start_s,end_s,items,ids\n";
  out.precision(9);
  for (const auto& s : spans_) {
    out << s.name << ',' << s.start_s << ',' << s.end_s << ',' << s.items
        << ',';
    for (std::size_t i = 0; i < s.ids.size(); ++i) {
      out << (i ? ";" : "") << s.ids[i];
    }
    out << '\n';
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::int64_t items)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.items = items;
  span_.start_s = now_s();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_s = now_s();
  tracer_->record(std::move(span_));
}

TracingExtractor::TracingExtractor(
    std::unique_ptr<duo::models::FeatureExtractor> inner, Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {}

duo::Tensor TracingExtractor::extract_model_input(const duo::Tensor& input) {
  ScopedSpan span(&tracer_, "models.extract");
  return inner_->extract_model_input(input);
}

std::vector<duo::Tensor> TracingExtractor::extract_batch(
    std::span<const duo::video::Video> videos) {
  Span span;
  span.name = "models.extract_batch";
  span.items = static_cast<std::int64_t>(videos.size());
  span.ids.reserve(videos.size());
  for (const auto& v : videos) span.ids.push_back(v.id());
  span.start_s = now_s();
  auto features = inner_->extract_batch(videos);
  span.end_s = now_s();
  tracer_.record(std::move(span));
  return features;
}

duo::Tensor TracingExtractor::backward_to_input(
    const duo::Tensor& grad_feature) {
  return inner_->backward_to_input(grad_feature);
}

std::vector<duo::nn::Parameter*> TracingExtractor::parameters() {
  return inner_->parameters();
}

void TracingExtractor::set_training(bool training) {
  inner_->set_training(training);
}

std::unique_ptr<duo::models::FeatureExtractor> TracingExtractor::clone()
    const {
  auto inner = inner_->clone();
  if (!inner) return nullptr;
  return std::make_unique<TracingExtractor>(std::move(inner), tracer_);
}

std::int64_t TracingExtractor::feature_dim() const {
  return inner_->feature_dim();
}

std::string TracingExtractor::name() const { return inner_->name(); }

}  // namespace perfbench
