#include "serve/fault_injection.hpp"

#include "common/check.hpp"

namespace duo::serve {

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), rng_(config.seed) {
  DUO_CHECK_MSG(config_.error_prob >= 0.0 && config_.delay_prob >= 0.0 &&
                    config_.drop_prob >= 0.0,
                "FaultInjector: negative fault probability");
  DUO_CHECK_MSG(
      config_.error_prob + config_.delay_prob + config_.drop_prob <= 1.0,
      "FaultInjector: fault probabilities sum past 1");
  DUO_CHECK_MSG(config_.delay_ms >= 0.0, "FaultInjector: negative delay");
  DUO_CHECK_MSG(config_.error_until >= 0,
                "FaultInjector: negative error_until");
  DUO_CHECK_MSG(config_.error_from >= -1,
                "FaultInjector: error_from must be -1 or a request index");
}

FaultKind FaultInjector::draw() {
  // One uniform draw per request keeps the schedule a pure function of the
  // seed and the request index, whatever mix of fault kinds is enabled.
  if (decisions_ == config_.fatal_at) {
    ++decisions_;
    ++injected_;
    return FaultKind::kFatalError;
  }
  const std::int64_t index = decisions_++;
  const double u = rng_.uniform();
  if (index < config_.error_until ||
      (config_.error_from >= 0 && index >= config_.error_from)) {
    ++injected_;
    return FaultKind::kTransientError;
  }
  FaultKind kind = FaultKind::kNone;
  if (u < config_.error_prob) {
    kind = FaultKind::kTransientError;
  } else if (u < config_.error_prob + config_.delay_prob) {
    kind = FaultKind::kDelay;
  } else if (u < config_.error_prob + config_.delay_prob + config_.drop_prob) {
    kind = FaultKind::kDrop;
  }
  if (kind != FaultKind::kNone) ++injected_;
  return kind;
}

FaultKind FaultInjector::next() {
  std::lock_guard<std::mutex> lock(mutex_);
  return draw();
}

std::int64_t FaultInjector::decisions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decisions_;
}

std::int64_t FaultInjector::injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

std::vector<FaultKind> FaultInjector::schedule(const FaultConfig& config,
                                               std::size_t n) {
  FaultInjector preview(config);
  std::vector<FaultKind> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(preview.next());
  return out;
}

}  // namespace duo::serve
