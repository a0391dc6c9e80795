#pragma once

// Deterministic fault injection for the victim service. A FaultInjector
// draws one fault decision per request from a seeded Rng, so a given seed
// always yields the same fault schedule over the same arrival order — every
// fault-tolerance test is bit-for-bit reproducible. Faults model the ways a
// deployed black-box API misbehaves under load (the operating conditions
// SimBA-style query attacks meet in practice): transient errors, fixed-delay
// slowdowns, and dropped responses, plus an optional fatal fault at a fixed
// request index for kill-and-resume tests.
//
// RetrievalServer consults a FaultInjector (ServerConfig::fault_injector)
// as a lane drains each request from its queue, in arrival order.

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.hpp"

namespace duo::serve {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kTransientError,  // answer replaced by a retryable ServeError
  kDelay,           // answer delayed by FaultConfig::delay_ms
  kDrop,            // answer never delivered (promise abandoned)
  kFatalError,      // unrecoverable ServeError (kill-and-resume tests)
};

struct FaultConfig {
  // Per-request probabilities; must sum to <= 1. The remainder is kNone.
  double error_prob = 0.0;
  double delay_prob = 0.0;
  double drop_prob = 0.0;
  // Fixed slowdown applied to kDelay requests.
  double delay_ms = 5.0;
  // Request index (0-based, in arrival order) that fails fatally; -1 = never.
  std::int64_t fatal_at = -1;
  // Every request with index < error_until fails transiently, before any
  // probability draw — models an outage that heals ("down for the first N
  // requests"), the deterministic shape circuit-breaker tests need. The
  // probabilistic schedule still consumes one uniform per such request, so
  // enabling error_until shifts nothing for later indices.
  std::int64_t error_until = 0;
  // Mirror image of error_until: every request with index >= error_from
  // fails transiently — models a victim that goes down mid-attack and stays
  // down (the shape that trips a client circuit breaker after real
  // progress). -1 disables. Also consumes one uniform per request, so the
  // probabilistic schedule below the cutover is unshifted.
  std::int64_t error_from = -1;
  // Seed of the fault schedule. Same seed + same arrival order = same faults.
  std::uint64_t seed = 1;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  // Fault decision for the next request, consuming the schedule. Thread-safe;
  // decisions are deterministic in consumption order.
  FaultKind next();

  // Requests decided so far / faults (anything but kNone) injected so far.
  std::int64_t decisions() const;
  std::int64_t injected() const;

  const FaultConfig& config() const noexcept { return config_; }

  // Pure preview of the schedule a fresh injector with `config` would
  // produce for its first `n` requests (tests assert determinism with this).
  static std::vector<FaultKind> schedule(const FaultConfig& config,
                                         std::size_t n);

 private:
  FaultKind draw();  // requires mutex_ held

  FaultConfig config_;
  mutable std::mutex mutex_;
  Rng rng_;
  std::int64_t decisions_ = 0;
  std::int64_t injected_ = 0;
};

}  // namespace duo::serve
