#pragma once

// Deterministic random number generation for reproducible experiments.
//
// Every component in the library that needs randomness takes an explicit
// `Rng&` (or a seed), never a global generator, so each test and bench run
// is bit-for-bit reproducible and independent streams can be derived for
// parallel work (see `Rng::fork`).

#include <cstdint>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace duo {

// SplitMix64: tiny, fast, high-quality 64-bit PRNG. Used both directly and
// to seed derived streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}

  // Next raw 64-bit value.
  std::uint64_t next_u64() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  float uniform_f(float lo, float hi) noexcept {
    return static_cast<float>(uniform(lo, hi));
  }

  // Uniform integer in [0, n). Requires n > 0 (raises via DUO_CHECK — an
  // empty range has no valid draw, and `% 0` is undefined behaviour).
  std::uint64_t uniform_index(std::uint64_t n) {
    DUO_CHECK_MSG(n > 0, "uniform_index requires a non-empty range");
    // Lemire's unbiased bounded generation would be overkill here; simple
    // modulo bias is < 2^-40 for the sizes we use, but use rejection anyway
    // since it is cheap.
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  // Requires lo <= hi_inclusive (checked via uniform_index's guard).
  int uniform_int(int lo, int hi_inclusive) {
    return lo + static_cast<int>(uniform_index(
                    static_cast<std::uint64_t>(hi_inclusive - lo + 1)));
  }

  // Standard normal via Box-Muller (no cached spare: keeps state simple).
  double normal() noexcept {
    double u1 = uniform();
    if (u1 < std::numeric_limits<double>::min()) {
      u1 = std::numeric_limits<double>::min();
    }
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  float normal_f(float mean, float stddev) noexcept {
    return mean + stddev * static_cast<float>(normal());
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

  // Derive an independent stream. Forked streams do not collide with the
  // parent in practice because the fork consumes parent state.
  Rng fork() noexcept { return Rng(next_u64() ^ 0xA5A5A5A5DEADBEEFULL); }

  // Raw generator state, for checkpointing: Rng(state()) resumes the stream
  // exactly where this generator left off.
  std::uint64_t state() const noexcept { return state_; }
  // Equal states draw equal streams.
  friend bool operator==(const Rng&, const Rng&) = default;

  // Fisher-Yates shuffle of an indexable container.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    if (c.size() < 2) return;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      const std::size_t j = uniform_index(i + 1);
      using std::swap;
      swap(c[i], c[j]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace duo
