// Bitwise contract of nn::gemm_accumulate against the scalar chain it
// promises for every C element: acc = c; for kk in increasing order:
// acc += a·b, one multiply-add per kk. The grid puts m and n on both sides of
// every register-tile edge (kGemmMr × kGemmNr) and of the 16×128 parallel
// blocks, so full tiles, zero-padded edge tiles and multi-block shapes all
// run, at one and at eight pool threads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/gemm.hpp"

namespace duo::nn {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

struct Problem {
  std::int64_t m = 0, k = 0, n = 0;
  std::vector<float> a, b, c;
};

// Uniform A and B, a nonzero C seed, and optionally a NaN and an infinity
// planted in each of A and B.
Problem make_problem(std::int64_t m, std::int64_t k, std::int64_t n,
                     bool specials, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.m = m;
  p.k = k;
  p.n = n;
  p.a.resize(static_cast<std::size_t>(m * k));
  p.b.resize(static_cast<std::size_t>(k * n));
  p.c.resize(static_cast<std::size_t>(m * n));
  for (auto& x : p.a) x = rng.uniform_f(-1.0f, 1.0f);
  for (auto& x : p.b) x = rng.uniform_f(-1.0f, 1.0f);
  for (auto& x : p.c) x = rng.uniform_f(0.5f, 4.0f);
  if (specials) {
    p.a[rng.uniform_index(p.a.size())] = kNaN;
    p.a[rng.uniform_index(p.a.size())] = kInf;
    p.b[rng.uniform_index(p.b.size())] = kNaN;
    p.b[rng.uniform_index(p.b.size())] = -kInf;
  }
  return p;
}

// The promised chain; `reverse_k` runs it backwards to prove the comparison
// notices a reordered chain.
std::vector<float> scalar_chain(const Problem& p, bool reverse_k = false) {
  std::vector<float> c = p.c;
  for (std::int64_t i = 0; i < p.m; ++i) {
    for (std::int64_t j = 0; j < p.n; ++j) {
      float acc = c[i * p.n + j];
      for (std::int64_t t = 0; t < p.k; ++t) {
        const std::int64_t kk = reverse_k ? p.k - 1 - t : t;
        acc += p.a[i * p.k + kk] * p.b[kk * p.n + j];
      }
      c[i * p.n + j] = acc;
    }
  }
  return c;
}

// Flat index of the first element whose bits differ, or -1. Any NaN matches
// any NaN: which payload survives two NaN operands is outside the contract
// (see gemm.hpp).
std::int64_t first_mismatch(const std::vector<float>& x,
                            const std::vector<float>& y) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i]) && std::isnan(y[i])) continue;
    std::uint32_t bx = 0, by = 0;
    std::memcpy(&bx, &x[i], sizeof bx);
    std::memcpy(&by, &y[i], sizeof by);
    if (bx != by) return static_cast<std::int64_t>(i);
  }
  return -1;
}

// c (shaped like p.c) += p.a·p.b on `pool`.
void gemm_on(ThreadPool& pool, const Problem& p, float* c) {
  struct Restore {
    ~Restore() { set_compute_pool(nullptr); }
  } restore;
  set_compute_pool(&pool);
  gemm_accumulate(p.m, p.k, p.n, p.a.data(), p.b.data(), c);
}

std::vector<float> run_gemm(const Problem& p, ThreadPool& pool) {
  std::vector<float> c = p.c;
  gemm_on(pool, p, c.data());
  return c;
}

std::vector<std::int64_t> m_grid() {
  std::vector<std::int64_t> ms;
  for (std::int64_t m = 1; m <= kGemmMr + 1; ++m) ms.push_back(m);
  ms.push_back(2 * kGemmMr + 3);  // crosses the 16-row parallel block
  return ms;
}

const std::vector<std::int64_t> kNGrid = {
    1, 15, 16, 17, kGemmNr - 1, kGemmNr, kGemmNr + 1, 129, 512};
const std::vector<std::int64_t> kKGrid = {1, 2, 81, 540};

TEST(Gemm, MatchesScalarChainBitwiseOnEveryTileEdge) {
  ThreadPool serial(1), parallel(8);
  std::uint64_t seed = 1;
  for (const std::int64_t m : m_grid()) {
    for (const std::int64_t n : kNGrid) {
      for (const std::int64_t k : kKGrid) {
        const bool specials = seed % 2 == 0;
        const Problem p = make_problem(m, k, n, specials, seed++);
        const std::vector<float> want = scalar_chain(p);
        const std::vector<float> one = run_gemm(p, serial);
        const std::vector<float> eight = run_gemm(p, parallel);
        const std::int64_t at = first_mismatch(want, one);
        ASSERT_EQ(at, -1) << "m=" << m << " k=" << k << " n=" << n
                          << " specials=" << specials << ": element " << at
                          << " is " << one[static_cast<std::size_t>(at)]
                          << ", chain gives "
                          << want[static_cast<std::size_t>(at)];
        // Same code, disjoint tiles: thread count changes not even a NaN
        // payload.
        ASSERT_EQ(std::memcmp(one.data(), eight.data(),
                              one.size() * sizeof(float)),
                  0)
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(Gemm, ComparisonRejectsAReorderedChain) {
  ThreadPool pool(1);
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{2 * kGemmMr + 3, 81, 129},
                {kGemmMr, 540, kGemmNr + 1},
                {kGemmMr + 1, 81, 512}};
  for (const auto& s : shapes) {
    const Problem p = make_problem(s.m, s.k, s.n, false, 99);
    const std::vector<float> got = run_gemm(p, pool);
    EXPECT_EQ(first_mismatch(scalar_chain(p), got), -1);
    EXPECT_NE(first_mismatch(scalar_chain(p, /*reverse_k=*/true), got), -1)
        << "m=" << s.m << " k=" << s.k << " n=" << s.n
        << ": a backwards chain went unnoticed";
  }
}

TEST(Gemm, EdgeTilesWriteOnlyInsideC) {
  ThreadPool pool(4);
  constexpr std::int64_t kGuard = 64;
  constexpr float kCanary = -12345.0f;
  const std::int64_t ms[] = {1, kGemmMr - 1, 2 * kGemmMr + 3};
  const std::int64_t ns[] = {1, kGemmNr + 1, 129};
  for (const std::int64_t m : ms) {
    for (const std::int64_t n : ns) {
      const Problem p = make_problem(m, 81, n, false, 7);
      std::vector<float> guarded(static_cast<std::size_t>(m * n + 2 * kGuard),
                                 kCanary);
      std::copy(p.c.begin(), p.c.end(), guarded.begin() + kGuard);
      gemm_on(pool, p, guarded.data() + kGuard);
      for (std::int64_t i = 0; i < kGuard; ++i) {
        ASSERT_EQ(guarded[static_cast<std::size_t>(i)], kCanary)
            << "m=" << m << " n=" << n << ": write before C";
        ASSERT_EQ(guarded[guarded.size() - 1 - static_cast<std::size_t>(i)],
                  kCanary)
            << "m=" << m << " n=" << n << ": write past C";
      }
      const std::vector<float> inside(guarded.begin() + kGuard,
                                      guarded.end() - kGuard);
      EXPECT_EQ(first_mismatch(scalar_chain(p), inside), -1);
    }
  }
}

}  // namespace
}  // namespace duo::nn
