#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace duo::nn {

namespace {

// The register tile is kMr rows × kVecs vectors of C (16 of AVX-512's 32
// registers, 8 of AVX2's 16). The microkernel is written with GCC/Clang
// vector extensions so the accumulators are explicit register values, not a
// stack array the optimizer may or may not promote.
constexpr std::int64_t kMr = kGemmMr;
constexpr std::int64_t kNr = kGemmNr;
constexpr std::int64_t kVecs = 2;
constexpr std::int64_t kLanes = kNr / kVecs;
using Vec = float __attribute__((vector_size(kLanes * sizeof(float))));

// Parallel tile shape: each parallel_for index owns a disjoint kRowBlock ×
// kColBlock block of C and walks it in kMr × kNr register tiles.
constexpr std::int64_t kRowBlock = 16;
constexpr std::int64_t kColBlock = 128;
static_assert(kRowBlock % kMr == 0 && kColBlock % kNr == 0);

// k rows of B per zero-padded column-edge panel (kKc × kNr floats, 16 KB on
// AVX-512), so padding never needs a buffer that grows with k.
constexpr std::int64_t kKc = 128;

Vec load(const float* p) {
  Vec v = {};
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

// C[kMr × kNr] (row stride ldc) += A·B over kc steps, where a[r] points at
// row r's first A value and b at the first B row (row stride ldb). Each C
// element is loaded once, gets one multiply-add per step in increasing step
// order, and is stored once: the scalar chain, kNr lanes at a time.
void micro_kernel(std::int64_t kc, const float* const* a, const float* b,
                  std::int64_t ldb, float* c, std::int64_t ldc) {
  Vec acc[kMr][kVecs] = {};
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < kMr; ++r) {
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < kVecs; ++v) {
      acc[r][v] = load(c + r * ldc + v * kLanes);
    }
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    Vec bv[kVecs] = {};
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < kVecs; ++v) bv[v] = load(b + v * kLanes);
    b += ldb;
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = a[r][kk];
#pragma GCC unroll 2
      for (std::int64_t v = 0; v < kVecs; ++v) acc[r][v] += av * bv[v];
    }
  }
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < kMr; ++r) {
#pragma GCC unroll 2
    for (std::int64_t v = 0; v < kVecs; ++v) {
      store(c + r * ldc + v * kLanes, acc[r][v]);
    }
  }
}

// C block (ib × jb at c, row stride ldc) += A·B over B's columns starting at
// b (row stride n). arows holds kRowBlock row pointers into A, and the block
// must have room for whole register tiles past ib and jb.
void block_kernel(std::int64_t k, std::int64_t n, const float* const* arows,
                  std::int64_t ib, std::int64_t jb, const float* b, float* c,
                  std::int64_t ldc) {
  for (std::int64_t jj = 0; jj < jb; jj += kNr) {
    const std::int64_t nr = std::min(kNr, jb - jj);
    if (nr == kNr) {
      for (std::int64_t ii = 0; ii < ib; ii += kMr) {
        micro_kernel(k, arows + ii, b + jj, n, c + ii * ldc + jj, ldc);
      }
      continue;
    }
    // Column edge: feed B through a zero-padded panel, kKc rows at a time.
    // The accumulators round-trip through C between panels (exact), so every
    // chain still runs unbroken in k order.
    alignas(64) float panel[kKc][kNr] = {};
    for (std::int64_t k0 = 0; k0 < k; k0 += kKc) {
      const std::int64_t kc = std::min(kKc, k - k0);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        std::memcpy(panel[kk], b + (k0 + kk) * n + jj,
                    static_cast<std::size_t>(nr) * sizeof(float));
      }
      for (std::int64_t ii = 0; ii < ib; ii += kMr) {
        const float* ar[kMr] = {};
        for (std::int64_t r = 0; r < kMr; ++r) ar[r] = arows[ii + r] + k0;
        micro_kernel(kc, ar, &panel[0][0], kNr, c + ii * ldc + jj, ldc);
      }
    }
  }
}

}  // namespace

void gemm_accumulate(std::int64_t m, std::int64_t k, std::int64_t n,
                     const float* a, const float* b, float* c) {
  DUO_CHECK_MSG(m >= 0 && k >= 0 && n >= 0, "gemm: negative dimension");
  if (m == 0 || n == 0 || k == 0) return;

  const std::int64_t row_tiles = (m + kRowBlock - 1) / kRowBlock;
  const std::int64_t col_tiles = (n + kColBlock - 1) / kColBlock;

  compute_pool().parallel_for(
      static_cast<std::size_t>(row_tiles * col_tiles), [&](std::size_t t) {
    const std::int64_t i0 =
        (static_cast<std::int64_t>(t) / col_tiles) * kRowBlock;
    const std::int64_t j0 =
        (static_cast<std::int64_t>(t) % col_tiles) * kColBlock;
    const std::int64_t ib = std::min(kRowBlock, m - i0);
    const std::int64_t jb = std::min(kColBlock, n - j0);

    // Rows past the edge of A repeat its last row; their results land in
    // the padding of the edge block below and are never stored back.
    const float* arows[kRowBlock] = {};
    for (std::int64_t r = 0; r < kRowBlock; ++r) {
      arows[r] = a + (i0 + std::min(r, ib - 1)) * k;
    }
    float* ct = c + i0 * n + j0;
    if (ib % kMr == 0 && jb % kNr == 0) {
      block_kernel(k, n, arows, ib, jb, b + j0, ct, n);
      return;
    }
    // Edge block: accumulate in a zero-padded copy that whole register
    // tiles fit, then store back only its ib × jb part.
    alignas(64) float block[kRowBlock][kColBlock] = {};
    for (std::int64_t r = 0; r < ib; ++r) {
      std::copy(ct + r * n, ct + r * n + jb, block[r]);
    }
    block_kernel(k, n, arows, ib, jb, b + j0, &block[0][0], kColBlock);
    for (std::int64_t r = 0; r < ib; ++r) {
      std::copy(block[r], block[r] + jb, ct + r * n);
    }
  });
}

}  // namespace duo::nn
