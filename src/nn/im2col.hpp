#pragma once

// im2col / col2im for [C, T, H, W] activations with zero padding.
//
// im2col lowers a 3D convolution to a matrix product: the patch matrix has
// one row per kernel tap k = ((ci·kt + dt)·kh + dh)·kw + dw and one column
// per output position n = (ot·Ho + oh)·Wo + ow, so the row order matches the
// flattened weight layout [Cout, Cin·kt·kh·kw] and the reference loops'
// accumulation order over (ci, dt, dh, dw). Padding taps are stored as 0.

#include <array>
#include <cstdint>

#include "tensor/tensor.hpp"

namespace duo::nn {

// Geometry of one im2col lowering. All dims must be consistent with a valid
// convolution (output dims positive, strides positive, paddings >= 0).
struct Im2colGeom {
  std::int64_t cin = 0, ti = 0, hi = 0, wi = 0;  // input [Cin, Ti, Hi, Wi]
  std::array<std::int64_t, 3> kernel = {1, 1, 1};
  std::array<std::int64_t, 3> stride = {1, 1, 1};
  std::array<std::int64_t, 3> padding = {0, 0, 0};
  std::int64_t to = 0, ho = 0, wo = 0;  // output spatial dims

  std::int64_t rows() const noexcept {
    return cin * kernel[0] * kernel[1] * kernel[2];
  }
  std::int64_t cols() const noexcept { return to * ho * wo; }
};

// Fill `out` [rows() × cols(), row-major] from x [Cin, Ti, Hi, Wi].
// Each input channel is first copied once into a zero-padded scratch
// channel, so every patch-row segment is a whole-run copy (a gather when the
// W stride is above 1) with no per-element bounds test.
//
// Runs on the calling thread, not sharded over the compute pool. It is pure
// data movement: at the models' sizes one AVX-512 Xeon core writes a patch
// matrix in 3–30 µs, about what a fork-join's wake-ups and the cache lines
// it moves between cores would cost. On the serve path it already runs
// inside an extract_batch shard, where a nested parallel_for would run
// inline anyway.
void im2col(const Im2colGeom& g, const float* x, float* out);

// Scatter-accumulate the patch-matrix gradient back: for every (row, col)
// entry of `cols` that im2col sourced from input position p, gx[p] += entry.
// Padding taps are dropped. Sharded over input channels (each channel owns a
// disjoint row band and a disjoint slice of gx) with a fixed (row, col)
// accumulation order per channel — bitwise identical across thread counts.
void col2im_accumulate(const Im2colGeom& g, const float* cols, float* gx);

}  // namespace duo::nn
