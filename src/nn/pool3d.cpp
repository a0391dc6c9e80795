#include "nn/pool3d.hpp"

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"

namespace duo::nn {

namespace {
std::int64_t pool_out_dim(std::int64_t in, std::int64_t k, std::int64_t s) {
  DUO_CHECK_MSG(in >= k, "pool window larger than input");
  return (in - k) / s + 1;
}

// One MaxPool3d channel's geometry, passed by value so the loops read it
// from registers rather than through pointers the output stores may alias.
struct MaxPoolGeom {
  std::int64_t hi, wi;      // input H, W
  std::int64_t to, ho, wo;  // output extent
  std::int64_t st, sh, sw;  // stride
  // Offset of each tap from its window's first element, in (dt, dh, dw)
  // order; tap 0 is the first element itself.
  const std::int64_t* tap_offsets;
  std::int64_t taps;
};

// Windows along W that advance side by side, one vector lane each.
constexpr std::int64_t kPoolLanes = 4;
using PoolVec =
    float __attribute__((vector_size(kPoolLanes * sizeof(float))));
using TapVec = std::int32_t
    __attribute__((vector_size(kPoolLanes * sizeof(std::int32_t))));

// Lane l holds x[l * stride]. Built from scalars in one expression: a
// per-lane store loop goes through the stack and stalls the vector load.
inline PoolVec load_lanes(const float* x, std::int64_t stride) {
  static_assert(kPoolLanes == 4);
  return PoolVec{x[0], x[stride], x[2 * stride], x[3 * stride]};
}

// Every window is seeded from its first element rather than a -inf
// sentinel (a window of all NaN or all -inf would otherwise keep no
// argmax, and backward would scatter out of bounds), then visits its taps
// in (dt, dh, dw) order and takes a tap only when it is strictly greater,
// as a select rather than a branch. So the first strict maximum wins, a
// leading NaN stays and a later one is never taken, and -0 never displaces
// +0 (or the reverse). The argmax is the winning tap's flat input index.
void max_pool_channel(const MaxPoolGeom g, const float* xc, std::int64_t base,
                      float* yc, std::int64_t* ac) {
  const std::int64_t* off = g.tap_offsets;
  std::int64_t oi = 0;
  for (std::int64_t ot = 0; ot < g.to; ++ot) {
    for (std::int64_t oh = 0; oh < g.ho; ++oh) {
      const std::int64_t row = ((ot * g.st) * g.hi + oh * g.sh) * g.wi;
      std::int64_t ow = 0;
      for (; ow + kPoolLanes <= g.wo; ow += kPoolLanes, oi += kPoolLanes) {
        const float* x0 = xc + row + ow * g.sw;
        PoolVec best = load_lanes(x0, g.sw);
        TapVec tap = {};
        for (std::int64_t t = 1; t < g.taps; ++t) {
          const PoolVec v = load_lanes(x0 + off[t], g.sw);
          const TapVec take = v > best;
          best = take ? v : best;
          tap = take ? static_cast<std::int32_t>(t) : tap;
        }
        for (std::int64_t l = 0; l < kPoolLanes; ++l) {
          yc[oi + l] = best[l];
          ac[oi + l] = base + row + (ow + l) * g.sw + off[tap[l]];
        }
      }
      for (; ow < g.wo; ++ow, ++oi) {
        const float* x0 = xc + row + ow * g.sw;
        float best = x0[0];
        std::int64_t tap = 0;
        for (std::int64_t t = 1; t < g.taps; ++t) {
          const float v = x0[off[t]];
          const bool take = v > best;
          best = take ? v : best;
          tap = take ? t : tap;
        }
        yc[oi] = best;
        ac[oi] = base + row + ow * g.sw + off[tap];
      }
    }
  }
}

}  // namespace

MaxPool3d::MaxPool3d(std::array<std::int64_t, 3> kernel,
                     std::array<std::int64_t, 3> stride)
    : kernel_(kernel), stride_(stride) {
  for (int a = 0; a < 3; ++a) DUO_CHECK(kernel[a] > 0 && stride[a] > 0);
}

Tensor MaxPool3d::forward(const Tensor& input) {
  DUO_CHECK_MSG(input.rank() == 4, "MaxPool3d expects [C, T, H, W]");
  cached_input_shape_ = input.shape();
  const std::int64_t c = input.shape()[0], ti = input.shape()[1],
                     hi = input.shape()[2], wi = input.shape()[3];
  std::vector<std::int64_t> tap_offsets;
  for (std::int64_t dt = 0; dt < kernel_[0]; ++dt) {
    for (std::int64_t dh = 0; dh < kernel_[1]; ++dh) {
      for (std::int64_t dw = 0; dw < kernel_[2]; ++dw) {
        tap_offsets.push_back((dt * hi + dh) * wi + dw);
      }
    }
  }
  const MaxPoolGeom g{
      .hi = hi,
      .wi = wi,
      .to = pool_out_dim(ti, kernel_[0], stride_[0]),
      .ho = pool_out_dim(hi, kernel_[1], stride_[1]),
      .wo = pool_out_dim(wi, kernel_[2], stride_[2]),
      .st = stride_[0],
      .sh = stride_[1],
      .sw = stride_[2],
      .tap_offsets = tap_offsets.data(),
      .taps = static_cast<std::int64_t>(tap_offsets.size()),
  };

  Tensor out({c, g.to, g.ho, g.wo});
  argmax_.resize(static_cast<std::size_t>(out.size()));
  const float* x = input.data();
  float* y = out.data();
  std::int64_t* arg = argmax_.data();
  const std::int64_t in_per_channel = ti * hi * wi;
  const std::int64_t out_per_channel = g.to * g.ho * g.wo;

  // Channels own disjoint slices of y and argmax_, so the channel loop is
  // safe to shard across threads with bitwise-identical results.
  compute_pool().parallel_for(static_cast<std::size_t>(c), [&](std::size_t ci) {
    const auto cc = static_cast<std::int64_t>(ci);
    max_pool_channel(g, x + cc * in_per_channel, cc * in_per_channel,
                     y + cc * out_per_channel, arg + cc * out_per_channel);
  });
  return out;
}

Tensor MaxPool3d::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(static_cast<std::size_t>(grad_output.size()) == argmax_.size(),
                "MaxPool3d: backward before forward / shape mismatch");
  Tensor grad_input(cached_input_shape_);
  float* gx = grad_input.data();
  const float* gy = grad_output.data();
  // An argmax index always lands inside its own channel's input slice, so
  // sharding the scatter per channel keeps writes disjoint.
  const std::int64_t c = cached_input_shape_[0];
  const std::size_t per_channel = argmax_.size() / static_cast<std::size_t>(c);
  compute_pool().parallel_for(static_cast<std::size_t>(c), [&](std::size_t cc) {
    const std::size_t begin = cc * per_channel;
    for (std::size_t i = begin; i < begin + per_channel; ++i) {
      gx[argmax_[i]] += gy[i];
    }
  });
  return grad_input;
}

AvgPool3d::AvgPool3d(std::array<std::int64_t, 3> kernel,
                     std::array<std::int64_t, 3> stride)
    : kernel_(kernel), stride_(stride) {
  for (int a = 0; a < 3; ++a) DUO_CHECK(kernel[a] > 0 && stride[a] > 0);
}

Tensor AvgPool3d::forward(const Tensor& input) {
  DUO_CHECK_MSG(input.rank() == 4, "AvgPool3d expects [C, T, H, W]");
  cached_input_shape_ = input.shape();
  const std::int64_t c = input.shape()[0], ti = input.shape()[1],
                     hi = input.shape()[2], wi = input.shape()[3];
  const std::int64_t to = pool_out_dim(ti, kernel_[0], stride_[0]);
  const std::int64_t ho = pool_out_dim(hi, kernel_[1], stride_[1]);
  const std::int64_t wo = pool_out_dim(wi, kernel_[2], stride_[2]);
  const float inv =
      1.0f / static_cast<float>(kernel_[0] * kernel_[1] * kernel_[2]);

  Tensor out({c, to, ho, wo});
  const float* x = input.data();
  float* y = out.data();
  compute_pool().parallel_for(static_cast<std::size_t>(c), [&](std::size_t ci) {
    const auto cc = static_cast<std::int64_t>(ci);
    const float* xc = x + cc * ti * hi * wi;
    std::int64_t oi = cc * to * ho * wo;
    for (std::int64_t ot = 0; ot < to; ++ot) {
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow, ++oi) {
          float acc = 0.0f;
          for (std::int64_t dt = 0; dt < kernel_[0]; ++dt) {
            const std::int64_t it = ot * stride_[0] + dt;
            for (std::int64_t dh = 0; dh < kernel_[1]; ++dh) {
              const std::int64_t ih = oh * stride_[1] + dh;
              const float* xrow = xc + (it * hi + ih) * wi;
              for (std::int64_t dw = 0; dw < kernel_[2]; ++dw) {
                acc += xrow[ow * stride_[2] + dw];
              }
            }
          }
          y[oi] = acc * inv;
        }
      }
    }
  });
  return out;
}

Tensor AvgPool3d::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(cached_input_shape_.size() == 4,
                "AvgPool3d: backward before forward");
  const std::int64_t c = cached_input_shape_[0], ti = cached_input_shape_[1],
                     hi = cached_input_shape_[2], wi = cached_input_shape_[3];
  const std::int64_t to = pool_out_dim(ti, kernel_[0], stride_[0]);
  const std::int64_t ho = pool_out_dim(hi, kernel_[1], stride_[1]);
  const std::int64_t wo = pool_out_dim(wi, kernel_[2], stride_[2]);
  DUO_CHECK(grad_output.shape() == Tensor::Shape({c, to, ho, wo}));
  const float inv =
      1.0f / static_cast<float>(kernel_[0] * kernel_[1] * kernel_[2]);

  Tensor grad_input(cached_input_shape_);
  float* gx = grad_input.data();
  const float* gy = grad_output.data();
  compute_pool().parallel_for(static_cast<std::size_t>(c), [&](std::size_t ci) {
    const auto cc = static_cast<std::int64_t>(ci);
    float* gxc = gx + cc * ti * hi * wi;
    std::int64_t oi = cc * to * ho * wo;
    for (std::int64_t ot = 0; ot < to; ++ot) {
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow, ++oi) {
          const float g = gy[oi] * inv;
          for (std::int64_t dt = 0; dt < kernel_[0]; ++dt) {
            const std::int64_t it = ot * stride_[0] + dt;
            for (std::int64_t dh = 0; dh < kernel_[1]; ++dh) {
              const std::int64_t ih = oh * stride_[1] + dh;
              float* gxrow = gxc + (it * hi + ih) * wi;
              for (std::int64_t dw = 0; dw < kernel_[2]; ++dw) {
                gxrow[ow * stride_[2] + dw] += g;
              }
            }
          }
        }
      }
    }
  });
  return grad_input;
}

Tensor GlobalAvgPool::forward(const Tensor& input) {
  DUO_CHECK_MSG(input.rank() == 4, "GlobalAvgPool expects [C, T, H, W]");
  cached_input_shape_ = input.shape();
  const std::int64_t c = input.shape()[0];
  const std::int64_t spatial = input.size() / c;
  Tensor out({c});
  const float* x = input.data();
  for (std::int64_t cc = 0; cc < c; ++cc) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < spatial; ++i) acc += x[cc * spatial + i];
    out[cc] = static_cast<float>(acc / static_cast<double>(spatial));
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(cached_input_shape_.size() == 4,
                "GlobalAvgPool: backward before forward");
  const std::int64_t c = cached_input_shape_[0];
  DUO_CHECK(grad_output.size() == c);
  const std::int64_t spatial = shape_numel(cached_input_shape_) / c;
  const float inv = 1.0f / static_cast<float>(spatial);
  Tensor grad_input(cached_input_shape_);
  float* gx = grad_input.data();
  for (std::int64_t cc = 0; cc < c; ++cc) {
    const float g = grad_output[cc] * inv;
    for (std::int64_t i = 0; i < spatial; ++i) gx[cc * spatial + i] = g;
  }
  return grad_input;
}

}  // namespace duo::nn
