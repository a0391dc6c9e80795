#include "nn/im2col.hpp"

#include <cstring>
#include <vector>

#include "common/thread_pool.hpp"

namespace duo::nn {

namespace {

struct TapCoords {
  std::int64_t ci, dt, dh, dw;
};

// Inverse of k = ((ci·kt + dt)·kh + dh)·kw + dw.
TapCoords tap_coords(std::int64_t row, const std::array<std::int64_t, 3>& k) {
  TapCoords t;
  t.dw = row % k[2];
  row /= k[2];
  t.dh = row % k[1];
  row /= k[1];
  t.dt = row % k[0];
  t.ci = row / k[0];
  return t;
}

// Copy n floats as whole 8- and 4-float moves. The last move of each width
// may overlap the one before it, so a short row needs neither a scalar tail
// nor a call into memcpy.
void copy_run(const float* src, std::int64_t n, float* dst) {
  if (n >= 8) {
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) std::memcpy(dst + j, src + j, 8 * sizeof(float));
    if (j < n) std::memcpy(dst + n - 8, src + n - 8, 8 * sizeof(float));
  } else if (n >= 4) {
    std::memcpy(dst, src, 4 * sizeof(float));
    std::memcpy(dst + n - 4, src + n - 4, 4 * sizeof(float));
  } else {
    for (std::int64_t j = 0; j < n; ++j) dst[j] = src[j];
  }
}

// Writes `rows` runs of `width` floats back to back into dst. Run r reads
// every `step`-th float from src + r·pitch.
using RunsFn = void (*)(const float* src, std::int64_t pitch,
                        std::int64_t rows, std::int64_t width,
                        std::int64_t step, float* dst);

void copy_runs_any(const float* src, std::int64_t pitch, std::int64_t rows,
                   std::int64_t width, std::int64_t step, float* dst) {
  for (std::int64_t r = 0; r < rows; ++r, src += pitch, dst += width) {
    if (step == 1) {
      copy_run(src, width, dst);
    } else {
      for (std::int64_t j = 0; j < width; ++j) dst[j] = src[j * step];
    }
  }
}

// Padded floats past the end of the scratch channel: a Step-2 run reads one
// float beyond its last tap (see copy_runs_fixed).
constexpr std::int64_t kScratchSlack = 1;

// copy_runs_any with the width and step fixed at compile time, for the run
// widths of the 8×16×16 serving geometry (16, then 8 and 4 after a stride
// of 2 or a pooling). A run is then one or two vector moves; with Step 2 it
// reads the 2·W-float span once and keeps its even lanes (one permute),
// which reads one float past the run's last tap.
template <std::int64_t W, std::int64_t Step>
void copy_runs_fixed(const float* src, std::int64_t pitch, std::int64_t rows,
                     std::int64_t /*width*/, std::int64_t /*step*/,
                     float* dst) {
  static_assert(Step == 1 || Step - 1 == kScratchSlack);
  for (std::int64_t r = 0; r < rows; ++r, src += pitch, dst += W) {
    if constexpr (Step == 1) {
      std::memcpy(dst, src, W * sizeof(float));
    } else {
      float span[W * Step];
      std::memcpy(span, src, sizeof(span));
      for (std::int64_t j = 0; j < W; ++j) dst[j] = span[j * Step];
    }
  }
}

template <std::int64_t Step>
RunsFn runs_fn_for_width(std::int64_t width) {
  switch (width) {
    case 4: return copy_runs_fixed<4, Step>;
    case 8: return copy_runs_fixed<8, Step>;
    case 16: return copy_runs_fixed<16, Step>;
    default: return copy_runs_any;
  }
}

RunsFn runs_fn(std::int64_t width, std::int64_t step) {
  if (step == 1) return runs_fn_for_width<1>(width);
  if (step == 2) return runs_fn_for_width<2>(width);
  return copy_runs_any;
}

}  // namespace

void im2col(const Im2colGeom& g, const float* x, float* out) {
  DUO_CHECK_MSG(g.rows() > 0 && g.cols() > 0, "im2col: empty geometry");
  const auto [kt, kh, kw] = g.kernel;
  const auto [st, sh, sw] = g.stride;
  const auto [pt, ph, pw] = g.padding;
  const std::int64_t tp = g.ti + 2 * pt, hp = g.hi + 2 * ph,
                     wp = g.wi + 2 * pw;
  DUO_CHECK_MSG((g.to - 1) * st + kt <= tp && (g.ho - 1) * sh + kh <= hp &&
                    (g.wo - 1) * sw + kw <= wp,
                "im2col: output extent exceeds the padded input");

  // One input channel at a time, zero-padded to [tp, hp, wp]: every tap
  // then reads in bounds, and for each (tap, ot) the patch row holds ho
  // runs of wo floats, run oh taken from padded row (ot·st + dt, oh·sh + dh)
  // starting at dw. The border stays zero; each channel rewrites only the
  // interior.
  std::vector<float> padded(
      static_cast<std::size_t>(tp * hp * wp + kScratchSlack), 0.0f);
  const RunsFn copy_runs = runs_fn(g.wo, sw);
  const std::int64_t plane = g.ho * g.wo;
  float* o = out;
  for (std::int64_t ci = 0; ci < g.cin; ++ci) {
    const float* xc = x + ci * g.ti * g.hi * g.wi;
    for (std::int64_t t = 0; t < g.ti; ++t) {
      for (std::int64_t h = 0; h < g.hi; ++h) {
        copy_run(xc + (t * g.hi + h) * g.wi, g.wi,
                 padded.data() + ((t + pt) * hp + h + ph) * wp + pw);
      }
    }
    for (std::int64_t dt = 0; dt < kt; ++dt) {
      for (std::int64_t dh = 0; dh < kh; ++dh) {
        for (std::int64_t dw = 0; dw < kw; ++dw) {
          for (std::int64_t ot = 0; ot < g.to; ++ot, o += plane) {
            copy_runs(padded.data() + ((ot * st + dt) * hp + dh) * wp + dw,
                      sh * wp, g.ho, g.wo, sw, o);
          }
        }
      }
    }
  }
}

void col2im_accumulate(const Im2colGeom& g, const float* cols, float* gx) {
  const std::int64_t kvol = g.kernel[0] * g.kernel[1] * g.kernel[2];
  const std::int64_t ncols = g.cols();
  const auto [st, sh, sw] = g.stride;
  const auto [pt, ph, pw] = g.padding;

  compute_pool().parallel_for(
      static_cast<std::size_t>(g.cin), [&](std::size_t ci_idx) {
    const auto ci = static_cast<std::int64_t>(ci_idx);
    float* gxc = gx + ci * g.ti * g.hi * g.wi;
    for (std::int64_t kk = 0; kk < kvol; ++kk) {
      const std::int64_t row = ci * kvol + kk;
      const TapCoords tap = tap_coords(row, g.kernel);
      const float* crow = cols + row * ncols;
      std::int64_t n = 0;
      for (std::int64_t ot = 0; ot < g.to; ++ot) {
        const std::int64_t it = ot * st - pt + tap.dt;
        if (it < 0 || it >= g.ti) {
          n += g.ho * g.wo;
          continue;
        }
        for (std::int64_t oh = 0; oh < g.ho; ++oh) {
          const std::int64_t ih = oh * sh - ph + tap.dh;
          if (ih < 0 || ih >= g.hi) {
            n += g.wo;
            continue;
          }
          float* gxrow = gxc + (it * g.hi + ih) * g.wi;
          for (std::int64_t ow = 0; ow < g.wo; ++ow, ++n) {
            const std::int64_t iw = ow * sw - pw + tap.dw;
            if (iw >= 0 && iw < g.wi) gxrow[iw] += crow[n];
          }
        }
      }
    }
  });
}

}  // namespace duo::nn
