#include "nn/conv3d.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "common/thread_pool.hpp"
#include "nn/gemm.hpp"
#include "nn/init.hpp"

namespace duo::nn {

namespace {

std::int64_t conv_out_dim(std::int64_t in, std::int64_t k, std::int64_t s,
                          std::int64_t p) {
  const std::int64_t out = (in + 2 * p - k) / s + 1;
  DUO_CHECK_MSG(out > 0, "Conv3d: non-positive output dimension");
  return out;
}

Conv3dKernel kernel_from_env() noexcept {
  const char* v = std::getenv("DUO_CONV3D_KERNEL");
  if (v != nullptr) {
    const std::string_view s(v);
    if (s == "direct" || s == "reference") return Conv3dKernel::kDirect;
  }
  return Conv3dKernel::kGemm;
}

// kAuto encodes "not yet resolved"; first read resolves from the env.
std::atomic<Conv3dKernel> g_default_kernel{Conv3dKernel::kAuto};

}  // namespace

const char* conv3d_kernel_name(Conv3dKernel kernel) noexcept {
  switch (kernel) {
    case Conv3dKernel::kAuto: return "auto";
    case Conv3dKernel::kDirect: return "direct";
    case Conv3dKernel::kGemm: return "gemm";
  }
  return "?";
}

Conv3dKernel default_conv3d_kernel() noexcept {
  Conv3dKernel k = g_default_kernel.load(std::memory_order_relaxed);
  if (k == Conv3dKernel::kAuto) {
    k = kernel_from_env();
    g_default_kernel.store(k, std::memory_order_relaxed);
  }
  return k;
}

void set_default_conv3d_kernel(Conv3dKernel kernel) noexcept {
  g_default_kernel.store(kernel == Conv3dKernel::kAuto ? kernel_from_env()
                                                       : kernel,
                         std::memory_order_relaxed);
}

Conv3d::Conv3d(Conv3dSpec spec, Rng& rng)
    : spec_(spec),
      weight_(kaiming_uniform(
          {spec.out_channels, spec.in_channels, spec.kernel[0], spec.kernel[1],
           spec.kernel[2]},
          spec.in_channels * spec.kernel[0] * spec.kernel[1] * spec.kernel[2],
          rng)),
      bias_(Tensor({spec.out_channels})) {
  DUO_CHECK(spec.in_channels > 0 && spec.out_channels > 0);
  for (int a = 0; a < 3; ++a) {
    DUO_CHECK(spec.kernel[a] > 0 && spec.stride[a] > 0 && spec.padding[a] >= 0);
  }
}

Conv3d::Conv3d(Conv3dSpec spec, Uninitialized)
    : spec_(spec),
      weight_(Tensor({spec.out_channels, spec.in_channels, spec.kernel[0],
                      spec.kernel[1], spec.kernel[2]})),
      bias_(Tensor({spec.out_channels})) {}

Conv3dKernel Conv3d::resolved_kernel() const noexcept {
  return spec_.kernel_impl == Conv3dKernel::kAuto ? default_conv3d_kernel()
                                                  : spec_.kernel_impl;
}

Im2colGeom Conv3d::make_geom(const Tensor::Shape& in,
                             const Tensor::Shape& out) const noexcept {
  Im2colGeom g;
  g.cin = spec_.in_channels;
  g.ti = in[1];
  g.hi = in[2];
  g.wi = in[3];
  g.kernel = spec_.kernel;
  g.stride = spec_.stride;
  g.padding = spec_.padding;
  g.to = out[1];
  g.ho = out[2];
  g.wo = out[3];
  return g;
}

Tensor::Shape Conv3d::output_shape(const Tensor::Shape& in) const {
  DUO_CHECK_MSG(in.size() == 4, "Conv3d expects [C, T, H, W]");
  DUO_CHECK_MSG(in[0] == spec_.in_channels, "Conv3d: channel mismatch");
  return {spec_.out_channels,
          conv_out_dim(in[1], spec_.kernel[0], spec_.stride[0], spec_.padding[0]),
          conv_out_dim(in[2], spec_.kernel[1], spec_.stride[1], spec_.padding[1]),
          conv_out_dim(in[3], spec_.kernel[2], spec_.stride[2], spec_.padding[2])};
}

Tensor Conv3d::forward(const Tensor& input) {
  const auto out_shape = output_shape(input.shape());
  cached_input_ = input;
  forward_kernel_ = resolved_kernel();
  if (forward_kernel_ == Conv3dKernel::kGemm) {
    return forward_gemm(input, out_shape);
  }
  cached_cols_ = Tensor();
  return forward_direct(input, out_shape);
}

Tensor Conv3d::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(!cached_input_.empty(), "Conv3d: backward before forward");
  const auto out_shape = output_shape(cached_input_.shape());
  DUO_CHECK_MSG(grad_output.shape() == out_shape,
                "Conv3d: grad_output shape mismatch");
  // Backward must consume the caches the matching forward produced, so the
  // kernel resolved at forward time wins over any default flipped since.
  if (forward_kernel_ == Conv3dKernel::kGemm) {
    return backward_gemm(grad_output, out_shape);
  }
  return backward_direct(grad_output, out_shape);
}

// ---------------------------------------------------------------------------
// im2col + GEMM kernel
// ---------------------------------------------------------------------------

Tensor Conv3d::forward_gemm(const Tensor& input,
                            const Tensor::Shape& out_shape) {
  const Im2colGeom g = make_geom(input.shape(), out_shape);
  // im2col overwrites every entry, so the previous forward's patch matrix is
  // reused when its shape is unchanged (the steady state of serving).
  const Tensor::Shape cols_shape = {g.rows(), g.cols()};
  if (cached_cols_.shape() != cols_shape) cached_cols_ = Tensor(cols_shape);
  im2col(g, input.data(), cached_cols_.data());

  // Seed each output row with its bias (the reference kernel starts every
  // accumulator at the bias), then Y += W·cols. The im2col row order equals
  // the reference kernel's tap order, so every output element accumulates
  // the same chain in the same order: forward is bitwise-reproducible
  // against the direct kernel on real (finite) inputs.
  Tensor out(out_shape);
  const std::int64_t n = g.cols();
  if (spec_.bias) {
    float* y = out.data();
    for (std::int64_t co = 0; co < spec_.out_channels; ++co) {
      const float b = bias_.value[co];
      for (std::int64_t i = 0; i < n; ++i) y[co * n + i] = b;
    }
  }
  gemm_accumulate(spec_.out_channels, g.rows(), n, weight_.value.data(),
                  cached_cols_.data(), out.data());
  return out;
}

Tensor Conv3d::backward_gemm(const Tensor& grad_output,
                             const Tensor::Shape& out_shape) {
  DUO_CHECK_MSG(!cached_cols_.empty(), "Conv3d: gemm backward without cols");
  const Im2colGeom g = make_geom(cached_input_.shape(), out_shape);
  const std::int64_t cout = spec_.out_channels;
  const std::int64_t k = g.rows(), n = g.cols();
  const float* gy = grad_output.data();

  // Bias: accumulate each channel's grad_output row in column order — the
  // same order the reference kernel adds them.
  if (spec_.bias) {
    float* gb = bias_.grad.data();
    for (std::int64_t co = 0; co < cout; ++co) {
      float acc = gb[co];
      const float* grow = gy + co * n;
      for (std::int64_t i = 0; i < n; ++i) acc += grow[i];
      gb[co] = acc;
    }
  }

  // Weight grad as its transpose: gwT[K, Cout] += cols[K, N] · gyT[N, Cout].
  // Working in the transposed layout lets the GEMM vectorize over Cout while
  // each gw element still accumulates over output positions in increasing
  // order, seeded from the existing gradient — the reference kernel's chain.
  {
    Tensor gyt({n, cout});
    float* t = gyt.data();
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t i = 0; i < n; ++i) t[i * cout + co] = gy[co * n + i];
    }
    Tensor gwt({k, cout});
    float* wt = gwt.data();
    const float* gw = weight_.grad.data();
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        wt[kk * cout + co] = gw[co * k + kk];
      }
    }
    gemm_accumulate(k, n, cout, cached_cols_.data(), gyt.data(), gwt.data());
    float* gw_out = weight_.grad.data();
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        gw_out[co * k + kk] = wt[kk * cout + co];
      }
    }
  }

  // Input grad: cols_grad[K, N] = Wᵀ[K, Cout] · gy[Cout, N], scattered back
  // through col2im. This reassociates the reduction relative to the direct
  // kernel (sum over channels happens before the tap scatter), so gx is
  // numerically equivalent but not bitwise identical to the reference —
  // while remaining bitwise deterministic across thread counts.
  Tensor wt({k, cout});
  {
    const float* w = weight_.value.data();
    float* t = wt.data();
    for (std::int64_t co = 0; co < cout; ++co) {
      for (std::int64_t kk = 0; kk < k; ++kk) t[kk * cout + co] = w[co * k + kk];
    }
  }
  Tensor cols_grad({k, n});
  gemm_accumulate(k, cout, n, wt.data(), gy, cols_grad.data());
  Tensor grad_input(cached_input_.shape());
  col2im_accumulate(g, cols_grad.data(), grad_input.data());
  return grad_input;
}

// ---------------------------------------------------------------------------
// Direct (reference) kernel
// ---------------------------------------------------------------------------

Tensor Conv3d::forward_direct(const Tensor& input,
                              const Tensor::Shape& out_shape) {
  const std::int64_t cin = spec_.in_channels, cout = spec_.out_channels;
  const std::int64_t ti = input.shape()[1], hi = input.shape()[2],
                     wi = input.shape()[3];
  const std::int64_t to = out_shape[1], ho = out_shape[2], wo = out_shape[3];
  const auto [kt, kh, kw] = spec_.kernel;
  const auto [st, sh, sw] = spec_.stride;
  const auto [pt, ph, pw] = spec_.padding;

  Tensor out(out_shape);
  const float* x = input.data();
  const float* w = weight_.value.data();
  float* y = out.data();

  // Each output channel owns a disjoint slice of y and is computed in the
  // same inner order regardless of which thread runs it, so the result is
  // bitwise identical across thread counts (including serial).
  compute_pool().parallel_for(
      static_cast<std::size_t>(cout), [&](std::size_t co_idx) {
    const auto co = static_cast<std::int64_t>(co_idx);
    const float b = spec_.bias ? bias_.value[co] : 0.0f;
    for (std::int64_t ot = 0; ot < to; ++ot) {
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow) {
          float acc = b;
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            const float* wc = w + (((co * cin + ci) * kt) * kh * kw);
            const float* xc = x + ci * ti * hi * wi;
            for (std::int64_t dt = 0; dt < kt; ++dt) {
              const std::int64_t it = ot * st - pt + dt;
              if (it < 0 || it >= ti) continue;
              for (std::int64_t dh = 0; dh < kh; ++dh) {
                const std::int64_t ih = oh * sh - ph + dh;
                if (ih < 0 || ih >= hi) continue;
                const float* xrow = xc + (it * hi + ih) * wi;
                const float* wrow = wc + (dt * kh + dh) * kw;
                for (std::int64_t dw = 0; dw < kw; ++dw) {
                  const std::int64_t iw = ow * sw - pw + dw;
                  if (iw < 0 || iw >= wi) continue;
                  acc += wrow[dw] * xrow[iw];
                }
              }
            }
          }
          y[((co * to + ot) * ho + oh) * wo + ow] = acc;
        }
      }
    }
  });
  return out;
}

Tensor Conv3d::backward_direct(const Tensor& grad_output,
                               const Tensor::Shape& out_shape) {
  const std::int64_t cin = spec_.in_channels, cout = spec_.out_channels;
  const std::int64_t ti = cached_input_.shape()[1],
                     hi = cached_input_.shape()[2],
                     wi = cached_input_.shape()[3];
  const std::int64_t to = out_shape[1], ho = out_shape[2], wo = out_shape[3];
  const auto [kt, kh, kw] = spec_.kernel;
  const auto [st, sh, sw] = spec_.stride;
  const auto [pt, ph, pw] = spec_.padding;

  Tensor grad_input(cached_input_.shape());
  const float* x = cached_input_.data();
  const float* w = weight_.value.data();
  const float* gy = grad_output.data();
  float* gw = weight_.grad.data();
  float* gb = bias_.grad.data();
  float* gx = grad_input.data();

  // Two passes, each sharded so that every accumulated address is owned by
  // exactly one shard and accumulated in the same order as the serial loop:
  // weight/bias grads are disjoint per output channel, input grads are
  // disjoint per input channel. Results are therefore bitwise identical
  // across thread counts.
  compute_pool().parallel_for(
      static_cast<std::size_t>(cout), [&](std::size_t co_idx) {
    const auto co = static_cast<std::int64_t>(co_idx);
    for (std::int64_t ot = 0; ot < to; ++ot) {
      for (std::int64_t oh = 0; oh < ho; ++oh) {
        for (std::int64_t ow = 0; ow < wo; ++ow) {
          const float g = gy[((co * to + ot) * ho + oh) * wo + ow];
          if (g == 0.0f) continue;
          if (spec_.bias) gb[co] += g;
          for (std::int64_t ci = 0; ci < cin; ++ci) {
            float* gwc = gw + (((co * cin + ci) * kt) * kh * kw);
            const float* xc = x + ci * ti * hi * wi;
            for (std::int64_t dt = 0; dt < kt; ++dt) {
              const std::int64_t it = ot * st - pt + dt;
              if (it < 0 || it >= ti) continue;
              for (std::int64_t dh = 0; dh < kh; ++dh) {
                const std::int64_t ih = oh * sh - ph + dh;
                if (ih < 0 || ih >= hi) continue;
                const float* xrow = xc + (it * hi + ih) * wi;
                float* gwrow = gwc + (dt * kh + dh) * kw;
                for (std::int64_t dw = 0; dw < kw; ++dw) {
                  const std::int64_t iw = ow * sw - pw + dw;
                  if (iw < 0 || iw >= wi) continue;
                  gwrow[dw] += g * xrow[iw];
                }
              }
            }
          }
        }
      }
    }
  });

  compute_pool().parallel_for(
      static_cast<std::size_t>(cin), [&](std::size_t ci_idx) {
    const auto ci = static_cast<std::int64_t>(ci_idx);
    float* gxc = gx + ci * ti * hi * wi;
    for (std::int64_t co = 0; co < cout; ++co) {
      const float* wc = w + (((co * cin + ci) * kt) * kh * kw);
      for (std::int64_t ot = 0; ot < to; ++ot) {
        for (std::int64_t oh = 0; oh < ho; ++oh) {
          for (std::int64_t ow = 0; ow < wo; ++ow) {
            const float g = gy[((co * to + ot) * ho + oh) * wo + ow];
            if (g == 0.0f) continue;
            for (std::int64_t dt = 0; dt < kt; ++dt) {
              const std::int64_t it = ot * st - pt + dt;
              if (it < 0 || it >= ti) continue;
              for (std::int64_t dh = 0; dh < kh; ++dh) {
                const std::int64_t ih = oh * sh - ph + dh;
                if (ih < 0 || ih >= hi) continue;
                float* gxrow = gxc + (it * hi + ih) * wi;
                const float* wrow = wc + (dt * kh + dh) * kw;
                for (std::int64_t dw = 0; dw < kw; ++dw) {
                  const std::int64_t iw = ow * sw - pw + dw;
                  if (iw < 0 || iw >= wi) continue;
                  gxrow[iw] += g * wrow[dw];
                }
              }
            }
          }
        }
      }
    }
  });
  return grad_input;
}

std::vector<Parameter*> Conv3d::parameters() {
  if (spec_.bias) return {&weight_, &bias_};
  return {&weight_};
}

std::unique_ptr<Module> Conv3d::clone() const {
  // Uninitialized construction: no point drawing a kaiming init that the
  // copies below immediately overwrite (clones happen once per worker on
  // every parallel extract/train launch).
  auto copy = std::unique_ptr<Conv3d>(new Conv3d(spec_, Uninitialized{}));
  copy->weight_.value = weight_.value;
  copy->bias_.value = bias_.value;
  copy->set_training(training());
  return copy;
}

}  // namespace duo::nn
