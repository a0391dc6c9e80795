#pragma once

// Test oracle for nn::Conv3d: the plain nested-loop convolution that the
// im2col + GEMM path must reproduce. Serial on purpose, so its chains do not
// depend on the compute pool.
//
// Each forward output starts at the bias and adds taps in (ci, dt, dh, dw)
// order; each weight-grad and bias-grad element adds output positions in
// increasing order, seeded from the existing gradient. Conv3d accumulates
// the same chains, so forward and parameter grads must match bitwise. The
// input grad here scatters tap by tap per output channel, while Conv3d sums
// over channels first, so that one only has to be close.

#include <cstdint>

#include "nn/conv3d.hpp"

namespace duo::nn {

class ReferenceConv3d {
 public:
  // Copies the spec and the current weights of `conv`; grads start at zero.
  explicit ReferenceConv3d(Conv3d& conv)
      : spec_(conv.spec()),
        weight_(conv.parameters()[0]->value),
        bias_(spec_.bias ? conv.parameters()[1]->value
                         : Tensor({spec_.out_channels})),
        weight_grad_(weight_.shape()),
        bias_grad_(bias_.shape()) {}

  const Tensor& weight_grad() const noexcept { return weight_grad_; }
  const Tensor& bias_grad() const noexcept { return bias_grad_; }

  Tensor forward(const Tensor& input) {
    cached_input_ = input;
    const Tensor::Shape out_shape = output_shape(input.shape());
    const std::int64_t cin = spec_.in_channels, cout = spec_.out_channels;
    const std::int64_t ti = input.shape()[1], hi = input.shape()[2],
                       wi = input.shape()[3];
    const std::int64_t to = out_shape[1], ho = out_shape[2], wo = out_shape[3];
    const auto [kt, kh, kw] = spec_.kernel;
    const auto [st, sh, sw] = spec_.stride;
    const auto [pt, ph, pw] = spec_.padding;

    Tensor out(out_shape);
    const float* x = input.data();
    const float* w = weight_.data();
    float* y = out.data();

    for (std::int64_t co = 0; co < cout; ++co) {
      const float b = spec_.bias ? bias_[co] : 0.0f;
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
    }
    return out;
  }

  // Accumulates into weight_grad() / bias_grad() and returns the input grad
  // of the last forward.
  Tensor backward(const Tensor& grad_output) {
    const Tensor::Shape out_shape = output_shape(cached_input_.shape());
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
    const float* w = weight_.data();
    const float* gy = grad_output.data();
    float* gw = weight_grad_.data();
    float* gb = bias_grad_.data();
    float* gx = grad_input.data();

    // Weight and bias grads, one output channel at a time.
    for (std::int64_t co = 0; co < cout; ++co) {
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
    }

    // Input grad, one input channel at a time.
    for (std::int64_t ci = 0; ci < cin; ++ci) {
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
    }
    return grad_input;
  }

 private:
  // Computed here rather than read from Conv3d::output_shape, so the oracle
  // checks the layer's shape arithmetic too.
  Tensor::Shape output_shape(const Tensor::Shape& in) const {
    Tensor::Shape out = {spec_.out_channels, 0, 0, 0};
    for (int a = 0; a < 3; ++a) {
      out[a + 1] = (in[a + 1] + 2 * spec_.padding[a] - spec_.kernel[a]) /
                       spec_.stride[a] +
                   1;
    }
    return out;
  }

  Conv3dSpec spec_;
  Tensor weight_;  // [Cout, Cin, kt, kh, kw]
  Tensor bias_;    // [Cout], zeros when spec_.bias == false
  Tensor weight_grad_;
  Tensor bias_grad_;
  Tensor cached_input_;
};

}  // namespace duo::nn
