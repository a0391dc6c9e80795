#pragma once

// Test oracles for the non-GEMM work on the serve path: InstanceNorm3d,
// MaxPool3d and the flat index's per-row distance scan. These are the plain
// loops the library kernels must reproduce bitwise. Serial on purpose, so
// their chains do not depend on the compute pool.
//
// InstanceNorm3d sums each channel's mean and variance as one chain of
// double adds in element order; the library advances several channels'
// chains side by side. MaxPool3d takes the first strict maximum of each
// window in (dt, dh, dw) tap order, seeded from the window's first element;
// the library selects without a branch, taps outer. DataNode sums each
// row's squared differences as one chain in feature order; the library
// advances several rows side by side. Every output, cached value and
// gradient must match bitwise.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/norm.hpp"
#include "retrieval/index.hpp"

namespace duo::nn {

class ReferenceInstanceNorm3d {
 public:
  // Copies the current gamma and beta of `norm`; grads start at zero.
  explicit ReferenceInstanceNorm3d(InstanceNorm3d& norm, float eps = 1e-5f)
      : channels_(norm.parameters()[0]->value.size()),
        eps_(eps),
        gamma_(norm.parameters()[0]->value),
        beta_(norm.parameters()[1]->value),
        gamma_grad_(gamma_.shape()),
        beta_grad_(beta_.shape()) {}

  const Tensor& gamma_grad() const noexcept { return gamma_grad_; }
  const Tensor& beta_grad() const noexcept { return beta_grad_; }

  Tensor forward(const Tensor& input) {
    const std::int64_t c = channels_;
    const std::int64_t spatial = input.size() / c;

    Tensor out(input.shape());
    cached_normalized_ = Tensor(input.shape());
    cached_inv_std_.assign(static_cast<std::size_t>(c), 0.0f);

    const float* x = input.data();
    float* y = out.data();
    float* xh = cached_normalized_.data();
    for (std::int64_t cc = 0; cc < c; ++cc) {
      const float* xc = x + cc * spatial;
      double mean = 0.0;
      for (std::int64_t i = 0; i < spatial; ++i) mean += xc[i];
      mean /= static_cast<double>(spatial);
      double var = 0.0;
      for (std::int64_t i = 0; i < spatial; ++i) {
        const double d = xc[i] - mean;
        var += d * d;
      }
      var /= static_cast<double>(spatial);
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      cached_inv_std_[static_cast<std::size_t>(cc)] = inv_std;
      const float g = gamma_[cc], b = beta_[cc];
      for (std::int64_t i = 0; i < spatial; ++i) {
        const float n = (xc[i] - static_cast<float>(mean)) * inv_std;
        xh[cc * spatial + i] = n;
        y[cc * spatial + i] = g * n + b;
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    const std::int64_t c = channels_;
    const std::int64_t spatial = grad_output.size() / c;
    const float inv_n = 1.0f / static_cast<float>(spatial);

    Tensor grad_input(grad_output.shape());
    const float* gy = grad_output.data();
    const float* xh = cached_normalized_.data();
    float* gx = grad_input.data();
    float* gg = gamma_grad_.data();
    float* gb = beta_grad_.data();

    for (std::int64_t cc = 0; cc < c; ++cc) {
      const float* gyc = gy + cc * spatial;
      const float* xhc = xh + cc * spatial;
      float* gxc = gx + cc * spatial;
      const float g = gamma_[cc];
      const float inv_std = cached_inv_std_[static_cast<std::size_t>(cc)];

      double sum_gy = 0.0, sum_gy_xh = 0.0;
      for (std::int64_t i = 0; i < spatial; ++i) {
        sum_gy += gyc[i];
        sum_gy_xh += static_cast<double>(gyc[i]) * xhc[i];
      }
      gb[cc] += static_cast<float>(sum_gy);
      gg[cc] += static_cast<float>(sum_gy_xh);

      const float mean_gy = static_cast<float>(sum_gy) * inv_n;
      const float mean_gy_xh = static_cast<float>(sum_gy_xh) * inv_n;
      for (std::int64_t i = 0; i < spatial; ++i) {
        gxc[i] = g * inv_std * (gyc[i] - mean_gy - xhc[i] * mean_gy_xh);
      }
    }
    return grad_input;
  }

 private:
  std::int64_t channels_;
  float eps_;
  Tensor gamma_;
  Tensor beta_;
  Tensor gamma_grad_;
  Tensor beta_grad_;
  Tensor cached_normalized_;
  std::vector<float> cached_inv_std_;
};

class ReferenceMaxPool3d {
 public:
  ReferenceMaxPool3d(std::array<std::int64_t, 3> kernel,
                     std::array<std::int64_t, 3> stride)
      : kernel_(kernel), stride_(stride) {}

  // Flat input index of each output's maximum, from the last forward.
  const std::vector<std::int64_t>& argmax() const noexcept { return argmax_; }

  Tensor forward(const Tensor& input) {
    cached_input_shape_ = input.shape();
    const std::int64_t c = input.shape()[0], ti = input.shape()[1],
                       hi = input.shape()[2], wi = input.shape()[3];
    const std::int64_t to = (ti - kernel_[0]) / stride_[0] + 1;
    const std::int64_t ho = (hi - kernel_[1]) / stride_[1] + 1;
    const std::int64_t wo = (wi - kernel_[2]) / stride_[2] + 1;

    Tensor out({c, to, ho, wo});
    argmax_.assign(static_cast<std::size_t>(out.size()), -1);
    const float* x = input.data();
    float* y = out.data();

    for (std::int64_t cc = 0; cc < c; ++cc) {
      const float* xc = x + cc * ti * hi * wi;
      std::int64_t oi = cc * to * ho * wo;
      for (std::int64_t ot = 0; ot < to; ++ot) {
        for (std::int64_t oh = 0; oh < ho; ++oh) {
          for (std::int64_t ow = 0; ow < wo; ++ow, ++oi) {
            const std::int64_t first =
                ((ot * stride_[0]) * hi + oh * stride_[1]) * wi +
                ow * stride_[2];
            float best = xc[first];
            std::int64_t best_idx = cc * ti * hi * wi + first;
            for (std::int64_t dt = 0; dt < kernel_[0]; ++dt) {
              const std::int64_t it = ot * stride_[0] + dt;
              for (std::int64_t dh = 0; dh < kernel_[1]; ++dh) {
                const std::int64_t ih = oh * stride_[1] + dh;
                for (std::int64_t dw = 0; dw < kernel_[2]; ++dw) {
                  const std::int64_t iw = ow * stride_[2] + dw;
                  const std::int64_t idx = (it * hi + ih) * wi + iw;
                  if (xc[idx] > best) {
                    best = xc[idx];
                    best_idx = cc * ti * hi * wi + idx;
                  }
                }
              }
            }
            y[oi] = best;
            argmax_[static_cast<std::size_t>(oi)] = best_idx;
          }
        }
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) {
    Tensor grad_input(cached_input_shape_);
    float* gx = grad_input.data();
    const float* gy = grad_output.data();
    for (std::size_t i = 0; i < argmax_.size(); ++i) {
      gx[argmax_[i]] += gy[i];
    }
    return grad_input;
  }

 private:
  std::array<std::int64_t, 3> kernel_;
  std::array<std::int64_t, 3> stride_;
  Tensor::Shape cached_input_shape_;
  std::vector<std::int64_t> argmax_;
};

}  // namespace duo::nn

namespace duo::retrieval {

// DataNode::query as one distance chain per row, then the same partial sort.
inline std::vector<Neighbor> reference_node_query(const DataNode& node,
                                                  const Tensor& feature,
                                                  std::size_t m) {
  const auto dim = feature.size();
  const float* q = feature.data();
  const std::vector<std::int64_t>& ids = node.ids();
  const std::vector<int>& labels = node.labels();
  const std::vector<float>& features = node.features();
  std::vector<Neighbor> all;
  all.reserve(ids.size());
  for (std::size_t r = 0; r < ids.size(); ++r) {
    const float* f = features.data() + r * static_cast<std::size_t>(dim);
    double acc = 0.0;
    for (std::int64_t i = 0; i < dim; ++i) {
      const double d = static_cast<double>(q[i]) - f[i];
      acc += d * d;
    }
    all.push_back({ids[r], labels[r], acc});
  }
  const std::size_t k = std::min(m, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                    neighbor_less);
  all.resize(k);
  return all;
}

}  // namespace duo::retrieval
