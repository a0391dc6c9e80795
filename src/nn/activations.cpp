#include "nn/activations.hpp"

#include <cmath>

namespace duo::nn {

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input;
  for (auto& x : out.flat()) x = x > 0.0f ? x : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  DUO_CHECK_MSG(grad_output.same_shape(cached_input_),
                "ReLU: backward shape mismatch");
  Tensor grad = grad_output;
  auto g = grad.flat();
  const auto x = cached_input_.flat();
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
  return grad;
}

float sigmoid_scalar(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }
float tanh_scalar(float x) noexcept { return std::tanh(x); }

}  // namespace duo::nn
