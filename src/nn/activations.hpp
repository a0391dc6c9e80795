#pragma once

#include <string>

#include "nn/module.hpp"

namespace duo::nn {

// Rectified linear unit.
class ReLU final : public Module {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::unique_ptr<Module> clone() const override {
    return std::make_unique<ReLU>();
  }
  std::string name() const override { return "ReLU"; }

 private:
  Tensor cached_input_;
};

// Functional forms, used by LSTM gates where module state is unnecessary.
float sigmoid_scalar(float x) noexcept;
float tanh_scalar(float x) noexcept;

}  // namespace duo::nn
