#pragma once

#include <array>
#include <string>

#include "nn/im2col.hpp"
#include "nn/module.hpp"

namespace duo::nn {

// 3D convolution over [C, T, H, W] activations with zero padding.
//
// A temporal kernel size of 1 makes this a per-frame 2D convolution, which is
// how the MiniResNet models (2D backbone + temporal pooling) are expressed
// without a separate Conv2d implementation.
//
// Forward is im2col + a register-tiled GEMM (nn/im2col.hpp, nn/gemm.hpp).
// Each output element accumulates bias-then-taps in the (ci, dt, dh, dw)
// order of the plain nested loops, so forward and the weight/bias grads are
// bitwise equal to them; the input grad sums over output channels before the
// col2im scatter and is equal up to rounding. tests/conv3d_reference.hpp
// keeps those loops as the oracle. Every result is bitwise identical across
// thread counts.
struct Conv3dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::array<std::int64_t, 3> kernel = {3, 3, 3};   // {kt, kh, kw}
  std::array<std::int64_t, 3> stride = {1, 1, 1};   // {st, sh, sw}
  std::array<std::int64_t, 3> padding = {1, 1, 1};  // {pt, ph, pw}
  bool bias = true;
};

class Conv3d final : public Module {
 public:
  Conv3d(Conv3dSpec spec, Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::unique_ptr<Module> clone() const override;
  std::string name() const override { return "Conv3d"; }

  const Conv3dSpec& spec() const noexcept { return spec_; }

  // Output shape for a given input shape (also validates the input shape).
  Tensor::Shape output_shape(const Tensor::Shape& input_shape) const;

 private:
  // Tag for the clone path: allocate parameter storage without drawing the
  // kaiming init from an Rng (the values are overwritten right after).
  struct Uninitialized {};
  Conv3d(Conv3dSpec spec, Uninitialized);

  Im2colGeom make_geom(const Tensor::Shape& in,
                       const Tensor::Shape& out) const noexcept;

  Conv3dSpec spec_;
  Parameter weight_;  // [Cout, Cin, kt, kh, kw]
  Parameter bias_;    // [Cout] (unused storage when spec_.bias == false)
  // Backward needs only the last input's shape and its patch matrix; the
  // patch matrix's storage is reused by the next forward of the same size.
  Tensor::Shape cached_input_shape_;
  Tensor cached_cols_;
};

}  // namespace duo::nn
