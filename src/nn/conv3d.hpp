#pragma once

#include <array>
#include <string>

#include "nn/im2col.hpp"
#include "nn/module.hpp"

namespace duo::nn {

// Which Conv3d implementation executes forward/backward.
//
//  - kDirect: the scalar reference kernel (nested tap loops, parallel over
//    output/input channels). Kept for verification: the gradient checker and
//    the determinism suite compare the fast path against it.
//  - kGemm:   im2col + register/cache-blocked GEMM (see nn/gemm.hpp),
//    parallelized over row×column blocks of the output matrix. The forward
//    accumulates each output element in the same tap order as the reference
//    kernel, so forward features (and therefore retrieval lists) reproduce
//    the reference kernel exactly on real inputs; backward reassociates the
//    input-gradient reduction (im2col scatter) and is numerically equivalent
//    but not bitwise. Both kernels are bitwise deterministic across thread
//    counts.
//  - kAuto:   resolve via the process default (DUO_CONV3D_KERNEL env or
//    set_default_conv3d_kernel); defaults to kGemm.
enum class Conv3dKernel { kAuto, kDirect, kGemm };

const char* conv3d_kernel_name(Conv3dKernel kernel) noexcept;

// Process-wide default used by specs that leave kernel_impl = kAuto.
// Initialized lazily from DUO_CONV3D_KERNEL ("direct" or "gemm"; anything
// else, including unset, selects gemm). The setter overrides the env value
// (passing kAuto re-reads the env); it is not synchronized against kernels
// already running on other threads.
Conv3dKernel default_conv3d_kernel() noexcept;
void set_default_conv3d_kernel(Conv3dKernel kernel) noexcept;

// 3D convolution over [C, T, H, W] activations with zero padding.
//
// A temporal kernel size of 1 makes this a per-frame 2D convolution, which is
// how the MiniResNet models (2D backbone + temporal pooling) are expressed
// without a separate Conv2d implementation.
struct Conv3dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::array<std::int64_t, 3> kernel = {3, 3, 3};   // {kt, kh, kw}
  std::array<std::int64_t, 3> stride = {1, 1, 1};   // {st, sh, sw}
  std::array<std::int64_t, 3> padding = {1, 1, 1};  // {pt, ph, pw}
  bool bias = true;
  Conv3dKernel kernel_impl = Conv3dKernel::kAuto;
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

  Conv3dKernel resolved_kernel() const noexcept;
  Im2colGeom make_geom(const Tensor::Shape& in,
                       const Tensor::Shape& out) const noexcept;

  Tensor forward_direct(const Tensor& input, const Tensor::Shape& out_shape);
  Tensor forward_gemm(const Tensor& input, const Tensor::Shape& out_shape);
  Tensor backward_direct(const Tensor& grad_output,
                         const Tensor::Shape& out_shape);
  Tensor backward_gemm(const Tensor& grad_output,
                       const Tensor::Shape& out_shape);

  Conv3dSpec spec_;
  Parameter weight_;  // [Cout, Cin, kt, kh, kw]
  Parameter bias_;    // [Cout] (unused storage when spec_.bias == false)
  Tensor cached_input_;
  // im2col patch matrix of the last kGemm forward; its storage is reused by
  // the next forward with the same patch-matrix size.
  Tensor cached_cols_;
  Conv3dKernel forward_kernel_ = Conv3dKernel::kAuto;  // kernel of last forward
};

}  // namespace duo::nn
