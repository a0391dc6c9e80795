// Gradient checks for every layer: analytic backward vs central differences.

#include <gtest/gtest.h>

#include <memory>

#include "nn/activations.hpp"
#include "nn/compose.hpp"
#include "nn/conv3d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "nn/pool3d.hpp"
#include "nn/residual.hpp"

namespace duo::nn {
namespace {

// Scalar objective: weighted sum of the module output, with fixed weights so
// the gradient is non-trivial in every coordinate.
Tensor loss_weights(const Tensor& out, Rng& rng) {
  return Tensor::uniform(out.shape(), -1.0f, 1.0f, rng);
}

double weighted_sum(const Tensor& out, const Tensor& weights) {
  return out.dot(weights);
}

// Checks d(weightsᵀ·f(x))/dx for module f at a random x.
void check_input_gradient(Module& module, const Tensor::Shape& in_shape,
                          double tolerance = 2e-2) {
  Rng rng(42);
  const Tensor x = Tensor::uniform(in_shape, -1.0f, 1.0f, rng);
  const Tensor out = module.forward(x);
  Rng wrng(7);
  const Tensor weights = loss_weights(out, wrng);

  const Tensor analytic = module.backward(weights);
  const Tensor numerical = numerical_gradient(
      [&](const Tensor& probe) {
        return weighted_sum(module.forward(probe), weights);
      },
      x);
  EXPECT_LT(gradient_max_relative_error(analytic, numerical), tolerance)
      << module.name();
}

// Checks parameter gradients for each parameter of the module.
void check_parameter_gradients(Module& module, const Tensor::Shape& in_shape,
                               double tolerance = 2e-2) {
  Rng rng(43);
  const Tensor x = Tensor::uniform(in_shape, -1.0f, 1.0f, rng);
  const Tensor out = module.forward(x);
  Rng wrng(8);
  const Tensor weights = loss_weights(out, wrng);

  module.zero_grad();
  (void)module.forward(x);
  (void)module.backward(weights);

  for (auto* param : module.parameters()) {
    const Tensor analytic = param->grad;
    const Tensor numerical = numerical_gradient(
        [&](const Tensor& probe) {
          const Tensor saved = param->value;
          param->value = probe;
          const double loss = weighted_sum(module.forward(x), weights);
          param->value = saved;
          return loss;
        },
        param->value);
    EXPECT_LT(gradient_max_relative_error(analytic, numerical), tolerance)
        << module.name() << " parameter of size " << param->size();
  }
}

TEST(Linear, InputGradientMatchesNumerical) {
  Rng rng(1);
  Linear layer(6, 4, rng);
  check_input_gradient(layer, {6});
}

TEST(Linear, ParameterGradientsMatchNumerical) {
  Rng rng(2);
  Linear layer(5, 3, rng);
  check_parameter_gradients(layer, {5});
}

TEST(Linear, RejectsWrongInputSize) {
  Rng rng(3);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({3})), std::logic_error);
}

TEST(ReLU, GradientMasksNegativeInputs) {
  ReLU relu;
  Tensor x({4}, std::vector<float>{-1.0f, 2.0f, -3.0f, 4.0f});
  (void)relu.forward(x);
  const Tensor g = relu.backward(Tensor::ones({4}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 1.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
  EXPECT_FLOAT_EQ(g[3], 1.0f);
}

TEST(Conv3d, InputGradientMatchesNumerical) {
  Rng rng(5);
  Conv3dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 3;
  spec.kernel = {3, 3, 3};
  spec.stride = {1, 1, 1};
  spec.padding = {1, 1, 1};
  Conv3d layer(spec, rng);
  check_input_gradient(layer, {2, 4, 5, 5});
}

TEST(Conv3d, ParameterGradientsMatchNumerical) {
  Rng rng(6);
  Conv3dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 2;
  spec.kernel = {2, 3, 3};
  spec.stride = {1, 2, 2};
  spec.padding = {0, 1, 1};
  Conv3d layer(spec, rng);
  check_parameter_gradients(layer, {2, 3, 5, 5});
}

TEST(Conv3d, StridedOutputShape) {
  Rng rng(7);
  Conv3dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 8;
  spec.kernel = {3, 3, 3};
  spec.stride = {1, 2, 2};
  spec.padding = {1, 1, 1};
  Conv3d layer(spec, rng);
  const auto out = layer.output_shape({3, 16, 24, 24});
  EXPECT_EQ(out, (Tensor::Shape{8, 16, 12, 12}));
}

TEST(Conv3d, TemporalKernelOneIsPerFrame2d) {
  // With kt = 1, perturbing frame t must not affect other output frames.
  Rng rng(8);
  Conv3dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  spec.kernel = {1, 3, 3};
  spec.stride = {1, 1, 1};
  spec.padding = {0, 1, 1};
  Conv3d layer(spec, rng);
  Tensor x = Tensor::uniform({1, 3, 4, 4}, -1.0f, 1.0f, rng);
  const Tensor base = layer.forward(x);
  x.at(0, 1, 2, 2) += 0.5f;  // perturb frame 1 only
  const Tensor bumped = layer.forward(x);
  for (std::int64_t h = 0; h < 4; ++h) {
    for (std::int64_t w = 0; w < 4; ++w) {
      EXPECT_FLOAT_EQ(base.at(0, 0, h, w), bumped.at(0, 0, h, w));
      EXPECT_FLOAT_EQ(base.at(0, 2, h, w), bumped.at(0, 2, h, w));
    }
  }
}

TEST(MaxPool3d, InputGradientMatchesNumerical) {
  MaxPool3d layer(std::array<std::int64_t, 3>{2, 2, 2});
  check_input_gradient(layer, {2, 4, 4, 4});
}

TEST(MaxPool3d, ForwardPicksWindowMax) {
  MaxPool3d layer(std::array<std::int64_t, 3>{1, 2, 2});
  Tensor x({1, 1, 2, 2}, std::vector<float>{1.0f, 5.0f, -2.0f, 3.0f});
  const Tensor out = layer.forward(x);
  EXPECT_EQ(out.size(), 1);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
}

TEST(AvgPool3d, InputGradientMatchesNumerical) {
  AvgPool3d layer(std::array<std::int64_t, 3>{2, 2, 2});
  check_input_gradient(layer, {2, 4, 4, 4});
}

TEST(AvgPool3d, ForwardAveragesWindow) {
  AvgPool3d layer(std::array<std::int64_t, 3>{1, 2, 2});
  Tensor x({1, 1, 2, 2}, std::vector<float>{1.0f, 2.0f, 3.0f, 6.0f});
  const Tensor out = layer.forward(x);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(GlobalAvgPool, InputGradientMatchesNumerical) {
  GlobalAvgPool layer;
  check_input_gradient(layer, {3, 2, 3, 3});
}

TEST(InstanceNorm3d, InputGradientMatchesNumerical) {
  InstanceNorm3d layer(2);
  check_input_gradient(layer, {2, 2, 3, 3}, 3e-2);
}

TEST(InstanceNorm3d, ParameterGradientsMatchNumerical) {
  InstanceNorm3d layer(2);
  check_parameter_gradients(layer, {2, 2, 3, 3}, 3e-2);
}

TEST(InstanceNorm3d, NormalizesPerChannel) {
  InstanceNorm3d layer(1);
  Rng rng(9);
  const Tensor x = Tensor::uniform({1, 2, 3, 3}, 5.0f, 9.0f, rng);
  const Tensor out = layer.forward(x);
  EXPECT_NEAR(out.mean(), 0.0, 1e-5);
  double var = 0.0;
  for (std::int64_t i = 0; i < out.size(); ++i) var += out[i] * out[i];
  var /= static_cast<double>(out.size());
  EXPECT_NEAR(var, 1.0, 1e-3);
}

TEST(Residual, IdentityShortcutGradient) {
  Rng rng(10);
  Conv3dSpec spec;
  spec.in_channels = 2;
  spec.out_channels = 2;
  spec.kernel = {1, 3, 3};
  spec.stride = {1, 1, 1};
  spec.padding = {0, 1, 1};
  Residual layer(std::make_unique<Conv3d>(spec, rng));
  check_input_gradient(layer, {2, 2, 4, 4});
}

TEST(Residual, ProjectionShortcutGradient) {
  Rng rng(11);
  Conv3dSpec body;
  body.in_channels = 2;
  body.out_channels = 3;
  body.kernel = {1, 3, 3};
  body.stride = {1, 1, 1};
  body.padding = {0, 1, 1};
  Conv3dSpec proj;
  proj.in_channels = 2;
  proj.out_channels = 3;
  proj.kernel = {1, 1, 1};
  proj.stride = {1, 1, 1};
  proj.padding = {0, 0, 0};
  Residual layer(std::make_unique<Conv3d>(body, rng),
                 std::make_unique<Conv3d>(proj, rng));
  check_input_gradient(layer, {2, 2, 4, 4});
  check_parameter_gradients(layer, {2, 2, 4, 4});
}

TEST(Parallel, ConcatenatesChannelsAndSplitsGradient) {
  Rng rng(12);
  auto parallel = std::make_unique<Parallel>();
  Conv3dSpec a;
  a.in_channels = 2;
  a.out_channels = 2;
  a.kernel = {1, 1, 1};
  a.stride = {1, 1, 1};
  a.padding = {0, 0, 0};
  Conv3dSpec b = a;
  b.out_channels = 3;
  parallel->add(std::make_unique<Conv3d>(a, rng));
  parallel->add(std::make_unique<Conv3d>(b, rng));
  const Tensor x = Tensor::uniform({2, 2, 3, 3}, -1.0f, 1.0f, rng);
  const Tensor out = parallel->forward(x);
  EXPECT_EQ(out.shape(), (Tensor::Shape{5, 2, 3, 3}));
  check_input_gradient(*parallel, {2, 2, 3, 3});
}

TEST(SpatialAvgPool, InputGradientMatchesNumerical) {
  SpatialAvgPool layer;
  check_input_gradient(layer, {3, 2, 3, 3});
}

TEST(SpatialAvgPool, OutputLayoutIsTimeMajor) {
  SpatialAvgPool layer;
  Tensor x({1, 2, 1, 2}, std::vector<float>{1.0f, 3.0f, 5.0f, 7.0f});
  const Tensor out = layer.forward(x);
  EXPECT_EQ(out.shape(), (Tensor::Shape{2, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 6.0f);
}

TEST(TemporalMean, InputGradientMatchesNumerical) {
  TemporalMean layer;
  check_input_gradient(layer, {4, 5});
}

TEST(Sequential, ComposesForwardAndBackward) {
  Rng rng(13);
  Sequential seq;
  seq.emplace<Linear>(4, 6, rng);
  seq.emplace<ReLU>();
  seq.emplace<Linear>(6, 2, rng);
  check_input_gradient(seq, {4});
  check_parameter_gradients(seq, {4});
  EXPECT_EQ(seq.child_count(), 3u);
  EXPECT_GT(seq.parameter_count(), 0);
}

}  // namespace
}  // namespace duo::nn
