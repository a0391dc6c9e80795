#include <gtest/gtest.h>

#include <stdexcept>

#include "tensor/tensor.hpp"

namespace duo {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (std::int64_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t[i], 2.5f);
}

TEST(Tensor, AdoptDataValidatesSize) {
  EXPECT_THROW(Tensor({2, 2}, std::vector<float>{1.0f}), std::logic_error);
  Tensor ok({2, 2}, std::vector<float>{1, 2, 3, 4});
  EXPECT_FLOAT_EQ(ok.at(1, 0), 3.0f);
}

TEST(Tensor, MultiIndexAccessRowMajor) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 9.0f;
  EXPECT_FLOAT_EQ(t[1 * 12 + 2 * 4 + 3], 9.0f);
}

TEST(Tensor, IndexOutOfRangeThrows) {
  Tensor t({2, 2});
  EXPECT_THROW(t.at(2, 0), std::logic_error);
  EXPECT_THROW((void)t[4], std::logic_error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped({3, 2});
  EXPECT_FLOAT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4}), std::logic_error);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  const Tensor sum = a + b;
  const Tensor diff = b - a;
  const Tensor prod = a * b;
  EXPECT_FLOAT_EQ(sum[2], 9.0f);
  EXPECT_FLOAT_EQ(diff[0], 3.0f);
  EXPECT_FLOAT_EQ(prod[1], 10.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, std::logic_error);
}

TEST(Tensor, ScalarOps) {
  Tensor a({2}, std::vector<float>{1, -2});
  const Tensor scaled = a * 3.0f;
  EXPECT_FLOAT_EQ(scaled[1], -6.0f);
  const Tensor negated = -a;
  EXPECT_FLOAT_EQ(negated[0], -1.0f);
  EXPECT_FLOAT_EQ((2.0f * a)[0], 2.0f);
}

TEST(Tensor, AxpyFusedUpdate) {
  Tensor a({2}, std::vector<float>{1, 2});
  Tensor b({2}, std::vector<float>{10, 20});
  a.axpy(0.5f, b);
  EXPECT_FLOAT_EQ(a[0], 6.0f);
  EXPECT_FLOAT_EQ(a[1], 12.0f);
}

TEST(Tensor, ClampBounds) {
  Tensor a({4}, std::vector<float>{-5, 0.5f, 2, 100});
  a.clamp_(0.0f, 1.0f);
  EXPECT_FLOAT_EQ(a[0], 0.0f);
  EXPECT_FLOAT_EQ(a[1], 0.5f);
  EXPECT_FLOAT_EQ(a[3], 1.0f);
}

TEST(Tensor, SignFunction) {
  Tensor a({3}, std::vector<float>{-2, 0, 7});
  const Tensor s = a.sign();
  EXPECT_FLOAT_EQ(s[0], -1.0f);
  EXPECT_FLOAT_EQ(s[1], 0.0f);
  EXPECT_FLOAT_EQ(s[2], 1.0f);
}

TEST(Tensor, Reductions) {
  Tensor a({4}, std::vector<float>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_FLOAT_EQ(a.max(), 4.0f);
  EXPECT_FLOAT_EQ(a.min(), 1.0f);
}

TEST(Tensor, DotProduct) {
  Tensor a({3}, std::vector<float>{1, 2, 3});
  Tensor b({3}, std::vector<float>{4, 5, 6});
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Tensor, Norms) {
  Tensor a({4}, std::vector<float>{0, -3, 4, 0});
  EXPECT_EQ(a.norm_l0(), 2);
  EXPECT_DOUBLE_EQ(a.norm_l1(), 7.0);
  EXPECT_DOUBLE_EQ(a.norm_l2(), 5.0);
  EXPECT_FLOAT_EQ(a.norm_linf(), 4.0f);
}

TEST(Tensor, NormL0WithEpsilon) {
  Tensor a({3}, std::vector<float>{1e-8f, 0.1f, -0.2f});
  EXPECT_EQ(a.norm_l0(1e-6f), 2);
}

TEST(Tensor, Transpose) {
  Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor t = a.transposed();
  EXPECT_EQ(t.shape(), (Tensor::Shape{3, 2}));
  EXPECT_FLOAT_EQ(t.at(2, 1), 6.0f);
}

TEST(Tensor, AllClose) {
  Tensor a({2}, std::vector<float>{1.0f, 2.0f});
  Tensor b({2}, std::vector<float>{1.0f + 1e-6f, 2.0f});
  EXPECT_TRUE(a.allclose(b));
  Tensor c({2}, std::vector<float>{1.1f, 2.0f});
  EXPECT_FALSE(a.allclose(c));
  EXPECT_FALSE(a.allclose(Tensor({3})));
}

TEST(Tensor, RandomFactoriesRespectBounds) {
  Rng rng(3);
  const Tensor u = Tensor::uniform({100}, -2.0f, 3.0f, rng);
  EXPECT_GE(u.min(), -2.0f);
  EXPECT_LT(u.max(), 3.0f);
  const Tensor n = Tensor::normal({1000}, 1.0f, 0.5f, rng);
  EXPECT_NEAR(n.mean(), 1.0, 0.1);
}

TEST(Tensor, ShapeString) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.shape_string(), "[2, 3, 4]");
}

TEST(Tensor, NegativeDimensionThrows) {
  EXPECT_THROW(Tensor({-1, 2}), std::logic_error);
}

}  // namespace
}  // namespace duo
