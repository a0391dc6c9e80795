// InstanceNorm3d, MaxPool3d and DataNode::query against the plain loops in
// serve_path_reference.hpp. The library kernels advance independent chains
// side by side (channels, rows) or select without a branch; every output,
// argmax and gradient must still match the one-chain loops bitwise.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/norm.hpp"
#include "nn/pool3d.hpp"
#include "retrieval/index.hpp"
#include "serve_path_reference.hpp"

namespace duo {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

void expect_bitwise_equal(const Tensor& expected, const Tensor& actual,
                          const std::string& what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(expected[i]),
              std::bit_cast<std::uint32_t>(actual[i]))
        << what << " diverges at flat index " << i << ": " << expected[i]
        << " vs " << actual[i];
  }
}

// ---------------------------------------------------------------------------
// InstanceNorm3d
// ---------------------------------------------------------------------------

// [C, T, H, W] with T·H·W == spatial, for the sweep's spatial sizes.
Tensor::Shape norm_shape(std::int64_t channels, std::int64_t spatial) {
  switch (spatial) {
    case 2: return {channels, 1, 1, 2};
    case 3: return {channels, 1, 3, 1};
    case 64: return {channels, 4, 4, 4};
    default: return {channels, spatial / 64, 8, 8};
  }
}

// Signed values whose exponents spread over 2^-8..2^8. Their squared
// differences need more than a double's 53 bits, so the flat scan's
// distance chains round, and a reordered chain rounds differently.
Tensor spread_values(const Tensor::Shape& shape, Rng& rng) {
  Tensor x = Tensor::uniform(shape, -1.0f, 1.0f, rng);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = std::ldexp(x[i], rng.uniform_int(-8, 8));
  }
  return x;
}

// Spread values around a per-channel offset, so every channel's mean and
// variance differ and the centring step matters.
Tensor offset_input(const Tensor::Shape& shape, Rng& rng) {
  Tensor x = spread_values(shape, rng);
  const std::int64_t spatial = x.size() / shape[0];
  for (std::int64_t c = 0; c < shape[0]; ++c) {
    const float offset = rng.uniform_f(-3.0f, 3.0f);
    for (std::int64_t i = 0; i < spatial; ++i) x[c * spatial + i] += offset;
  }
  return x;
}

// A fresh InstanceNorm3d has gamma 1 and beta 0, which would hide where the
// affine transform enters, so the oracle tests draw both.
void randomize_affine(nn::InstanceNorm3d& norm, Rng& rng) {
  for (nn::Parameter* p : norm.parameters()) {
    p->value = Tensor::uniform(p->value.shape(), -2.0f, 2.0f, rng);
  }
}

// Forward, then a backward that reads the cached x-hat and inverse std,
// through the layer and the oracle; every output must match bitwise.
void expect_norm_step_matches(nn::InstanceNorm3d& norm,
                              nn::ReferenceInstanceNorm3d& reference,
                              const Tensor& x, Rng& rng,
                              const std::string& what) {
  expect_bitwise_equal(reference.forward(x), norm.forward(x),
                       what + " forward");
  const Tensor gy = Tensor::uniform(x.shape(), -1.0f, 1.0f, rng);
  expect_bitwise_equal(reference.backward(gy), norm.backward(gy),
                       what + " input grad");
  expect_bitwise_equal(reference.gamma_grad(), norm.parameters()[0]->grad,
                       what + " gamma grad");
  expect_bitwise_equal(reference.beta_grad(), norm.parameters()[1]->grad,
                       what + " beta grad");
}

TEST(InstanceNormOracle, MatchesOnEveryChannelCountAndSpatialSize) {
  for (std::int64_t channels = 1; channels <= 25; ++channels) {
    for (const std::int64_t spatial : {2, 3, 64, 512}) {
      const std::string what = std::to_string(channels) + " channels x " +
                               std::to_string(spatial);
      Rng rng(static_cast<std::uint64_t>(channels * 1000 + spatial));
      nn::InstanceNorm3d norm(channels);
      randomize_affine(norm, rng);
      nn::ReferenceInstanceNorm3d reference(norm);
      const Tensor x = offset_input(norm_shape(channels, spatial), rng);
      expect_norm_step_matches(norm, reference, x, rng, what);
    }
  }
}

// The layer keeps its x-hat buffer while the input shape is unchanged and
// replaces it when the shape changes; parameter grads accumulate across
// backward calls. Both must track the oracle, which reallocates every time.
TEST(InstanceNormOracle, ReusedCacheMatchesAcrossShapeChanges) {
  Rng rng(77);
  nn::InstanceNorm3d norm(12);
  randomize_affine(norm, rng);
  nn::ReferenceInstanceNorm3d reference(norm);
  const std::int64_t spatials[] = {512, 512, 64, 64, 3, 512};
  for (std::size_t s = 0; s < std::size(spatials); ++s) {
    const Tensor x = offset_input(norm_shape(12, spatials[s]), rng);
    expect_norm_step_matches(norm, reference, x, rng,
                             "step " + std::to_string(s));
  }
}

// The double sums of offset_input's floats are exact, so every summation
// order gives the same mean and the sweep above cannot see the order of the
// mean chain. Here each channel also holds a cancelling pair +B, -B (B near
// 2^42) at random positions: between the two, the running sum sits near B
// and every add rounds, so a reordered chain ends at a mean that differs in
// float. The pair also inflates the variance until the other elements
// normalize to almost zero, so beta is zero here, or adding it would round
// their difference away. (The variance is a sum of squares, which never
// cancels; its double rounding almost never reaches the float result.)
TEST(InstanceNormOracle, MeanChainOrderShowsInTheOutput) {
  for (std::int64_t channels = 1; channels <= 9; ++channels) {
    for (const std::int64_t spatial : {64, 512}) {
      Rng rng(static_cast<std::uint64_t>(channels * 7 + spatial));
      nn::InstanceNorm3d norm(channels);
      randomize_affine(norm, rng);
      norm.parameters()[1]->value = Tensor({channels});
      nn::ReferenceInstanceNorm3d reference(norm);
      Tensor x = offset_input(norm_shape(channels, spatial), rng);
      for (std::int64_t c = 0; c < channels; ++c) {
        const auto plus = static_cast<std::int64_t>(
            rng.uniform_index(static_cast<std::uint64_t>(spatial / 2)));
        const auto minus = spatial / 2 + plus;
        const float big = std::ldexp(rng.uniform_f(1.0f, 2.0f), 42);
        x[c * spatial + plus] = big;
        x[c * spatial + minus] = -big;
      }
      expect_norm_step_matches(norm, reference, x, rng,
                               std::to_string(channels) + " channels x " +
                                   std::to_string(spatial));
    }
  }
}

// A NaN or infinity poisons its own channel's statistics only; the
// poisoned and clean channels must both match.
TEST(InstanceNormOracle, NonFiniteInputsMatch) {
  for (const std::int64_t channels : {5, 9}) {
    Rng rng(static_cast<std::uint64_t>(channels));
    nn::InstanceNorm3d norm(channels);
    randomize_affine(norm, rng);
    nn::ReferenceInstanceNorm3d reference(norm);
    Tensor x = offset_input(norm_shape(channels, 64), rng);
    x[0 * 64 + 17] = kNaN;
    x[3 * 64 + 0] = kInf;
    x[(channels - 1) * 64 + 63] = -kInf;
    expect_norm_step_matches(norm, reference, x, rng,
                             std::to_string(channels) + " channels");
  }
}

// ---------------------------------------------------------------------------
// MaxPool3d
// ---------------------------------------------------------------------------

struct PoolCase {
  std::array<std::int64_t, 3> kernel;
  std::array<std::int64_t, 3> stride;
  Tensor::Shape in;
};

// Forward values and the backward scatter, which reads every argmax.
void expect_pool_matches(const PoolCase& pc, const Tensor& x, Rng& rng,
                         const std::string& what) {
  nn::MaxPool3d pool(pc.kernel, pc.stride);
  nn::ReferenceMaxPool3d reference(pc.kernel, pc.stride);
  const Tensor expected = reference.forward(x);
  expect_bitwise_equal(expected, pool.forward(x), what + " forward");
  const Tensor gy = Tensor::uniform(expected.shape(), 0.5f, 1.5f, rng);
  expect_bitwise_equal(reference.backward(gy), pool.backward(gy),
                       what + " backward");
}

// Values from a small alphabet, so windows hold ties, both zeros, NaNs and
// infinities in every position.
Tensor alphabet_input(const Tensor::Shape& shape, Rng& rng) {
  const float alphabet[] = {-1.0f, -0.0f, 0.0f, 1.0f, 2.0f, kNaN, -kInf, kInf};
  Tensor x(shape);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = alphabet[rng.uniform_index(std::size(alphabet))];
  }
  return x;
}

const std::vector<PoolCase>& pool_cases() {
  static const std::vector<PoolCase> cases = {
      // Every pool make_extractor builds at the 8x16x16x3 geometry: MiniC3D
      // after conv1 and conv2, MiniI3D after its branches.
      {{1, 2, 2}, {1, 2, 2}, {8, 8, 16, 16}},
      {{2, 2, 2}, {2, 2, 2}, {16, 8, 8, 8}},
      {{2, 2, 2}, {2, 2, 2}, {20, 8, 8, 8}},
      // Overlapping windows, strides above the kernel, a kernel of 1 on one
      // axis, a window covering the whole input, odd extents with a
      // remainder the windows never reach.
      {{3, 3, 3}, {1, 2, 2}, {2, 5, 7, 7}},
      {{2, 3, 3}, {2, 1, 1}, {3, 4, 6, 5}},
      {{1, 2, 2}, {2, 3, 3}, {2, 5, 8, 9}},
      {{3, 1, 2}, {1, 1, 2}, {2, 4, 3, 7}},
      {{2, 4, 4}, {1, 1, 1}, {2, 2, 4, 4}},
      {{2, 2, 2}, {2, 2, 2}, {3, 5, 7, 9}},
      {{1, 1, 1}, {1, 1, 1}, {2, 3, 3, 3}},
      // Seven overlapping windows per row: a vector group and a tail.
      {{1, 2, 3}, {1, 1, 1}, {2, 3, 4, 9}},
  };
  return cases;
}

TEST(MaxPoolOracle, MatchesOnEveryExtractorGeometryAndEdgeShape) {
  for (std::size_t c = 0; c < pool_cases().size(); ++c) {
    Rng rng(100 + c);
    const PoolCase& pc = pool_cases()[c];
    expect_pool_matches(pc, Tensor::uniform(pc.in, -1.0f, 1.0f, rng), rng,
                        "case " + std::to_string(c) + " signed");
    expect_pool_matches(pc, alphabet_input(pc.in, rng), rng,
                        "case " + std::to_string(c) + " alphabet");
  }
}

// One row of 4-wide windows: the first strict maximum wins a tie, a leading
// NaN stays, a later NaN is never taken, and neither zero displaces the
// other. Checked against fixed expectations as well as the oracle.
TEST(MaxPoolOracle, TiesSignedZerosAndNaNsPickTheSameTap) {
  const std::vector<std::array<float, 4>> windows = {
      {kNaN, 1.0f, 2.0f, 3.0f},   {1.0f, kNaN, 2.0f, 0.0f},
      {-0.0f, 0.0f, -0.0f, 0.0f}, {0.0f, -0.0f, 0.0f, -0.0f},
      {1.0f, 3.0f, 3.0f, 2.0f},   {-kInf, -kInf, -kInf, -kInf},
      {kNaN, kNaN, kNaN, kNaN},   {-1.0f, -kInf, kNaN, -0.5f},
  };
  const std::int64_t expected_tap[] = {0, 2, 0, 0, 1, 0, 0, 3};
  Tensor x({1, 1, 1, static_cast<std::int64_t>(4 * windows.size())});
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (std::size_t t = 0; t < 4; ++t) x[4 * w + t] = windows[w][t];
  }
  nn::MaxPool3d pool({1, 1, 4});
  nn::ReferenceMaxPool3d reference({1, 1, 4}, {1, 1, 4});
  const Tensor y = pool.forward(x);
  expect_bitwise_equal(reference.forward(x), y, "forward");
  Tensor gy(y.shape());
  for (std::int64_t i = 0; i < gy.size(); ++i) gy[i] = static_cast<float>(i + 1);
  const Tensor gx = pool.backward(gy);
  expect_bitwise_equal(reference.backward(gy), gx, "backward");
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto at = static_cast<std::int64_t>(4 * w) + expected_tap[w];
    EXPECT_EQ(reference.argmax()[w], at) << "window " << w;
    EXPECT_EQ(gx[at], static_cast<float>(w + 1)) << "window " << w;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[static_cast<std::int64_t>(w)]),
              std::bit_cast<std::uint32_t>(x[at]))
        << "window " << w;
  }
}

// ---------------------------------------------------------------------------
// DataNode::query
// ---------------------------------------------------------------------------

void expect_same_neighbors(const std::vector<retrieval::Neighbor>& expected,
                           const std::vector<retrieval::Neighbor>& actual,
                           const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].id, actual[i].id) << what << " rank " << i;
    ASSERT_EQ(expected[i].label, actual[i].label) << what << " rank " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(expected[i].distance_sq),
              std::bit_cast<std::uint64_t>(actual[i].distance_sq))
        << what << " rank " << i;
  }
}

// A node of `rows` random rows (ids shuffled against row order), queried for
// every row and for a short top-m.
void expect_node_matches(std::size_t rows, std::int64_t dim, bool nan_rows,
                         Rng& rng) {
  const std::string what =
      std::to_string(rows) + " rows x " + std::to_string(dim) +
      (nan_rows ? " with NaN features" : "");
  retrieval::DataNode node(dim);
  for (std::size_t r = 0; r < rows; ++r) {
    retrieval::GalleryEntry e;
    e.id = static_cast<std::int64_t>((r * 7919) % 100003);
    e.label = static_cast<int>(r % 5);
    e.feature = spread_values({dim}, rng);
    if (nan_rows && r % 3 == 1) {
      e.feature[static_cast<std::int64_t>(rng.uniform_index(
          static_cast<std::uint64_t>(dim)))] = kNaN;
    }
    node.add(e);
  }
  const Tensor q = spread_values({dim}, rng);
  expect_same_neighbors(retrieval::reference_node_query(node, q, rows),
                        node.query(q, rows), what + ", every row");
  expect_same_neighbors(retrieval::reference_node_query(node, q, 5),
                        node.query(q, 5), what + ", top 5");
}

TEST(FlatScanOracle, MatchesOnEveryRowCountAndDim) {
  std::vector<std::size_t> row_counts;
  for (std::size_t r = 0; r <= 17; ++r) row_counts.push_back(r);
  row_counts.push_back(250);
  row_counts.push_back(1003);
  for (const std::size_t rows : row_counts) {
    for (const std::int64_t dim : {1, 3, 16, 17}) {
      Rng rng(rows * 100 + static_cast<std::uint64_t>(dim));
      expect_node_matches(rows, dim, /*nan_rows=*/false, rng);
    }
  }
}

TEST(FlatScanOracle, NaNFeaturesMatch) {
  for (const std::size_t rows : {std::size_t{9}, std::size_t{250}}) {
    for (const std::int64_t dim : {1, 16, 17}) {
      Rng rng(rows + static_cast<std::uint64_t>(dim));
      expect_node_matches(rows, dim, /*nan_rows=*/true, rng);
    }
  }
}

}  // namespace
}  // namespace duo
