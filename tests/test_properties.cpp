// Parameterized property sweeps (TEST_P) over the library's invariants:
// conv/pool shape algebra and gradients across geometries, mask-budget
// invariants across (k, n) combinations, selector budget invariants, metric
// identities, and codec round-trips across geometries.

#include <gtest/gtest.h>

#include <tuple>

#include "attack/lp_box_admm.hpp"
#include "attack/perturbation.hpp"
#include "baselines/vanilla.hpp"
#include "metrics/metrics.hpp"
#include "nn/conv3d.hpp"
#include "nn/gradcheck.hpp"
#include "nn/pool3d.hpp"
#include "video/codec.hpp"
#include "video/frame_sampler.hpp"
#include "video/synthetic.hpp"

namespace duo {
namespace {

// ---------- Conv3d shape/gradient sweep -------------------------------------

struct ConvCase {
  std::int64_t cin, cout;
  std::array<std::int64_t, 3> kernel, stride, padding;
  Tensor::Shape input;  // [C, T, H, W]
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, ForwardBackwardShapesAgree) {
  const ConvCase& c = GetParam();
  Rng rng(11);
  nn::Conv3dSpec spec;
  spec.in_channels = c.cin;
  spec.out_channels = c.cout;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  nn::Conv3d layer(spec, rng);

  const Tensor x = Tensor::uniform(c.input, -1.0f, 1.0f, rng);
  const Tensor y = layer.forward(x);
  EXPECT_EQ(y.shape(), layer.output_shape(c.input));
  const Tensor gx = layer.backward(Tensor::ones(y.shape()));
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST_P(ConvSweep, GradientMatchesNumerical) {
  const ConvCase& c = GetParam();
  Rng rng(12);
  nn::Conv3dSpec spec;
  spec.in_channels = c.cin;
  spec.out_channels = c.cout;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  nn::Conv3d layer(spec, rng);

  const Tensor x = Tensor::uniform(c.input, -1.0f, 1.0f, rng);
  const Tensor y = layer.forward(x);
  Rng wrng(13);
  const Tensor w = Tensor::uniform(y.shape(), -1.0f, 1.0f, wrng);
  const Tensor analytic = layer.backward(w);
  const Tensor numerical = nn::numerical_gradient(
      [&](const Tensor& probe) { return layer.forward(probe).dot(w); }, x);
  EXPECT_LT(nn::gradient_max_relative_error(analytic, numerical), 3e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweep,
    ::testing::Values(
        ConvCase{1, 1, {1, 1, 1}, {1, 1, 1}, {0, 0, 0}, {1, 2, 3, 3}},
        ConvCase{2, 3, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}, {2, 3, 4, 4}},
        ConvCase{3, 2, {1, 3, 3}, {1, 2, 2}, {0, 1, 1}, {3, 2, 5, 5}},
        ConvCase{2, 2, {2, 2, 2}, {2, 2, 2}, {0, 0, 0}, {2, 4, 4, 4}},
        ConvCase{1, 4, {3, 1, 1}, {1, 1, 1}, {1, 0, 0}, {1, 5, 2, 2}}));

// ---------- Perturbation budget sweep ----------------------------------------

class BudgetSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(BudgetSweep, MaskBudgetsAlwaysHold) {
  const auto [k, n] = GetParam();
  video::VideoGeometry g{8, 12, 12, 3};
  Rng rng(17 + static_cast<std::uint64_t>(k * 131 + n));
  attack::Perturbation p = baselines::random_support(g, k, n, rng);

  EXPECT_LE(p.selected_frames(), n);
  EXPECT_LE(p.selected_pixels(), k);
  const Tensor support = p.pixel_mask() * p.frame_mask();
  EXPECT_EQ(support.norm_l0(), p.selected_pixels());

  // Effective perturbation after magnitudes + quantization never exceeds k
  // elements or n frames.
  p.magnitude() = Tensor::uniform(g.tensor_shape(), -30.0f, 30.0f, rng);
  video::Video v(g, 0, 0);
  v.data().fill(128.0f);
  const Tensor eff = p.effective_perturbation(v);
  EXPECT_LE(metrics::sparsity(eff), k);
  EXPECT_LE(metrics::perturbed_frames(eff, g.elements_per_frame()), n);
}

INSTANTIATE_TEST_SUITE_P(
    KAndN, BudgetSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 16, 100, 400),
                       ::testing::Values<std::int64_t>(1, 2, 4, 8)));

// ---------- Selector budget sweep --------------------------------------------

class SelectorSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(SelectorSweep, BothSelectorsHitExactBudget) {
  const std::int64_t k = GetParam();
  Rng rng(23);
  const Tensor scores = Tensor::uniform({512}, -1.0f, 1.0f, rng);
  EXPECT_EQ(attack::topk_select(scores, k).norm_l0(), std::min<std::int64_t>(k, 512));
  EXPECT_EQ(attack::lp_box_admm_select(scores, k, attack::LpBoxAdmmConfig{})
                .norm_l0(),
            std::min<std::int64_t>(k, 512));
}

TEST_P(SelectorSweep, SelectedScoresAreNotWorseThanRejected) {
  // For plain top-k: the worst selected score must be ≤ the best rejected
  // score (we select the most negative).
  const std::int64_t k = GetParam();
  if (k >= 512) return;
  Rng rng(29);
  const Tensor scores = Tensor::uniform({512}, -1.0f, 1.0f, rng);
  const Tensor mask = attack::topk_select(scores, k);
  float worst_selected = -2.0f, best_rejected = 2.0f;
  for (std::int64_t i = 0; i < scores.size(); ++i) {
    if (mask[i] > 0.5f) {
      worst_selected = std::max(worst_selected, scores[i]);
    } else {
      best_rejected = std::min(best_rejected, scores[i]);
    }
  }
  EXPECT_LE(worst_selected, best_rejected);
}

INSTANTIATE_TEST_SUITE_P(Budgets, SelectorSweep,
                         ::testing::Values<std::int64_t>(0, 1, 7, 64, 511,
                                                         512, 1000));

// ---------- Metric identities across list sizes ------------------------------

class ListSweep : public ::testing::TestWithParam<int> {};

TEST_P(ListSweep, NdcgSelfSimilarityIsOne) {
  metrics::RetrievalList list;
  for (int i = 0; i < GetParam(); ++i) list.push_back(i * 7 + 3);
  EXPECT_NEAR(metrics::ndcg_similarity(list, list), 1.0, 1e-9);
}

TEST_P(ListSweep, ApAtMSelfIsOneAndSymmetricZeroForDisjoint) {
  metrics::RetrievalList a, b;
  for (int i = 0; i < GetParam(); ++i) {
    a.push_back(i);
    b.push_back(i + 100000);
  }
  EXPECT_DOUBLE_EQ(metrics::ap_at_m(a, a), 1.0);
  EXPECT_DOUBLE_EQ(metrics::ap_at_m(a, b), 0.0);
  EXPECT_DOUBLE_EQ(metrics::ap_at_m(b, a), 0.0);
}

TEST_P(ListSweep, NdcgIsSymmetricForEqualLengthLists) {
  // H discounts by both ranks, so it is symmetric whenever the two lists
  // have the same length (the normalizer depends only on that length).
  Rng rng(31 + static_cast<std::uint64_t>(GetParam()));
  metrics::RetrievalList a, b;
  for (int i = 0; i < GetParam(); ++i) {
    a.push_back(static_cast<std::int64_t>(rng.uniform_index(1000)) * 3);
    b.push_back(static_cast<std::int64_t>(rng.uniform_index(1000)) * 3 + 1);
  }
  // Deduplicate, then truncate both to a common length.
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  const std::size_t len = std::min(a.size(), b.size());
  if (len == 0) return;
  a.resize(len);
  b.resize(len);
  // Plant a few shared items so the similarity is non-trivial.
  for (std::size_t i = 0; i < len; i += 3) b[i] = a[i];
  EXPECT_NEAR(metrics::ndcg_similarity(a, b), metrics::ndcg_similarity(b, a),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ListSweep, ::testing::Values(1, 2, 5, 10, 50));

// ---------- Codec round-trip across geometries --------------------------------

class CodecSweep : public ::testing::TestWithParam<video::VideoGeometry> {};

TEST_P(CodecSweep, RoundTripsAnyGeometry) {
  const video::VideoGeometry g = GetParam();
  video::Video v(g, 3, 77);
  Rng rng(37);
  for (auto& x : v.data().flat()) {
    x = std::round(rng.uniform_f(0.0f, 255.0f));
  }
  // One file per geometry: ctest runs the instances in parallel processes.
  const std::string path = ::testing::TempDir() + "duo_prop_codec_" +
                           std::to_string(g.frames) + "x" +
                           std::to_string(g.width) + "x" +
                           std::to_string(g.height) + "x" +
                           std::to_string(g.channels) + ".duov";
  ASSERT_TRUE(video::save_video(v, path));
  const auto loaded = video::load_video(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->geometry(), g);
  EXPECT_TRUE(loaded->data().allclose(v.data(), 0.51f));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CodecSweep,
    ::testing::Values(video::VideoGeometry{1, 1, 1, 1},
                      video::VideoGeometry{4, 8, 6, 3},
                      video::VideoGeometry{16, 24, 24, 3},
                      video::VideoGeometry{2, 32, 16, 1}));

// ---------- Frame sampler sweep -----------------------------------------------

class SamplerSweep
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(SamplerSweep, IndicesMonotoneAndInRange) {
  const auto [total, target] = GetParam();
  const auto idx = video::uniform_sample_indices(total, target);
  ASSERT_EQ(idx.size(), static_cast<std::size_t>(target));
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_GE(idx[i], 0);
    EXPECT_LT(idx[i], total);
    if (i > 0) {
      EXPECT_GE(idx[i], idx[i - 1]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Counts, SamplerSweep,
    ::testing::Combine(::testing::Values<std::int64_t>(16, 17, 100, 1000),
                       ::testing::Values<std::int64_t>(1, 8, 16)));

}  // namespace
}  // namespace duo
