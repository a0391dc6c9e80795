// Fixed-shape layer probes of the traced run. They run after the workload,
// outside every timed end-to-end window. GFLOP/s and bytes are computed from
// tensor sizes (2·m·k·n flops; A, B read once, C read and written once), not
// read from hardware counters.

#include <cstdio>
#include <functional>

#include "attack/lp_box_admm.hpp"
#include "common/rng.hpp"
#include "nn/conv3d.hpp"
#include "nn/gemm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Median wall time of `fn` in ms, over at least `min_reps` timed calls after
// two warm-up calls, continuing until `budget_s` of timed calls.
double median_ms(const std::function<void()>& fn, int min_reps = 20,
                 double budget_s = 0.05) {
  fn();
  fn();
  std::vector<double> ms;
  const double start = now_s();
  while (static_cast<int>(ms.size()) < min_reps || now_s() - start < budget_s) {
    const double t0 = now_s();
    fn();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

struct ConvShape {
  const char* name;
  std::int64_t cin, cout, k, s_hw, t, hw;  // kernel k^3 or 1, input [cin,t,hw,hw]
};

// Conv3d layers of MiniI3D / MiniC3D at the 8x16x16x3 geometry.
constexpr ConvShape kI3dConvs[] = {{"stem", 3, 8, 3, 2, 8, 16},
                                   {"b1x1", 8, 8, 1, 1, 8, 8},
                                   {"b3x3", 8, 12, 3, 1, 8, 8},
                                   {"conv3", 20, 24, 3, 1, 4, 4}};
constexpr ConvShape kC3dConvs[] = {{"conv1", 3, 8, 3, 1, 8, 16},
                                   {"conv2", 8, 16, 3, 1, 8, 8},
                                   {"conv3", 16, 24, 3, 1, 4, 4}};

// The im2col GEMM each of those convs runs: C[m x n] += A[m x k] · B[k x n].
struct GemmShape {
  std::int64_t m, k, n;
};
constexpr GemmShape kGemms[] = {{8, 81, 512},  {12, 216, 512}, {24, 540, 64},
                                {8, 81, 2048}, {16, 216, 512}, {24, 432, 64}};

struct ConvTimes {
  double fwd_ms = 0.0;
  double bwd_ms = 0.0;
};

ConvTimes time_conv(const ConvShape& c, bool backward, duo::Rng& rng) {
  duo::nn::Conv3dSpec spec;
  spec.in_channels = c.cin;
  spec.out_channels = c.cout;
  spec.kernel = {c.k, c.k, c.k};
  spec.stride = {1, c.s_hw, c.s_hw};
  const std::int64_t pad = c.k / 2;
  spec.padding = {pad, pad, pad};
  duo::nn::Conv3d conv(spec, rng);
  const duo::Tensor x =
      duo::Tensor::uniform({c.cin, c.t, c.hw, c.hw}, 0.0f, 1.0f, rng);
  ConvTimes t;
  duo::Tensor y;
  t.fwd_ms = median_ms([&] { y = conv.forward(x); });
  if (backward) {
    const duo::Tensor g = duo::Tensor::uniform(y.shape(), -1.0f, 1.0f, rng);
    t.bwd_ms = median_ms([&] { (void)conv.backward(g); });
  }
  return t;
}

}  // namespace

void probe_kernels(const RunContext& ctx, Report& report) {
  duo::Rng rng(ctx.seed ^ 0xC0DE);
  double i3d_conv_ms = 0.0;
  for (const auto& c : kI3dConvs) {
    const ConvTimes t = time_conv(c, false, rng);
    i3d_conv_ms += t.fwd_ms;
    report.add_layer(std::string("nn.conv_fwd_ms.i3d.") + c.name, t.fwd_ms,
                     "ms");
  }
  for (const auto& c : kC3dConvs) {
    const ConvTimes t = time_conv(c, true, rng);
    report.add_layer(std::string("nn.conv_fwd_ms.c3d.") + c.name, t.fwd_ms,
                     "ms");
    report.add_layer(std::string("nn.conv_bwd_ms.c3d.") + c.name, t.bwd_ms,
                     "ms");
  }
  for (const auto& g : kGemms) {
    std::vector<float> a(g.m * g.k), b(g.k * g.n), c(g.m * g.n, 0.0f);
    for (auto& v : a) v = rng.uniform_f(-1.0f, 1.0f);
    for (auto& v : b) v = rng.uniform_f(-1.0f, 1.0f);
    const double ms = median_ms(
        [&] { duo::nn::gemm_accumulate(g.m, g.k, g.n, a.data(), b.data(), c.data()); });
    const std::string shape = std::to_string(g.m) + "x" + std::to_string(g.k) +
                              "x" + std::to_string(g.n);
    const double flops = 2.0 * g.m * g.k * g.n;
    const double bytes = 4.0 * (g.m * g.k + g.k * g.n + 2.0 * g.m * g.n);
    report.add_layer("nn.gemm_gflops." + shape, flops / (ms * 1e6), "GFLOP/s");
    char note[96];
    std::snprintf(note, sizeof note, "%.0f flop, %.0f B per call (from sizes)",
                  flops, bytes);
    report.line("nn.gemm_ms." + shape, ms, "ms", note);
  }

  // models: victim extract_batch at batch 1/4/8 and clone(), on the
  // untraced reference victim (idle once the workload is done).
  auto& victim = ctx.reference->system->extractor();
  const auto& pool = ctx.reference->data.test;
  double b1_ms = 0.0;
  for (const std::size_t b : {1, 4, 8}) {
    const std::span<const duo::video::Video> batch(pool.data(), b);
    const double ms = median_ms([&] { (void)victim.extract_batch(batch); });
    if (b == 1) b1_ms = ms;
    report.add_layer("models.extract_ms_per_item.b" + std::to_string(b),
                     ms / static_cast<double>(b), "ms");
  }
  report.add_layer("models.clone_ms",
                   median_ms([&] { (void)victim.clone(); }), "ms");
  report.add_layer("nn.conv_share.i3d", i3d_conv_ms / b1_ms, "ratio");

  // retrieval: index scan alone, replaying served features.
  const auto features = ctx.reference->system->extract_features(pool);
  std::vector<double> us;
  for (int rep = 0; rep < 10; ++rep) {
    for (const auto& f : features) {
      const double t0 = now_s();
      (void)ctx.reference->system->retrieve_feature(f, kTopM);
      us.push_back((now_s() - t0) * 1e6);
    }
  }
  report.add_layer("retrieval.retrieve_feature_us_p50", median(us), "us");
  report.add_layer("retrieval.gallery_size",
                   static_cast<double>(ctx.reference->system->gallery_size()),
                   "count");

  // attack: lp-box ADMM at the transfer's score size (one value per video
  // element), with sparse_transfer's iteration count.
  const duo::Tensor scores =
      duo::Tensor::normal(kGeometry.tensor_shape(), 0.0f, 1.0f, rng);
  duo::attack::LpBoxAdmmConfig admm;
  admm.iterations = 15;
  report.add_layer(
      "attack.lp_box_admm_ms",
      median_ms([&] { (void)duo::attack::lp_box_admm_select(scores, 200, admm); }),
      "ms");

  report.add_layer(
      "video.to_model_input_us",
      median_ms([&] { (void)pool.front().to_model_input(); }, 200) * 1e3, "us");
}

}  // namespace perfbench
