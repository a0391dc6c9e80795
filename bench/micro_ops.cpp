// Microbenchmarks (google-benchmark) for the hot paths underneath the
// experiment harnesses: tensor algebra, convolution, model forward/backward,
// retrieval queries, the ranking-similarity metric, and the two pixel
// selectors (ADMM vs plain top-k — the DESIGN.md §5 ablation).

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <string_view>
#include <vector>

#include "attack/lp_box_admm.hpp"
#include "attack/surrogate.hpp"
#include "common/thread_pool.hpp"
#include "metrics/metrics.hpp"
#include "models/feature_extractor.hpp"
#include "nn/conv3d.hpp"
#include "retrieval/index.hpp"
#include "video/synthetic.hpp"

namespace {

using namespace duo;

// Pins the compute pool to the benchmark's thread-count argument for the
// serial-vs-parallel comparisons below (Arg(1) = serial baseline).
class ComputePoolGuard {
 public:
  explicit ComputePoolGuard(std::size_t threads) : pool_(threads) {
    set_compute_pool(&pool_);
  }
  ~ComputePoolGuard() { set_compute_pool(nullptr); }

 private:
  ThreadPool pool_;
};

void BM_TensorAxpy(benchmark::State& state) {
  Rng rng(1);
  Tensor a = Tensor::uniform({state.range(0)}, -1.0f, 1.0f, rng);
  const Tensor b = Tensor::uniform({state.range(0)}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    a.axpy(0.5f, b);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TensorAxpy)->Arg(1 << 12)->Arg(1 << 16);

// Conv3d forward at a paper-relevant size, sharded over the given number of
// threads (first arg = pool size; 0 = hardware concurrency) and running the
// given kernel (second arg: 0 = direct reference loops, 1 = im2col/GEMM).
// Outputs are bitwise identical across thread counts and across the two
// kernels, so the only observable difference is time.
nn::Conv3dSpec conv_bench_spec(std::int64_t kernel_arg) {
  nn::Conv3dSpec spec;
  spec.in_channels = 8;
  spec.out_channels = 16;
  spec.kernel_impl =
      kernel_arg == 0 ? nn::Conv3dKernel::kDirect : nn::Conv3dKernel::kGemm;
  return spec;
}

void BM_Conv3dForward(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(0)));
  Rng rng(21);
  nn::Conv3d conv(conv_bench_spec(state.range(1)), rng);
  const Tensor input = Tensor::uniform({8, 8, 28, 28}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(input));
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_Conv3dForward)
    ->ArgNames({"threads", "gemm"})
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({0, 1});

void BM_Conv3dBackward(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(0)));
  Rng rng(22);
  nn::Conv3d conv(conv_bench_spec(state.range(1)), rng);
  const Tensor input = Tensor::uniform({8, 8, 28, 28}, -1.0f, 1.0f, rng);
  const Tensor out = conv.forward(input);
  const Tensor grad = Tensor::uniform(out.shape(), -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(grad));
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_Conv3dBackward)
    ->ArgNames({"threads", "gemm"})
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({8, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({0, 1});

// Whole-extractor forward pass (the victim-query hot path) at 1..N threads.
void BM_ExtractThreads(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(0)));
  const video::VideoGeometry g{8, 16, 16, 3};
  Rng rng(23);
  auto model = models::make_extractor(models::ModelKind::kC3D, g, 16, rng);
  model->set_training(false);
  auto spec = video::DatasetSpec::hmdb51_like(3);
  spec.geometry = g;
  const video::Video v = video::SyntheticGenerator(spec).make_video(0, 0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->extract(v));
  }
}
BENCHMARK(BM_ExtractThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(0);

void BM_ModelExtract(benchmark::State& state) {
  const video::VideoGeometry g{8, 16, 16, 3};
  Rng rng(3);
  auto model = models::make_extractor(
      static_cast<models::ModelKind>(state.range(0)), g, 16, rng);
  model->set_training(false);
  auto spec = video::DatasetSpec::hmdb51_like(3);
  spec.geometry = g;
  const video::Video v = video::SyntheticGenerator(spec).make_video(0, 0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->extract(v));
  }
}
BENCHMARK(BM_ModelExtract)
    ->Arg(static_cast<int>(models::ModelKind::kC3D))
    ->Arg(static_cast<int>(models::ModelKind::kI3D))
    ->Arg(static_cast<int>(models::ModelKind::kTPN))
    ->Arg(static_cast<int>(models::ModelKind::kSlowFast))
    ->Arg(static_cast<int>(models::ModelKind::kResNet34));

void BM_ModelBackwardToInput(benchmark::State& state) {
  const video::VideoGeometry g{8, 16, 16, 3};
  Rng rng(4);
  auto model = models::make_extractor(models::ModelKind::kC3D, g, 16, rng);
  model->set_training(false);
  auto spec = video::DatasetSpec::hmdb51_like(4);
  spec.geometry = g;
  const video::Video v = video::SyntheticGenerator(spec).make_video(0, 0, 8);
  const Tensor grad = Tensor::ones({16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->extract(v));
    benchmark::DoNotOptimize(model->backward_to_input(grad));
  }
}
BENCHMARK(BM_ModelBackwardToInput);

// Data-parallel surrogate training (SparseTransfer Alg. 1 step 1) at 1..N
// threads, default SurrogateTrainConfig (batch accumulated across replica
// groups). Results are bitwise identical across thread counts, so time is
// the only observable difference.
void BM_TrainSurrogateThreads(benchmark::State& state) {
  ComputePoolGuard guard(static_cast<std::size_t>(state.range(0)));
  const video::VideoGeometry g{8, 16, 16, 3};
  auto spec = video::DatasetSpec::hmdb51_like(3);
  spec.geometry = g;
  video::SyntheticGenerator gen(spec);
  attack::VideoStore store;
  std::vector<std::int64_t> ids;
  attack::SurrogateDataset ds;
  for (int i = 0; i < 16; ++i) {
    const video::Video v = gen.make_video(i % 4, i, 500 + i);
    store.add(v);
    ids.push_back(v.id());
    ds.video_ids.push_back(v.id());
  }
  Rng trng(11);
  for (int i = 0; i < 128; ++i) {
    const std::int64_t a = ids[trng.uniform_index(ids.size())];
    std::int64_t c = ids[trng.uniform_index(ids.size())];
    while (c == a) c = ids[trng.uniform_index(ids.size())];
    std::int64_t f = ids[trng.uniform_index(ids.size())];
    while (f == a || f == c) f = ids[trng.uniform_index(ids.size())];
    ds.triplets.push_back({a, c, f});
  }
  Rng mrng(12);
  auto model = models::make_extractor(models::ModelKind::kC3D, g, 16, mrng);
  attack::SurrogateTrainConfig cfg;  // default batch_size: the paper config
  cfg.epochs = 1;
  cfg.triplets_per_epoch = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::train_surrogate(*model, ds, store, cfg));
  }
  state.SetItemsProcessed(state.iterations() * cfg.triplets_per_epoch);
}
BENCHMARK(BM_TrainSurrogateThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

void BM_RetrievalQuery(benchmark::State& state) {
  const std::int64_t dim = 32;
  retrieval::RetrievalIndex index(dim, static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    retrieval::GalleryEntry e;
    e.id = i;
    e.label = i % 50;
    e.feature = Tensor::uniform({dim}, -1.0f, 1.0f, rng);
    index.add(e);
  }
  const Tensor q = Tensor::uniform({dim}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.query(q, 10));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_RetrievalQuery)->Arg(1)->Arg(4)->Arg(16);

void BM_NdcgSimilarity(benchmark::State& state) {
  metrics::RetrievalList a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(i);
    b.push_back(state.range(0) - i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::ndcg_similarity(a, b));
  }
}
BENCHMARK(BM_NdcgSimilarity)->Arg(10)->Arg(100);

void BM_PixelSelect_Admm(benchmark::State& state) {
  Rng rng(6);
  const Tensor scores =
      Tensor::uniform({state.range(0)}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attack::lp_box_admm_select(scores, state.range(0) / 16,
                                   attack::LpBoxAdmmConfig{}));
  }
}
BENCHMARK(BM_PixelSelect_Admm)->Arg(1 << 12)->Arg(1 << 15);

void BM_PixelSelect_Topk(benchmark::State& state) {
  Rng rng(7);
  const Tensor scores =
      Tensor::uniform({state.range(0)}, -1.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::topk_select(scores, state.range(0) / 16));
  }
}
BENCHMARK(BM_PixelSelect_Topk)->Arg(1 << 12)->Arg(1 << 15);

void BM_SyntheticVideo(benchmark::State& state) {
  auto spec = video::DatasetSpec::ucf101_like();
  video::SyntheticGenerator gen(spec);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.make_video(0, 0, ++seed));
  }
}
BENCHMARK(BM_SyntheticVideo);

// --smoke: a fast direct-vs-GEMM Conv3d consistency check instead of timing.
// Runs both kernels on identical weights/inputs across a few representative
// shapes and reports the worst forward / weight-grad / bias-grad / input-grad
// deltas. Forward and parameter gradients must match bitwise (delta 0); the
// input gradient is a reassociated reduction, so it only has to be close.
// Exits nonzero on any mismatch — cheap enough for every CI run.
int run_smoke() {
  struct Case {
    const char* label;
    std::int64_t cin, cout;
    std::array<std::int64_t, 3> kernel, stride, padding;
    Tensor::Shape in;
  };
  const std::vector<Case> cases = {
      {"3x3x3 pad1", 4, 8, {3, 3, 3}, {1, 1, 1}, {1, 1, 1}, {4, 6, 12, 12}},
      {"strided", 3, 6, {2, 3, 3}, {1, 2, 2}, {0, 1, 1}, {3, 5, 13, 13}},
      {"pointwise", 8, 8, {1, 1, 1}, {1, 1, 1}, {0, 0, 0}, {8, 4, 8, 8}},
  };
  ComputePoolGuard guard(0);
  bool ok = true;
  for (const auto& c : cases) {
    auto run = [&](nn::Conv3dKernel impl) {
      nn::Conv3dSpec spec;
      spec.in_channels = c.cin;
      spec.out_channels = c.cout;
      spec.kernel = c.kernel;
      spec.stride = c.stride;
      spec.padding = c.padding;
      spec.kernel_impl = impl;
      Rng rng(97);
      nn::Conv3d conv(spec, rng);
      Rng xrng(98);
      const Tensor x = Tensor::uniform(c.in, -1.0f, 1.0f, xrng);
      const Tensor out = conv.forward(x);
      const Tensor gy = Tensor::uniform(out.shape(), -1.0f, 1.0f, xrng);
      const Tensor gx = conv.backward(gy);
      return std::array<Tensor, 4>{out, gx, conv.parameters()[0]->grad,
                                   conv.parameters()[1]->grad};
    };
    const auto direct = run(nn::Conv3dKernel::kDirect);
    const auto gemm = run(nn::Conv3dKernel::kGemm);
    const float d_out = (direct[0] - gemm[0]).norm_linf();
    const float d_gx = (direct[1] - gemm[1]).norm_linf();
    const float d_gw = (direct[2] - gemm[2]).norm_linf();
    const float d_gb = (direct[3] - gemm[3]).norm_linf();
    const bool case_ok =
        d_out == 0.0f && d_gw == 0.0f && d_gb == 0.0f && d_gx <= 1e-4f;
    ok = ok && case_ok;
    std::printf(
        "conv3d %-12s forward %.3g  grad_w %.3g  grad_b %.3g  grad_x %.3g  %s\n",
        c.label, static_cast<double>(d_out), static_cast<double>(d_gw),
        static_cast<double>(d_gb), static_cast<double>(d_gx),
        case_ok ? "OK" : "MISMATCH");
  }
  std::printf("direct-vs-gemm smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return run_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
