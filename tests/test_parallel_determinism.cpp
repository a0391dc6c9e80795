// Bitwise determinism of the parallelized compute kernels across thread
// counts. The Conv3d/pooling shards are constructed so every accumulated
// address is owned by exactly one shard and accumulated in the serial loop's
// order; these tests catch any regression of that property (e.g. a future
// "optimization" that reduces per-thread partials in completion order).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/surrogate.hpp"
#include "common/thread_pool.hpp"
#include "fixtures.hpp"
#include "models/feature_extractor.hpp"
#include "nn/conv3d.hpp"
#include "nn/pool3d.hpp"
#include "retrieval/system.hpp"
#include "video/synthetic.hpp"

namespace duo {
namespace {

// Runs fn with the compute pool pinned to `threads` workers.
template <typename Fn>
auto with_compute_threads(std::size_t threads, Fn&& fn) {
  const testing::PinnedComputePool pinned(threads);
  return fn();
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << what << " diverges at flat index " << i;
  }
}

struct ConvResult {
  Tensor output;
  Tensor grad_input;
  std::vector<Tensor> param_grads;
};

ConvResult run_conv(std::size_t threads) {
  return with_compute_threads(threads, [] {
    Rng rng(42);
    nn::Conv3dSpec spec;
    spec.in_channels = 3;
    spec.out_channels = 8;
    nn::Conv3d conv(spec, rng);
    const Tensor input = Tensor::uniform({3, 6, 10, 10}, -1.0f, 1.0f, rng);
    ConvResult r;
    r.output = conv.forward(input);
    Tensor grad_out = Tensor::uniform(r.output.shape(), -1.0f, 1.0f, rng);
    r.grad_input = conv.backward(grad_out);
    for (auto* p : conv.parameters()) r.param_grads.push_back(p->grad);
    return r;
  });
}

// The im2col/GEMM path shards disjoint accumulator tiles with
// thread-count-independent chains, and col2im shards disjoint input
// channels, so forward and every grad are bitwise equal at any pool size.
TEST(ParallelDeterminism, Conv3dForwardBackwardBitwiseAcrossThreadCounts) {
  const ConvResult serial = run_conv(1);
  for (const std::size_t threads : {2u, 8u}) {
    const ConvResult parallel = run_conv(threads);
    expect_bitwise_equal(serial.output, parallel.output, "conv3d output");
    expect_bitwise_equal(serial.grad_input, parallel.grad_input,
                         "conv3d grad_input");
    ASSERT_EQ(serial.param_grads.size(), parallel.param_grads.size());
    for (std::size_t i = 0; i < serial.param_grads.size(); ++i) {
      expect_bitwise_equal(serial.param_grads[i], parallel.param_grads[i],
                           "conv3d param grad");
    }
  }
}

struct PoolResult {
  Tensor max_out, max_grad, avg_out, avg_grad;
};

PoolResult run_pools(std::size_t threads) {
  return with_compute_threads(threads, [] {
    Rng rng(43);
    const Tensor input = Tensor::uniform({6, 8, 12, 12}, -1.0f, 1.0f, rng);
    PoolResult r;
    nn::MaxPool3d max_pool({2, 2, 2});
    r.max_out = max_pool.forward(input);
    r.max_grad =
        max_pool.backward(Tensor::uniform(r.max_out.shape(), -1.f, 1.f, rng));
    Rng rng2(43);  // identical grad stream for the avg pool
    nn::AvgPool3d avg_pool({2, 3, 3}, {2, 2, 2});
    r.avg_out = avg_pool.forward(input);
    r.avg_grad =
        avg_pool.backward(Tensor::uniform(r.avg_out.shape(), -1.f, 1.f, rng2));
    return r;
  });
}

TEST(ParallelDeterminism, PoolingBitwiseAcrossThreadCounts) {
  const PoolResult serial = run_pools(1);
  const PoolResult parallel = run_pools(8);
  expect_bitwise_equal(serial.max_out, parallel.max_out, "maxpool output");
  expect_bitwise_equal(serial.max_grad, parallel.max_grad, "maxpool grad");
  expect_bitwise_equal(serial.avg_out, parallel.avg_out, "avgpool output");
  expect_bitwise_equal(serial.avg_grad, parallel.avg_grad, "avgpool grad");
}

video::Video make_test_video(std::uint64_t seed) {
  auto spec = video::DatasetSpec::hmdb51_like(3);
  spec.geometry = {8, 16, 16, 3};
  return video::SyntheticGenerator(spec).make_video(0, 0, seed);
}

Tensor run_extract(models::ModelKind kind, std::size_t threads) {
  return with_compute_threads(threads, [kind] {
    Rng rng(7);
    auto model =
        models::make_extractor(kind, video::VideoGeometry{8, 16, 16, 3}, 16, rng);
    model->set_training(false);
    return model->extract(make_test_video(11));
  });
}

TEST(ParallelDeterminism, ExtractorFeaturesBitwiseAcrossThreadCounts) {
  for (const auto kind : {models::ModelKind::kC3D, models::ModelKind::kI3D,
                          models::ModelKind::kResNet18}) {
    const Tensor serial = run_extract(kind, 1);
    const Tensor parallel = run_extract(kind, 8);
    expect_bitwise_equal(serial, parallel, models::model_kind_name(kind));
  }
}

TEST(ParallelDeterminism, ClonedExtractorMatchesOriginalBitwise) {
  Rng rng(9);
  auto model = models::make_extractor(models::ModelKind::kC3D,
                                      video::VideoGeometry{8, 16, 16, 3}, 16,
                                      rng);
  model->set_training(false);
  auto copy = model->clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->feature_dim(), model->feature_dim());
  EXPECT_EQ(copy->name(), model->name());
  EXPECT_EQ(copy->parameter_count(), model->parameter_count());
  const video::Video v = make_test_video(21);
  expect_bitwise_equal(model->extract(v), copy->extract(v), "clone features");
}

// extract_batch keeps its shard replicas across calls. A weight update
// between calls must reach every replica: those made before the update, and
// those added when the pool grows (2 → 8 threads) after it.
TEST(ParallelDeterminism, ExtractBatchFollowsParameterUpdates) {
  const video::VideoGeometry geometry{8, 16, 16, 3};
  std::vector<video::Video> videos;
  for (std::uint64_t i = 0; i < 8; ++i) {
    videos.push_back(make_test_video(30 + i));
  }
  auto make = [&](std::uint64_t seed) {
    Rng rng(seed);
    auto model =
        models::make_extractor(models::ModelKind::kI3D, geometry, 16, rng);
    model->set_training(false);
    return model;
  };
  // Serial extract() features of a fresh extractor with `seed`'s weights.
  auto serial = [&](std::uint64_t seed) {
    return with_compute_threads(1, [&] {
      auto model = make(seed);
      std::vector<Tensor> out;
      for (const auto& v : videos) out.push_back(model->extract(v));
      return out;
    });
  };
  const std::vector<Tensor> before = serial(3);
  const std::vector<Tensor> after = serial(4);
  auto expect_features = [](const std::vector<Tensor>& got,
                            const std::vector<Tensor>& want,
                            const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_bitwise_equal(got[i], want[i], what);
    }
  };

  auto batch = [&](models::FeatureExtractor& model, std::size_t threads) {
    return with_compute_threads(threads,
                                [&] { return model.extract_batch(videos); });
  };

  const auto update = make(4);
  for (const std::size_t first_threads : {std::size_t{8}, std::size_t{2}}) {
    SCOPED_TRACE(first_threads);
    auto model = make(3);
    expect_features(batch(*model, first_threads), before,
                    "batch before the update");
    model->copy_parameters_from(*update);
    expect_features(batch(*model, 8), after, "batch after the update");
  }
}

// Where the pool runs calls inline — a pool worker, an outer call's own
// share, an InlineScope such as a serve lane's — extract_batch's shards
// would run one after another on the calling thread, so it makes no
// replica and runs its serial loop on the instance it was called on. The
// features stay bitwise equal to serial extract().
TEST(ParallelDeterminism, ExtractBatchInsideParallelRegionMakesNoReplicas) {
  const video::VideoGeometry geometry{8, 16, 16, 3};
  std::vector<video::Video> videos;
  for (std::uint64_t i = 0; i < 4; ++i) {
    videos.push_back(make_test_video(50 + i));
  }
  // One counter for every clone() call, on the models and their clones.
  auto clones = std::make_shared<std::atomic<int>>(0);
  auto hooks = std::make_shared<testing::ExtractorHooks>();
  hooks->on_clone = [clones] { clones->fetch_add(1); };
  auto make = [&] {
    Rng rng(6);
    auto model = std::make_unique<testing::HookedExtractor>(
        models::make_extractor(models::ModelKind::kI3D, geometry, 16, rng),
        hooks);
    model->set_training(false);
    return model;
  };
  std::vector<Tensor> serial;
  {
    auto model = make();
    for (const auto& v : videos) serial.push_back(model->extract(v));
  }
  auto expect_serial = [&](const std::vector<Tensor>& got, const char* what) {
    ASSERT_EQ(got.size(), serial.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_bitwise_equal(got[i], serial[i], what);
    }
  };

  with_compute_threads(4, [&] {
    ThreadPool& pool = compute_pool();
    // Inside an outer parallel_for: each item runs on a worker or on the
    // caller's own share, each on its own instance.
    std::vector<std::unique_ptr<testing::HookedExtractor>> models;
    models.push_back(make());
    models.push_back(make());
    std::vector<std::vector<Tensor>> in_region(models.size());
    pool.parallel_for(models.size(), [&](std::size_t i) {
      in_region[i] = models[i]->extract_batch(videos);
    });
    EXPECT_EQ(clones->load(), 0);
    for (const auto& got : in_region) expect_serial(got, "inside parallel_for");

    // Inside an InlineScope, as on a serve lane.
    {
      const ThreadPool::InlineScope scope(pool);
      expect_serial(models[0]->extract_batch(videos), "inside an InlineScope");
    }
    EXPECT_EQ(clones->load(), 0);

    // Control: outside any region the same call shards over replicas.
    expect_serial(models[0]->extract_batch(videos), "outside a region");
    EXPECT_EQ(clones->load(), 3);
  });
}

struct GalleryResult {
  double map;
  std::vector<std::int64_t> top;
};

GalleryResult run_gallery(std::size_t threads) {
  return with_compute_threads(threads, [] {
    auto spec = video::DatasetSpec::hmdb51_like(55);
    spec.num_classes = 3;
    spec.train_per_class = 5;
    spec.test_per_class = 2;
    spec.geometry = {8, 16, 16, 3};
    auto dataset = video::SyntheticGenerator(spec).generate();
    Rng rng(31);
    auto extractor = models::make_extractor(models::ModelKind::kC3D,
                                            spec.geometry, 16, rng);
    retrieval::RetrievalSystem system(std::move(extractor), 2);
    system.add_all(dataset.train);
    GalleryResult r;
    r.map = retrieval::evaluate_map(system, dataset.test, 5);
    r.top = system.retrieve(dataset.test[0], 5);
    return r;
  });
}

TEST(ParallelDeterminism, GalleryAndMapBitwiseAcrossThreadCounts) {
  const GalleryResult serial = run_gallery(1);
  const GalleryResult parallel = run_gallery(8);
  EXPECT_EQ(serial.map, parallel.map);
  EXPECT_EQ(serial.top, parallel.top);
}

// Synthetic surrogate-training inputs: a handful of videos and random (but
// fixed) ranking triplets over them — no victim needed to exercise the
// data-parallel training loop.
struct TrainSetup {
  attack::VideoStore store;
  attack::SurrogateDataset dataset;
};

TrainSetup make_train_setup() {
  auto spec = video::DatasetSpec::hmdb51_like(5);
  spec.geometry = {8, 16, 16, 3};
  video::SyntheticGenerator gen(spec);
  TrainSetup s;
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const video::Video v = gen.make_video(i % 3, i, 1000 + i);
    s.store.add(v);
    ids.push_back(v.id());
    s.dataset.video_ids.push_back(v.id());
  }
  Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    const std::int64_t a = ids[rng.uniform_index(ids.size())];
    std::int64_t c = ids[rng.uniform_index(ids.size())];
    while (c == a) c = ids[rng.uniform_index(ids.size())];
    std::int64_t f = ids[rng.uniform_index(ids.size())];
    while (f == a || f == c) f = ids[rng.uniform_index(ids.size())];
    s.dataset.triplets.push_back({a, c, f});
  }
  return s;
}

struct TrainResult {
  std::vector<double> losses;
  std::vector<Tensor> params;
};

TrainResult run_train(std::size_t threads, int batch_size) {
  return with_compute_threads(threads, [batch_size] {
    TrainSetup s = make_train_setup();
    Rng rng(77);
    auto model = models::make_extractor(models::ModelKind::kC3D,
                                        video::VideoGeometry{8, 16, 16, 3}, 16,
                                        rng);
    attack::SurrogateTrainConfig cfg;
    cfg.epochs = 2;
    cfg.triplets_per_epoch = 24;
    cfg.batch_size = batch_size;
    const auto stats = attack::train_surrogate(*model, s.dataset, s.store, cfg);
    TrainResult r;
    r.losses = stats.epoch_losses;
    for (auto* p : model->parameters()) r.params.push_back(p->value);
    return r;
  });
}

TEST(ParallelDeterminism, TrainSurrogateBitwiseAcrossThreadCounts) {
  // Covers batch_size 1 (legacy one-triplet-per-step schedule) and a batch
  // larger than the shard count (8 threads → 8 replica groups < 12 samples),
  // where shards process multiple samples and the serial reduction order is
  // the only thing keeping the result stable.
  for (const int batch : {1, 12}) {
    const TrainResult serial = run_train(1, batch);
    const TrainResult parallel = run_train(8, batch);
    ASSERT_EQ(serial.losses.size(), parallel.losses.size()) << "batch " << batch;
    for (std::size_t i = 0; i < serial.losses.size(); ++i) {
      EXPECT_EQ(serial.losses[i], parallel.losses[i])
          << "epoch loss " << i << " diverges at batch_size " << batch;
    }
    ASSERT_EQ(serial.params.size(), parallel.params.size());
    for (std::size_t i = 0; i < serial.params.size(); ++i) {
      expect_bitwise_equal(serial.params[i], parallel.params[i],
                           "trained surrogate parameter");
    }
  }
}

}  // namespace
}  // namespace duo
