#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "fixtures.hpp"
#include "retrieval/index.hpp"
#include "retrieval/system.hpp"
#include "retrieval/trainer.hpp"
#include "video/synthetic.hpp"

namespace duo::retrieval {
namespace {

// Forwards to an inner extractor but refuses to clone, exercising the
// serial fallback of FeatureExtractor::extract_batch.
class NonCloneableExtractor : public models::FeatureExtractor {
 public:
  explicit NonCloneableExtractor(
      std::unique_ptr<models::FeatureExtractor> inner)
      : inner_(std::move(inner)) {}

  Tensor extract_model_input(const Tensor& input) override {
    return inner_->extract_model_input(input);
  }
  Tensor backward_to_input(const Tensor& grad_feature) override {
    return inner_->backward_to_input(grad_feature);
  }
  std::vector<nn::Parameter*> parameters() override {
    return inner_->parameters();
  }
  void set_training(bool training) override { inner_->set_training(training); }
  std::int64_t feature_dim() const override { return inner_->feature_dim(); }
  std::string name() const override { return "noclone-" + inner_->name(); }
  // clone() keeps the base-class default: nullptr ("not cloneable").

 private:
  std::unique_ptr<models::FeatureExtractor> inner_;
};

GalleryEntry entry(std::int64_t id, int label, std::vector<float> f) {
  GalleryEntry e;
  e.id = id;
  e.label = label;
  const auto dim = static_cast<std::int64_t>(f.size());
  e.feature = Tensor({dim}, std::move(f));
  return e;
}

TEST(DataNode, ReturnsNearestFirst) {
  DataNode node(2);
  node.add(entry(1, 0, {0.0f, 0.0f}));
  node.add(entry(2, 0, {1.0f, 0.0f}));
  node.add(entry(3, 0, {5.0f, 5.0f}));
  const auto result = node.query(Tensor({2}, std::vector<float>{0.1f, 0.0f}), 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 1);
  EXPECT_EQ(result[1].id, 2);
  EXPECT_EQ(result[2].id, 3);
  EXPECT_LT(result[0].distance_sq, result[1].distance_sq);
}

TEST(DataNode, TopMSmallerThanStore) {
  DataNode node(1);
  for (int i = 0; i < 10; ++i) {
    node.add(entry(i, 0, {static_cast<float>(i)}));
  }
  const auto result = node.query(Tensor({1}, std::vector<float>{0.0f}), 3);
  EXPECT_EQ(result.size(), 3u);
}

TEST(DataNode, MExceedingSizeReturnsAll) {
  DataNode node(1);
  node.add(entry(1, 0, {1.0f}));
  EXPECT_EQ(node.query(Tensor({1}, std::vector<float>{0.0f}), 10).size(), 1u);
}

TEST(DataNode, DimensionMismatchThrows) {
  DataNode node(2);
  EXPECT_THROW(node.add(entry(1, 0, {1.0f})), std::logic_error);
}

TEST(DataNode, DeterministicTieBreakById) {
  DataNode node(1);
  node.add(entry(7, 0, {1.0f}));
  node.add(entry(3, 0, {1.0f}));
  const auto result = node.query(Tensor({1}, std::vector<float>{1.0f}), 2);
  EXPECT_EQ(result[0].id, 3);
  EXPECT_EQ(result[1].id, 7);
}

TEST(NeighborOrder, SquaredDistanceConventionPinned) {
  // Neighbor::distance_sq is *squared* L2 — pinned here so a future scan
  // stage (e.g. IVF's quantized cell scan) can't silently feed a different
  // metric into the merge. (1,1) vs (4,5): L2 = 5, squared = 25.
  DataNode node(2);
  node.add(entry(1, 0, {4.0f, 5.0f}));
  const auto result = node.query(Tensor({2}, std::vector<float>{1.0f, 1.0f}), 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result[0].distance_sq, 25.0);
}

TEST(NeighborOrder, ComparatorIsTotalWithNaN) {
  // neighbor_less must be a strict total order even with NaN distances —
  // the raw `<` comparator it replaces is not (NaN is incomparable with
  // everything while finite values still compare, so "equivalence" loses
  // transitivity → UB in std::partial_sort). Check the strict-weak axioms
  // exhaustively over a mixed finite/NaN sample.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Neighbor> sample = {
      {1, 0, 0.0}, {2, 0, 1.0}, {3, 0, 1.0}, {4, 0, nan}, {5, 0, nan},
      {6, 0, -1.0}};
  for (const auto& a : sample) {
    EXPECT_FALSE(neighbor_less(a, a));  // irreflexive
    for (const auto& b : sample) {
      if (a.id != b.id) {
        // Total: distinct neighbors are never equivalent (ids tie-break).
        EXPECT_NE(neighbor_less(a, b), neighbor_less(b, a));
      }
      for (const auto& c : sample) {  // transitive
        if (neighbor_less(a, b) && neighbor_less(b, c)) {
          EXPECT_TRUE(neighbor_less(a, c));
        }
      }
    }
  }
}

TEST(NeighborOrder, NaNGalleryEntrySinksLast) {
  // Regression (headline bugfix): one NaN-poisoned gallery feature —
  // exactly the corruption class the PR 6 MaxPool3d fix proved reachable —
  // made the old raw-double comparator violate strict weak ordering inside
  // std::partial_sort. Observed on the old code: the NaN entry ranked at
  // position 1 of the top-10, above strictly closer finite entries. The fix
  // sinks NaN distances last under a total order.
  DataNode node(1);
  node.add(entry(0, 0, {std::numeric_limits<float>::quiet_NaN()}));
  for (int i = 1; i <= 32; ++i) {
    node.add(entry(i, 0, {static_cast<float>(100 - i)}));
  }
  const auto top = node.query(Tensor({1}, std::vector<float>{0.0f}), 10);
  ASSERT_EQ(top.size(), 10u);
  for (const auto& n : top) {
    EXPECT_NE(n.id, 0) << "NaN-poisoned entry ranked into the top-m";
    EXPECT_FALSE(std::isnan(n.distance_sq));
  }
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LT(top[i - 1].distance_sq, top[i].distance_sq);
  }
  // Asking for everything: the NaN entry comes back, but dead last.
  const auto all = node.query(Tensor({1}, std::vector<float>{0.0f}), 33);
  ASSERT_EQ(all.size(), 33u);
  EXPECT_EQ(all.back().id, 0);
  EXPECT_TRUE(std::isnan(all.back().distance_sq));
}

TEST(NeighborOrder, NaNPoisonedQueryIsDeterministic) {
  // An all-NaN distance column (NaN query feature) must order by id — the
  // old comparator returned ids in arbitrary heap order. Both DataNode and
  // the scatter-gather merge go through the shared comparator now.
  RetrievalIndex index(1, 3);
  for (int i = 15; i >= 0; --i) {
    index.add(entry(i, 0, {static_cast<float>(i)}));
  }
  const Tensor nan_q({1},
                     std::vector<float>{std::numeric_limits<float>::quiet_NaN()});
  const auto top = index.query(nan_q, 5);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].id, static_cast<std::int64_t>(i));
    EXPECT_TRUE(std::isnan(top[i].distance_sq));
  }
}

TEST(RetrievalIndex, MZeroReturnsEmpty) {
  RetrievalIndex index(1, 2);
  index.add(entry(1, 0, {1.0f}));
  EXPECT_TRUE(index.query(Tensor({1}, std::vector<float>{0.0f}), 0).empty());
  DataNode node(1);
  node.add(entry(1, 0, {1.0f}));
  EXPECT_TRUE(node.query(Tensor({1}, std::vector<float>{0.0f}), 0).empty());
}

TEST(RetrievalIndex, EmptyShardAndEmptyIndex) {
  // 3 nodes, 2 entries: one shard is empty; queries must still work, and an
  // entirely empty index answers with an empty list.
  RetrievalIndex index(1, 3);
  EXPECT_TRUE(index.query(Tensor({1}, std::vector<float>{0.0f}), 4).empty());
  index.add(entry(1, 0, {1.0f}));
  index.add(entry(2, 0, {2.0f}));
  const auto result = index.query(Tensor({1}, std::vector<float>{0.0f}), 4);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0].id, 1);
  EXPECT_EQ(result[1].id, 2);
}

TEST(RetrievalIndex, MExceedingSizeReturnsAllAcrossNodes) {
  RetrievalIndex index(1, 4);
  for (int i = 0; i < 6; ++i) index.add(entry(i, 0, {static_cast<float>(i)}));
  EXPECT_EQ(index.query(Tensor({1}, std::vector<float>{0.0f}), 100).size(), 6u);
}

TEST(RetrievalIndex, DuplicateDistancesMergeDeterministicallyAcrossNodeCounts) {
  // Many entries at identical distances: the (distance_sq, id) total order
  // must produce the same top-m whatever the shard count.
  std::vector<std::size_t> node_counts = {1, 2, 8};
  std::vector<std::vector<std::int64_t>> tops;
  for (const std::size_t nodes : node_counts) {
    RetrievalIndex index(1, nodes);
    Rng rng(11);
    std::vector<int> ids(40);
    for (int i = 0; i < 40; ++i) ids[static_cast<std::size_t>(i)] = i;
    rng.shuffle(ids);  // insertion order ≠ id order
    for (const int id : ids) {
      index.add(entry(id, 0, {static_cast<float>(id % 4)}));  // 4-way ties
    }
    const auto result =
        index.query(Tensor({1}, std::vector<float>{0.0f}), 10,
                    /*parallel=*/nodes > 1);
    std::vector<std::int64_t> got;
    for (const auto& n : result) got.push_back(n.id);
    tops.push_back(got);
  }
  EXPECT_EQ(tops[0], tops[1]);
  EXPECT_EQ(tops[0], tops[2]);
}

TEST(RetrievalIndex, RemoveByIdShrinksAndExcludes) {
  RetrievalIndex index(1, 3);
  for (int i = 0; i < 9; ++i) index.add(entry(i, 0, {static_cast<float>(i)}));
  EXPECT_TRUE(index.remove(0));
  EXPECT_FALSE(index.remove(0));  // already gone
  EXPECT_FALSE(index.remove(999));
  EXPECT_EQ(index.size(), 8u);
  const auto result = index.query(Tensor({1}, std::vector<float>{0.0f}), 3);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 1);  // 0 no longer retrievable
}

TEST(RetrievalIndex, ShardsRoundRobin) {
  RetrievalIndex index(1, 3);
  for (int i = 0; i < 7; ++i) index.add(entry(i, 0, {static_cast<float>(i)}));
  EXPECT_EQ(index.size(), 7u);
  EXPECT_EQ(index.node_count(), 3u);
}

TEST(RetrievalIndex, ScatterGatherMatchesSingleNode) {
  // The same entries in 1 node vs 4 nodes must yield identical top-m.
  RetrievalIndex single(2, 1);
  RetrievalIndex sharded(2, 4);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    auto e = entry(i, i % 5, {rng.uniform_f(-1, 1), rng.uniform_f(-1, 1)});
    single.add(e);
    sharded.add(e);
  }
  const Tensor q({2}, std::vector<float>{0.2f, -0.3f});
  const auto a = single.query(q, 10);
  const auto b = sharded.query(q, 10, /*parallel=*/true);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_DOUBLE_EQ(a[i].distance_sq, b[i].distance_sq);
  }
}

TEST(RetrievalIndex, RequiresAtLeastOneNode) {
  EXPECT_THROW(RetrievalIndex(2, 0), std::logic_error);
}

class SystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = video::DatasetSpec::hmdb51_like(21);
    spec_.num_classes = 4;
    spec_.train_per_class = 5;
    spec_.test_per_class = 2;
    spec_.geometry = {8, 16, 16, 3};
    dataset_ = video::SyntheticGenerator(spec_).generate();

    Rng rng(33);
    auto extractor =
        models::make_extractor(models::ModelKind::kC3D, spec_.geometry, 16, rng);
    system_ = std::make_unique<RetrievalSystem>(std::move(extractor), 3);
    system_->add_all(dataset_.train);
  }

  video::DatasetSpec spec_;
  video::Dataset dataset_;
  std::unique_ptr<RetrievalSystem> system_;
};

TEST_F(SystemTest, GalleryVideoRetrievesItselfFirst) {
  const auto& v = dataset_.train[3];
  const auto list = system_->retrieve(v, 5);
  ASSERT_FALSE(list.empty());
  EXPECT_EQ(list.front(), v.id());
}

TEST_F(SystemTest, LabelLookupAndCounts) {
  const auto& v = dataset_.train.front();
  EXPECT_EQ(system_->label_of(v.id()), v.label());
  EXPECT_EQ(system_->relevant_count(v.label()), spec_.train_per_class);
  EXPECT_EQ(system_->relevant_count(9999), 0);
  EXPECT_THROW(system_->label_of(123456), std::logic_error);
}

TEST_F(SystemTest, DuplicateGalleryIdThrows) {
  EXPECT_THROW(system_->add_to_gallery(dataset_.train.front()),
               std::logic_error);
}

TEST_F(SystemTest, RejectedDuplicateLeavesSystemConsistent) {
  // Regression: the duplicate-id check used to fire only *after* the index
  // was mutated, leaving an indexed entry with no label bookkeeping. A
  // rejected add must leave index and label maps exactly as they were.
  const auto& dup = dataset_.train.front();
  const std::size_t size_before = system_->gallery_size();
  const auto count_before = system_->relevant_count(dup.label());
  const auto list_before = system_->retrieve(dup, 8);

  EXPECT_THROW(system_->add_to_gallery(dup), std::logic_error);

  EXPECT_EQ(system_->gallery_size(), size_before);
  EXPECT_EQ(system_->relevant_count(dup.label()), count_before);
  const auto list_after = system_->retrieve(dup, 8);
  EXPECT_EQ(list_after, list_before);
  // Every retrievable id still has label bookkeeping (the old bug left an
  // id in the index that label_of would reject).
  for (const auto id : list_after) {
    EXPECT_NO_THROW((void)system_->label_of(id));
  }
}

TEST_F(SystemTest, AddAllRejectsDuplicateBatchAtomically) {
  const std::size_t size_before = system_->gallery_size();
  // A batch with one fresh video and one duplicate must change nothing —
  // not even the fresh video may land.
  video::Video fresh(spec_.geometry, /*label=*/0, /*id=*/100000);
  EXPECT_THROW(system_->add_all({fresh, dataset_.train.front()}),
               std::logic_error);
  EXPECT_EQ(system_->gallery_size(), size_before);
  EXPECT_THROW((void)system_->label_of(fresh.id()), std::logic_error);

  // Duplicates *within* the batch are rejected too.
  video::Video twin(spec_.geometry, /*label=*/0, /*id=*/100001);
  EXPECT_THROW(system_->add_all({twin, twin}), std::logic_error);
  EXPECT_EQ(system_->gallery_size(), size_before);

  // The fresh video is still addable afterwards.
  system_->add_to_gallery(fresh);
  EXPECT_EQ(system_->gallery_size(), size_before + 1);
  EXPECT_EQ(system_->label_of(fresh.id()), fresh.label());
}

TEST_F(SystemTest, ExtractFeaturesEmptyInputReturnsEmpty) {
  EXPECT_TRUE(system_->extract_features({}).empty());
  EXPECT_TRUE(system_->extractor()
                  .extract_batch(std::span<const video::Video>{})
                  .empty());
}

TEST_F(SystemTest, NonCloneableFallbackMatchesParallelPathBitwise) {
  // Two systems with bitwise-identical extractor weights: one cloneable
  // (parallel extract_batch), one wrapped to refuse cloning (serial
  // fallback). Their features must agree bitwise, even on a multi-worker
  // pool.
  const testing::PinnedComputePool pinned(4);

  Rng rng_a(77), rng_b(77);
  RetrievalSystem cloneable(
      models::make_extractor(models::ModelKind::kC3D, spec_.geometry, 16,
                             rng_a),
      2);
  RetrievalSystem fallback(
      std::make_unique<NonCloneableExtractor>(models::make_extractor(
          models::ModelKind::kC3D, spec_.geometry, 16, rng_b)),
      2);

  const auto parallel = cloneable.extract_features(dataset_.test);
  const auto serial = fallback.extract_features(dataset_.test);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    ASSERT_EQ(parallel[i].shape(), serial[i].shape()) << "video " << i;
    for (std::int64_t j = 0; j < parallel[i].size(); ++j) {
      ASSERT_EQ(parallel[i][j], serial[i][j])
          << "video " << i << " flat index " << j;
    }
  }
}

TEST_F(SystemTest, BlackBoxHandleCountIsThreadSafe) {
  // The counter must be exact when concurrent clients share one handle
  // (routine once queries flow through the serve layer). A stub backend
  // keeps the extractor out of the picture.
  BlackBoxHandle handle(BlackBoxHandle::RetrieveFn(
      [](const video::Video&, std::size_t) { return metrics::RetrievalList{}; }));
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 500;
  video::Video probe(spec_.geometry, 0, 424242);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        (void)handle.retrieve(probe, 1);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(handle.query_count(), kThreads * kQueriesPerThread);
}

TEST_F(SystemTest, BlackBoxHandleCountsQueries) {
  BlackBoxHandle handle(*system_);
  EXPECT_EQ(handle.query_count(), 0);
  (void)handle.retrieve(dataset_.test.front(), 5);
  (void)handle.retrieve(dataset_.test.back(), 5);
  EXPECT_EQ(handle.query_count(), 2);
  handle.reset_query_count();
  EXPECT_EQ(handle.query_count(), 0);
}

TEST_F(SystemTest, RetrieveFeatureMatchesRetrieveVideo) {
  const auto& v = dataset_.test.front();
  const auto via_video = system_->retrieve_detailed(v, 5);
  const auto via_feature =
      system_->retrieve_feature(system_->extractor().extract(v), 5);
  ASSERT_EQ(via_video.size(), via_feature.size());
  for (std::size_t i = 0; i < via_video.size(); ++i) {
    EXPECT_EQ(via_video[i].id, via_feature[i].id);
  }
}

TEST_F(SystemTest, RemoveFromGalleryKeepsBookkeepingConsistent) {
  const auto& victim = dataset_.train[4];
  const std::size_t size_before = system_->gallery_size();
  const auto count_before = system_->relevant_count(victim.label());

  EXPECT_TRUE(system_->remove_from_gallery(victim.id()));
  EXPECT_EQ(system_->gallery_size(), size_before - 1);
  EXPECT_EQ(system_->relevant_count(victim.label()), count_before - 1);
  EXPECT_THROW((void)system_->label_of(victim.id()), std::logic_error);
  for (const auto id : system_->retrieve(victim, 20)) {
    EXPECT_NE(id, victim.id());
  }
  // Unknown ids are a no-op, and a removed video is addable again.
  EXPECT_FALSE(system_->remove_from_gallery(victim.id()));
  EXPECT_FALSE(system_->remove_from_gallery(987654));
  system_->add_to_gallery(victim);
  EXPECT_EQ(system_->gallery_size(), size_before);
  EXPECT_EQ(system_->relevant_count(victim.label()), count_before);
  EXPECT_EQ(system_->retrieve(victim, 1).front(), victim.id());
}

TEST_F(SystemTest, RetrieveFeatureInsideWorkerMatchesOutside) {
  // Regression for the nested fan-out: evaluate_map calls retrieve_feature
  // from inside compute_pool().parallel_for, where the per-shard scatter
  // used to re-enter the saturated pool. The fix runs the inner scan serial
  // on pool workers — results must be bitwise identical either way.
  const testing::PinnedComputePool pinned(4);

  const Tensor feature = system_->extractor().extract(dataset_.test.front());
  const auto outside = system_->retrieve_feature(feature, 8);
  std::vector<Neighbor> inside;
  compute_pool().parallel_for(1, [&](std::size_t) {
    inside = system_->retrieve_feature(feature, 8);
  });
  ASSERT_EQ(outside.size(), inside.size());
  for (std::size_t i = 0; i < outside.size(); ++i) {
    EXPECT_EQ(outside[i].id, inside[i].id);
    EXPECT_EQ(outside[i].distance_sq, inside[i].distance_sq);
  }
}

TEST_F(SystemTest, EvaluateMapBitwiseAcrossThreadCounts) {
  // The satellite contract for the nested-parallelism fix: mAP is bitwise
  // identical whether the per-query fan-out runs serial or on 8 workers.
  double maps[2];
  const std::size_t threads[2] = {1, 8};
  for (int t = 0; t < 2; ++t) {
    const testing::PinnedComputePool pinned(threads[t]);
    maps[t] = evaluate_map(*system_, dataset_.test, 5);
  }
  EXPECT_EQ(maps[0], maps[1]);
}

TEST_F(SystemTest, TrainerReportsLossPerEpoch) {
  nn::TripletMarginLoss loss(0.3f);
  TrainerConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = 8;
  const auto stats =
      train_extractor(system_->extractor(), loss, dataset_.train, cfg);
  EXPECT_EQ(stats.epoch_losses.size(), 3u);
  EXPECT_TRUE(std::isfinite(stats.final_loss()));
}

TEST_F(SystemTest, MapOfTrainedSystemBeatsUntrained) {
  // Proper version of the above: train first, then build the gallery.
  nn::TripletMarginLoss loss(0.3f);
  TrainerConfig cfg;
  cfg.epochs = 5;
  cfg.batch_size = 8;
  cfg.learning_rate = 3e-3f;

  Rng rng_a(55), rng_b(55);
  auto untrained = std::make_unique<RetrievalSystem>(
      models::make_extractor(models::ModelKind::kC3D, spec_.geometry, 16, rng_a),
      2);
  untrained->add_all(dataset_.train);
  const double map_untrained = evaluate_map(*untrained, dataset_.test, 5);

  auto extractor =
      models::make_extractor(models::ModelKind::kC3D, spec_.geometry, 16, rng_b);
  train_extractor(*extractor, loss, dataset_.train, cfg);
  RetrievalSystem trained(std::move(extractor), 2);
  trained.add_all(dataset_.train);
  const double map_trained = evaluate_map(trained, dataset_.test, 5);

  EXPECT_GT(map_trained, map_untrained);
}

}  // namespace
}  // namespace duo::retrieval
