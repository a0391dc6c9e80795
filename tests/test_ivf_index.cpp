#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fixtures.hpp"
#include "retrieval/index.hpp"
#include "retrieval/ivf_index.hpp"
#include "retrieval/system.hpp"
#include "video/synthetic.hpp"

namespace duo::retrieval {
namespace {

GalleryEntry entry(std::int64_t id, int label, std::vector<float> f) {
  GalleryEntry e;
  e.id = id;
  e.label = label;
  const auto dim = static_cast<std::int64_t>(f.size());
  e.feature = Tensor({dim}, std::move(f));
  return e;
}

// A clustered synthetic gallery (IVF's natural habitat): `n` points around
// `centers` Gaussian centers in `dim` dimensions, ids 0..n-1 in shuffled
// insertion order so cell content never correlates with id.
std::vector<GalleryEntry> clustered_gallery(std::size_t n, std::int64_t dim,
                                            std::size_t centers,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> mu(centers, std::vector<float>(
                                                  static_cast<std::size_t>(dim)));
  for (auto& c : mu) {
    for (auto& v : c) v = rng.uniform_f(-4.0f, 4.0f);
  }
  std::vector<std::int64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<std::int64_t>(i);
  rng.shuffle(ids);
  std::vector<GalleryEntry> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = static_cast<std::size_t>(rng.uniform_index(centers));
    std::vector<float> f(static_cast<std::size_t>(dim));
    for (std::size_t j = 0; j < f.size(); ++j) {
      f[j] = mu[c][j] + rng.normal_f(0.0f, 0.3f);
    }
    out.push_back(entry(ids[i], static_cast<int>(c), std::move(f)));
  }
  return out;
}

std::vector<std::int64_t> ids_of(const std::vector<Neighbor>& list) {
  std::vector<std::int64_t> out;
  out.reserve(list.size());
  for (const auto& n : list) out.push_back(n.id);
  return out;
}

IndexConfig ivf_config(std::size_t cells, std::size_t nprobe, bool quantize,
                       std::size_t shards = 4) {
  IndexConfig cfg;
  cfg.kind = IndexKind::kIvf;
  cfg.num_nodes = shards;
  cfg.num_cells = cells;
  cfg.nprobe = nprobe;
  cfg.quantize = quantize;
  return cfg;
}

void expect_identical(const std::vector<Neighbor>& a,
                      const std::vector<Neighbor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "rank " << i;
    EXPECT_EQ(a[i].label, b[i].label) << "rank " << i;
  }
}

class IvfVsFlat : public ::testing::Test {
 protected:
  void SetUp() override {
    gallery_ = clustered_gallery(400, 8, 12, /*seed=*/5);
    flat_ = std::make_unique<RetrievalIndex>(8, 1);
    for (const auto& e : gallery_) flat_->add(e);
    Rng rng(99);
    for (int q = 0; q < 8; ++q) {
      std::vector<float> f(8);
      for (auto& v : f) v = rng.uniform_f(-4.0f, 4.0f);
      queries_.emplace_back(Tensor::Shape{8}, std::move(f));
    }
  }

  IvfIndex make_trained(const IndexConfig& cfg) {
    IvfIndex ivf(8, cfg);
    for (const auto& e : gallery_) ivf.add(e);
    ivf.finalize();
    return ivf;
  }

  std::vector<GalleryEntry> gallery_;
  std::unique_ptr<RetrievalIndex> flat_;
  std::vector<Tensor> queries_;
};

TEST_F(IvfVsFlat, NProbeAllUnquantizedIsExactlyFlat) {
  // Acceptance: nprobe = all cells → top-m identical to the exact index
  // (same ids, same order). Unquantized, the guarantee is unconditional.
  const auto ivf = make_trained(ivf_config(16, 16, /*quantize=*/false));
  ASSERT_TRUE(ivf.trained());
  for (const auto& q : queries_) {
    expect_identical(flat_->query(q, 10), ivf.query(q, 10));
  }
}

TEST_F(IvfVsFlat, NProbeAllQuantizedRerankRecoversExactTopM) {
  // Quantized scan + exact re-rank with a 4× candidate pool: on this
  // (seeded, fixed) gallery the pool always covers the true top-m, so the
  // final lists still match the exact index bit for bit.
  const auto ivf = make_trained(ivf_config(16, 16, /*quantize=*/true));
  for (const auto& q : queries_) {
    expect_identical(flat_->query(q, 10), ivf.query(q, 10));
  }
}

TEST_F(IvfVsFlat, NaNQueryMatchesFlatAndIsTotal) {
  // The headline comparator fix holds through the IVF path too: an all-NaN
  // distance column orders by id, identically to the exact index.
  const Tensor nan_q({8}, std::vector<float>(
                              8, std::numeric_limits<float>::quiet_NaN()));
  const auto ivf = make_trained(ivf_config(16, 16, /*quantize=*/false));
  const auto a = flat_->query(nan_q, 10);
  const auto b = ivf.query(nan_q, 10);
  expect_identical(a, b);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1].id, b[i].id);
}

TEST_F(IvfVsFlat, DeterministicAcrossShardAndThreadCounts) {
  // Acceptance: bitwise-deterministic across DUO_THREADS and shard counts.
  const auto reference = make_trained(ivf_config(16, 4, true, /*shards=*/1));
  for (const std::size_t shards : {2u, 8u}) {
    const auto sharded = make_trained(ivf_config(16, 4, true, shards));
    for (const auto& q : queries_) {
      const auto a = reference.query(q, 10, /*parallel=*/false);
      const auto b = sharded.query(q, 10, /*parallel=*/true);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].distance_sq, b[i].distance_sq);  // bitwise
      }
    }
  }
  // Same index, serial vs 8-worker pool: bitwise identical.
  const testing::PinnedComputePool pinned(8);
  const auto sharded = make_trained(ivf_config(16, 4, true, 4));
  for (const auto& q : queries_) {
    const auto serial = sharded.query(q, 10, false);
    const auto parallel = sharded.query(q, 10, true);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].id, parallel[i].id);
      EXPECT_EQ(serial[i].distance_sq, parallel[i].distance_sq);
    }
  }
}

TEST_F(IvfVsFlat, FewerProbesTradeRecallForScanReduction) {
  const auto ivf = make_trained(ivf_config(16, 2, true));
  std::size_t hits = 0, total = 0;
  for (const auto& q : queries_) {
    const auto exact = ids_of(flat_->query(q, 10));
    IvfQueryStats stats;
    const auto approx = ids_of(ivf.query_with_stats(q, 10, false, &stats));
    EXPECT_TRUE(stats.trained);
    EXPECT_EQ(stats.cells_probed, 2u);
    EXPECT_LT(stats.vectors_scanned, gallery_.size() / 2);
    for (const auto id : approx) {
      if (std::find(exact.begin(), exact.end(), id) != exact.end()) ++hits;
    }
    total += exact.size();
  }
  // Clustered data, 1/8 of the cells probed: recall well above chance.
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(total), 0.5);
}

TEST(IvfIndex, UntrainedFallsBackToExactScan) {
  IndexConfig cfg = ivf_config(8, 2, true);
  cfg.train_after = 1000;  // never auto-trains in this test
  IvfIndex ivf(2, cfg);
  RetrievalIndex flat(2, 1);
  Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    auto e = entry(i, 0, {rng.uniform_f(-1, 1), rng.uniform_f(-1, 1)});
    ivf.add(e);
    flat.add(e);
  }
  EXPECT_FALSE(ivf.trained());
  const Tensor q({2}, std::vector<float>{0.1f, -0.2f});
  IvfQueryStats stats;
  const auto a = ivf.query_with_stats(q, 7, false, &stats);
  EXPECT_FALSE(stats.trained);
  EXPECT_EQ(stats.vectors_scanned, 30u);
  expect_identical(flat.query(q, 7), a);
}

TEST(IvfIndex, TrainAfterThresholdTriggersAutomatically) {
  IndexConfig cfg = ivf_config(4, 4, false);
  cfg.train_after = 16;
  IvfIndex ivf(1, cfg);
  for (int i = 0; i < 15; ++i) ivf.add(entry(i, 0, {static_cast<float>(i)}));
  EXPECT_FALSE(ivf.trained());
  ivf.add(entry(15, 0, {15.0f}));
  EXPECT_TRUE(ivf.trained());
  EXPECT_EQ(ivf.cell_count(), 4u);
  std::size_t stored = 0;
  for (std::size_t c = 0; c < ivf.cell_count(); ++c) stored += ivf.cell_size(c);
  EXPECT_EQ(stored, 16u);
  // Incremental adds after training land in cells, stay searchable.
  ivf.add(entry(16, 0, {16.0f}));
  EXPECT_EQ(ivf.size(), 17u);
  const auto top = ivf.query(Tensor({1}, std::vector<float>{16.0f}), 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 16);
}

TEST(IvfIndex, CellCountClampsToGallerySize) {
  IvfIndex ivf(1, ivf_config(64, 64, false));
  for (int i = 0; i < 5; ++i) ivf.add(entry(i, 0, {static_cast<float>(i)}));
  ivf.finalize();
  EXPECT_TRUE(ivf.trained());
  EXPECT_EQ(ivf.cell_count(), 5u);
  EXPECT_EQ(ivf.query(Tensor({1}, std::vector<float>{0.0f}), 10).size(), 5u);
}

TEST(IvfIndex, EdgeCasesEmptyMZeroDuplicateId) {
  IvfIndex ivf(1, ivf_config(4, 4, true));
  EXPECT_EQ(ivf.size(), 0u);
  EXPECT_TRUE(ivf.query(Tensor({1}, std::vector<float>{0.0f}), 5).empty());
  ivf.finalize();  // empty finalize is a no-op, not a crash
  EXPECT_FALSE(ivf.trained());
  ivf.add(entry(1, 0, {1.0f}));
  ivf.finalize();
  EXPECT_TRUE(ivf.query(Tensor({1}, std::vector<float>{0.0f}), 0).empty());
  EXPECT_EQ(ivf.query(Tensor({1}, std::vector<float>{0.0f}), 5).size(), 1u);
  EXPECT_THROW(ivf.add(entry(1, 0, {2.0f})), std::logic_error);
}

TEST(IvfIndex, RemoveWorksBeforeAndAfterTraining) {
  IndexConfig cfg = ivf_config(4, 4, true);
  cfg.train_after = 0;  // manual training only
  IvfIndex ivf(1, cfg);
  for (int i = 0; i < 20; ++i) ivf.add(entry(i, 0, {static_cast<float>(i)}));
  EXPECT_TRUE(ivf.remove(3));   // from the pending buffer
  EXPECT_FALSE(ivf.remove(3));
  ivf.finalize();
  EXPECT_TRUE(ivf.remove(7));   // from a trained cell
  EXPECT_FALSE(ivf.remove(99));
  EXPECT_EQ(ivf.size(), 18u);
  const auto all = ivf.query(Tensor({1}, std::vector<float>{0.0f}), 20);
  EXPECT_EQ(all.size(), 18u);
  for (const auto& n : all) {
    EXPECT_NE(n.id, 3);
    EXPECT_NE(n.id, 7);
  }
}

TEST(IvfIndex, RetrainFoldsCellsAndPendingBack) {
  IvfIndex ivf(1, ivf_config(4, 4, false));
  for (int i = 0; i < 12; ++i) ivf.add(entry(i, 0, {static_cast<float>(i)}));
  ivf.finalize();
  for (int i = 12; i < 24; ++i) ivf.add(entry(i, 0, {static_cast<float>(i)}));
  ivf.retrain();
  EXPECT_TRUE(ivf.trained());
  EXPECT_EQ(ivf.size(), 24u);
  const auto top = ivf.query(Tensor({1}, std::vector<float>{23.0f}), 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 23);
}

TEST(IvfIndex, MakeIndexFactorySelectsKind) {
  IndexConfig flat_cfg;
  flat_cfg.kind = IndexKind::kFlat;
  flat_cfg.num_nodes = 3;
  const auto flat = make_index(2, flat_cfg);
  EXPECT_EQ(flat->shard_count(), 3u);
  EXPECT_NE(dynamic_cast<RetrievalIndex*>(flat.get()), nullptr);
  const auto ivf = make_index(2, ivf_config(8, 2, true, 2));
  EXPECT_EQ(ivf->shard_count(), 2u);
  EXPECT_NE(dynamic_cast<IvfIndex*>(ivf.get()), nullptr);
}

// --- RetrievalSystem routing -------------------------------------------

class IvfSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = video::DatasetSpec::hmdb51_like(21);
    spec_.num_classes = 4;
    spec_.train_per_class = 5;
    spec_.test_per_class = 2;
    spec_.geometry = {8, 16, 16, 3};
    dataset_ = video::SyntheticGenerator(spec_).generate();
  }

  std::unique_ptr<RetrievalSystem> make_system(const IndexConfig& cfg,
                                               std::uint64_t seed = 33) {
    Rng rng(seed);
    auto system = std::make_unique<RetrievalSystem>(
        models::make_extractor(models::ModelKind::kC3D, spec_.geometry, 16,
                               rng),
        cfg);
    system->add_all(dataset_.train);
    return system;
  }

  video::DatasetSpec spec_;
  video::Dataset dataset_;
};

TEST_F(IvfSystemTest, SystemRetrievalMatchesFlatAtFullProbe) {
  // End-to-end acceptance through RetrievalSystem: IVF with nprobe = all
  // cells answers exactly like the flat system, for every attack-visible
  // surface (retrieve / retrieve_detailed).
  IndexConfig flat_cfg;
  flat_cfg.num_nodes = 3;
  const auto flat = make_system(flat_cfg);
  const auto ivf = make_system(ivf_config(6, 6, /*quantize=*/false, 3));
  ASSERT_EQ(flat->gallery_size(), ivf->gallery_size());
  for (const auto& v : dataset_.test) {
    EXPECT_EQ(flat->retrieve(v, 8), ivf->retrieve(v, 8));
  }
}

TEST_F(IvfSystemTest, EvaluateMapBitwiseAcrossThreadCountsOnIvf) {
  const auto system = make_system(ivf_config(6, 3, true, 3));
  double maps[2];
  const std::size_t threads[2] = {1, 8};
  for (int t = 0; t < 2; ++t) {
    const testing::PinnedComputePool pinned(threads[t]);
    maps[t] = evaluate_map(*system, dataset_.test, 5);
  }
  EXPECT_EQ(maps[0], maps[1]);
}

// ISSUE 9: graceful degradation. set_degraded(true) caps the probe count at
// degraded_nprobe for the cheaper scan; clearing it restores the exact
// pre-degradation answers bit for bit. The flat index has no cheaper mode
// and must decline the request outright.
TEST_F(IvfVsFlat, DegradedModeProbesFewerCellsAndRestoresBitwise) {
  IndexConfig cfg = ivf_config(16, 4, /*quantize=*/false);
  cfg.degraded_nprobe = 1;
  IvfIndex ivf = make_trained(cfg);
  ASSERT_TRUE(ivf.trained());
  EXPECT_FALSE(ivf.degraded());

  std::vector<std::vector<Neighbor>> healthy;
  for (const auto& q : queries_) healthy.push_back(ivf.query(q, 10));

  EXPECT_TRUE(ivf.set_degraded(true));  // IVF has a cheaper mode to offer
  EXPECT_TRUE(ivf.degraded());
  for (const auto& q : queries_) {
    IvfQueryStats stats;
    (void)ivf.query_with_stats(q, 10, false, &stats);
    EXPECT_EQ(stats.cells_probed, 1u);  // nprobe 4 -> degraded_nprobe 1
  }

  EXPECT_TRUE(ivf.set_degraded(false));
  EXPECT_FALSE(ivf.degraded());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    IvfQueryStats stats;
    const auto restored = ivf.query_with_stats(queries_[i], 10, false, &stats);
    EXPECT_EQ(stats.cells_probed, 4u);
    expect_identical(healthy[i], restored);
  }

  // Flat exact scan: no reduced-effort mode, the request is declined and
  // the index never reports itself degraded.
  RetrievalIndex flat(8, 1);
  for (const auto& e : gallery_) flat.add(e);
  EXPECT_FALSE(flat.set_degraded(true));
  EXPECT_FALSE(flat.degraded());
}

TEST_F(IvfSystemTest, RemovalRoutesThroughIvfIndex) {
  const auto system = make_system(ivf_config(6, 6, true, 3));
  const auto& victim = dataset_.train[2];
  const auto count_before = system->relevant_count(victim.label());
  EXPECT_TRUE(system->remove_from_gallery(victim.id()));
  EXPECT_EQ(system->relevant_count(victim.label()), count_before - 1);
  for (const auto id : system->retrieve(victim, 20)) {
    EXPECT_NE(id, victim.id());
  }
}

}  // namespace
}  // namespace duo::retrieval
