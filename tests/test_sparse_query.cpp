#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "attack/sparse_query.hpp"
#include "baselines/vanilla.hpp"
#include "fixtures.hpp"
#include "models/serialization.hpp"
#include "serve/async_handle.hpp"
#include "serve/server.hpp"

namespace duo::attack {
namespace {

using duo::testing::TinyWorld;

Perturbation small_support(const video::Video& v, std::uint64_t seed,
                           float theta = 10.0f, std::int64_t k = 150) {
  Rng rng(seed);
  Perturbation p = baselines::random_support(v.geometry(), k, 3, rng);
  // Give θ some signal on the support.
  Tensor noise =
      Tensor::uniform(v.geometry().tensor_shape(), -theta, theta, rng);
  p.magnitude() = noise * p.pixel_mask() * p.frame_mask();
  return p;
}

TEST(SparseQuery, THistoryIsMonotoneNonIncreasing) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[14];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 40;
  cfg.tau = 30.0f;
  cfg.m = 8;
  const auto result =
      sparse_query(v, small_support(v, 3), handle, ctx, cfg);
  ASSERT_GE(result.t_history.size(), 2u);
  for (std::size_t i = 1; i < result.t_history.size(); ++i) {
    EXPECT_LE(result.t_history[i], result.t_history[i - 1] + 1e-12);
  }
  EXPECT_DOUBLE_EQ(result.t_history.back(), result.final_t);
}

TEST(SparseQuery, NeverPerturbsOutsideSupport) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[2];
  const auto& vt = w.dataset.train[16];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  const Perturbation p = small_support(v, 4);
  SparseQueryConfig cfg;
  cfg.iter_numQ = 30;
  cfg.tau = 30.0f;
  cfg.m = 8;
  const auto result = sparse_query(v, p, handle, ctx, cfg);

  const Tensor support = p.pixel_mask() * p.frame_mask();
  const Tensor delta = result.v_adv.data() - v.data();
  for (std::int64_t i = 0; i < delta.size(); ++i) {
    if (support[i] < 0.5f) {
      EXPECT_FLOAT_EQ(delta[i], 0.0f) << "coordinate " << i;
    }
  }
}

TEST(SparseQuery, RespectsLinfBudgetAndPixelRange) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[3];
  const auto& vt = w.dataset.train[17];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 50;
  cfg.tau = 12.0f;
  cfg.m = 8;
  const auto result = sparse_query(v, small_support(v, 5, 12.0f), handle, ctx, cfg);

  const Tensor delta = result.v_adv.data() - v.data();
  // Quantization rounds to the nearest integer, so allow +0.5.
  EXPECT_LE(delta.norm_linf(), cfg.tau + 0.5f);
  EXPECT_GE(result.v_adv.data().min(), 0.0f);
  EXPECT_LE(result.v_adv.data().max(), 255.0f);
}

TEST(SparseQuery, CountsOneQueryPerEvaluation) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[4];
  const auto& vt = w.dataset.train[19];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);
  const std::int64_t before = handle.query_count();

  SparseQueryConfig cfg;
  cfg.iter_numQ = 20;
  cfg.m = 8;
  const auto result = sparse_query(v, small_support(v, 6), handle, ctx, cfg);
  EXPECT_EQ(result.queries_spent, handle.query_count() - before);
  // At most 2 candidate evaluations per iteration + the initial one.
  EXPECT_LE(result.queries_spent, 2 * cfg.iter_numQ + 1);
  EXPECT_GE(result.queries_spent, cfg.iter_numQ / 2);
}

TEST(SparseQuery, EmptySupportReturnsInitialVideo) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[5];
  const auto& vt = w.dataset.train[21];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  Perturbation p(v.geometry());
  p.pixel_mask().fill(0.0f);  // nothing selectable
  SparseQueryConfig cfg;
  cfg.iter_numQ = 10;
  const auto result = sparse_query(v, p, handle, ctx, cfg);
  EXPECT_TRUE(result.v_adv.data().allclose(v.data()));
  EXPECT_EQ(result.queries_spent, 1);  // only the initial T evaluation
}

TEST(SparseQuery, PatienceStopsEarly) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[6];
  const auto& vt = w.dataset.train[23];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig stop_cfg;
  stop_cfg.iter_numQ = 200;
  stop_cfg.patience = 5;
  stop_cfg.m = 8;
  const auto result = sparse_query(v, small_support(v, 7), handle, ctx, stop_cfg);
  EXPECT_LT(static_cast<int>(result.t_history.size()), stop_cfg.iter_numQ);
}

// The incremental quantized working copy must behave exactly like the old
// full `quantized(v_adv)` per query: every candidate the victim sees is
// integral, re-quantizing the final video is a no-op, and the trajectory is
// reproducible run-to-run.
TEST(SparseQuery, EveryVictimQueryIsQuantized) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[8];
  const auto& vt = w.dataset.train[18];

  std::int64_t checked = 0;
  retrieval::BlackBoxHandle handle(
      [&](const video::Video& q, std::size_t m) {
        for (const float x : q.data().flat()) {
          EXPECT_EQ(x, std::round(x)) << "victim saw a non-integral pixel";
        }
        ++checked;
        return w.victim->retrieve(q, m);
      });
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 25;
  cfg.tau = 30.0f;
  cfg.m = 8;
  const auto result = sparse_query(v, small_support(v, 9), handle, ctx, cfg);
  EXPECT_GT(checked, 2);  // context fetches + per-step candidates

  // The returned video is already quantized: re-rounding changes nothing.
  for (const float x : result.v_adv.data().flat()) {
    EXPECT_EQ(x, std::round(x));
  }
}

TEST(SparseQuery, TrajectoryIsReproducible) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[9];
  const auto& vt = w.dataset.train[20];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);

  SparseQueryConfig cfg;
  cfg.iter_numQ = 30;
  cfg.tau = 20.0f;
  cfg.m = 8;
  const auto a = sparse_query(v, small_support(v, 10), handle, ctx, cfg);
  const auto b = sparse_query(v, small_support(v, 10), handle, ctx, cfg);
  ASSERT_EQ(a.t_history.size(), b.t_history.size());
  for (std::size_t i = 0; i < a.t_history.size(); ++i) {
    EXPECT_EQ(a.t_history[i], b.t_history[i]) << "step " << i;
  }
  EXPECT_TRUE(a.v_adv.data().allclose(b.v_adv.data(), 0.0f));
  EXPECT_EQ(a.queries_spent, b.queries_spent);
}

// SparseQueryConfig promises that a checkpoint that does not load falls back
// to a fresh start. A t_history length prefix of 2^31 − 1 must fail the load
// instead of reaching an allocation.
TEST(SparseQuery, CorruptCheckpointFallsBackToFreshStart) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[10];
  const auto& vt = w.dataset.train[22];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8);
  const Perturbation p = small_support(v, 13);
  SparseQueryConfig cfg;
  cfg.iter_numQ = 12;
  cfg.m = 8;
  const auto fresh = sparse_query(v, p, handle, ctx, cfg);

  const std::string path = ::testing::TempDir() + "duo_sq_corrupt_ck.bin";
  SparseQueryConfig ck_cfg = cfg;
  ck_cfg.checkpoint_path = path;
  ck_cfg.checkpoint_every = 4;
  (void)sparse_query(v, p, handle, ctx, ck_cfg);  // leaves the κ = 8 save
  {
    // The prefix follows the magic, the geometry (4 × i64) and five 8-byte
    // fields (seed, support size, source hash, next iteration, T).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8 + 4 * 8 + 5 * 8);
    models::io::write_i64(f, std::numeric_limits<std::int32_t>::max());
    ASSERT_TRUE(f.good());
  }
  ck_cfg.resume = true;
  const std::int64_t before = handle.query_count();
  SparseQueryResult resumed;
  ASSERT_NO_THROW(resumed = sparse_query(v, p, handle, ctx, ck_cfg));
  EXPECT_EQ(resumed.t_history, fresh.t_history);
  EXPECT_TRUE(resumed.v_adv.data().allclose(fresh.v_adv.data(), 0.0f));
  // Nothing was carried over: this process billed the whole run.
  EXPECT_EQ(handle.query_count() - before, fresh.queries_spent);
  std::remove(path.c_str());
}

// Pipelined mode drives the victim through the serve layer with both ±ε
// candidates in flight, but runs the same loop as the serial overload: same
// t_history, bitwise-identical final video. Its query count may only exceed
// the serial one (speculative forwards are counted). The second config
// draws 24 of 60 coordinates per step, so six steps straddle a deck
// reshuffle and repeat a coordinate, and its ε ≈ 15 drives some of those
// pixels into the τ clip: a repeated pixel must move one ε, and a rejected
// step must leave it exactly where it was.
TEST(SparseQueryPipelined, MatchesSerialBitwise) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[11];
  const auto& vt = w.dataset.train[24];

  SparseQueryConfig cfg;
  cfg.iter_numQ = 30;
  cfg.tau = 30.0f;
  cfg.m = 8;
  SparseQueryConfig repeat_cfg = cfg;
  repeat_cfg.coords_per_step = 24;
  const Perturbation repeat_p = small_support(v, 12, 30.0f, 60);
  ASSERT_FALSE(
      duo::testing::repeated_coordinate_steps(repeat_p, repeat_cfg).empty());

  const struct {
    const char* name;
    Perturbation p;
    SparseQueryConfig cfg;
  } kCases[] = {{"150-coordinate support", small_support(v, 12), cfg},
                {"repeated coordinate", repeat_p, repeat_cfg}};

  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    // Serial reference first — the server must not own the extractor yet.
    retrieval::BlackBoxHandle handle(*w.victim);
    const auto ctx = make_objective_context(handle, v, vt, 8);
    const auto serial = sparse_query(v, c.p, handle, ctx, c.cfg);

    for (const std::size_t max_batch : {1u, 4u}) {
      serve::ServerConfig scfg;
      scfg.max_batch = max_batch;
      serve::RetrievalServer server(*w.victim, scfg);
      serve::AsyncBlackBoxHandle async(server);
      const auto actx = make_objective_context(async, v, vt, 8);
      EXPECT_EQ(actx.list_v, ctx.list_v);
      EXPECT_EQ(actx.list_vt, ctx.list_vt);

      const auto piped = sparse_query_pipelined(v, c.p, async, actx, c.cfg);
      server.shutdown();

      ASSERT_EQ(piped.t_history.size(), serial.t_history.size())
          << "max_batch=" << max_batch;
      for (std::size_t i = 0; i < serial.t_history.size(); ++i) {
        EXPECT_EQ(piped.t_history[i], serial.t_history[i])
            << "max_batch=" << max_batch << " step " << i;
      }
      EXPECT_EQ(piped.final_t, serial.final_t);
      ASSERT_EQ(piped.v_adv.data().size(), serial.v_adv.data().size());
      for (std::int64_t i = 0; i < serial.v_adv.data().size(); ++i) {
        ASSERT_EQ(piped.v_adv.data()[i], serial.v_adv.data()[i])
            << "max_batch=" << max_batch << " flat index " << i;
      }
      // Honest accounting: speculation can only add queries, and the async
      // handle's count is the ground truth for queries_spent.
      EXPECT_GE(piped.queries_spent, serial.queries_spent);
      EXPECT_EQ(piped.queries_spent + 2 /*context fetches*/,
                async.query_count());
    }
  }
}

TEST(SparseQueryPipelined, EmptySupportSpendsOneQuery) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[12];
  const auto& vt = w.dataset.train[26];

  serve::RetrievalServer server(*w.victim);
  serve::AsyncBlackBoxHandle async(server);
  const auto ctx = make_objective_context(async, v, vt, 8);

  Perturbation p(v.geometry());
  p.pixel_mask().fill(0.0f);
  SparseQueryConfig cfg;
  cfg.iter_numQ = 10;
  const auto result = sparse_query_pipelined(v, p, async, ctx, cfg);
  server.shutdown();
  EXPECT_TRUE(result.v_adv.data().allclose(v.data()));
  EXPECT_EQ(result.queries_spent, 1);
}

TEST(ObjectiveContext, TLossUsesMarginAndSimilarity) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[7];
  const auto& vt = w.dataset.train[25];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = make_objective_context(handle, v, vt, 8, 1.0);

  // T(v) should be high (list matches R(v) perfectly, differs from R(v_t));
  // T(v_t) should be low.
  const double t_self = t_loss(handle, v, ctx);
  const double t_target = t_loss(handle, vt, ctx);
  EXPECT_GT(t_self, t_target);

  // From-list variant agrees with the queried variant.
  const auto list = w.victim->retrieve(v, 8);
  EXPECT_DOUBLE_EQ(t_loss_from_list(list, ctx), t_self);
}

}  // namespace
}  // namespace duo::attack
