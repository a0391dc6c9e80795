// Crash/recovery tests (ISSUE 10): durable index snapshots, server
// crash/restart with a reconciled billing ledger, and client reconnect with
// bitwise-identical attack outcomes.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/objective.hpp"
#include "attack/sparse_query.hpp"
#include "baselines/vanilla.hpp"
#include "common/rng.hpp"
#include "fixtures.hpp"
#include "retrieval/index.hpp"
#include "retrieval/ivf_index.hpp"
#include "serve/admission.hpp"
#include "serve/async_handle.hpp"
#include "serve/errors.hpp"
#include "serve/resilient.hpp"
#include "serve/server.hpp"

namespace duo {
namespace {

using duo::testing::TinyWorld;

attack::Perturbation noisy_support(const video::Video& v, std::uint64_t seed) {
  Rng rng(seed);
  attack::Perturbation p = baselines::random_support(v.geometry(), 150, 3, rng);
  Tensor noise =
      Tensor::uniform(v.geometry().tensor_shape(), -10.0f, 10.0f, rng);
  p.magnitude() = noise * p.pixel_mask() * p.frame_mask();
  return p;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " diverges at element " << i;
  }
}

std::vector<retrieval::GalleryEntry> synthetic_entries(std::int64_t dim,
                                                       std::size_t count,
                                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<retrieval::GalleryEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    retrieval::GalleryEntry e;
    e.id = static_cast<std::int64_t>(i);
    e.label = static_cast<int>(i % 5);
    e.feature = Tensor::uniform({dim}, -1.0f, 1.0f, rng);
    entries.push_back(e);
  }
  return entries;
}

void expect_same_neighbors(const std::vector<retrieval::Neighbor>& got,
                           const std::vector<retrieval::Neighbor>& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(got[i].label, want[i].label) << label << " rank " << i;
    // Bitwise, not allclose: a loaded index must answer exactly.
    EXPECT_EQ(got[i].distance_sq, want[i].distance_sq) << label << " rank "
                                                       << i;
  }
}

TEST(CrashRecovery, FlatIndexStateRoundTripsBitwise) {
  constexpr std::int64_t kDim = 6;
  retrieval::RetrievalIndex index(kDim, 3);
  for (const auto& e : synthetic_entries(kDim, 20, 31)) index.add(e);

  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  index.save_state(buf);
  retrieval::RetrievalIndex loaded(kDim, 3);
  ASSERT_TRUE(loaded.load_state(buf));
  EXPECT_EQ(loaded.size(), index.size());

  Rng rng(77);
  for (int probe = 0; probe < 4; ++probe) {
    const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
    expect_same_neighbors(loaded.query(q, 20), index.query(q, 20),
                          "flat probe " + std::to_string(probe));
  }

  // Round-robin cursor survives the round trip: the next add lands on the
  // same shard either way, so subsequent answers keep matching.
  retrieval::GalleryEntry extra;
  extra.id = 1000;
  extra.label = 1;
  extra.feature = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
  index.add(extra);
  loaded.add(extra);
  const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
  expect_same_neighbors(loaded.query(q, 21), index.query(q, 21),
                        "flat post-load add");
}

TEST(CrashRecovery, IvfIndexStateRoundTripsBitwise) {
  constexpr std::int64_t kDim = 6;
  for (const bool quantize : {true, false}) {
    for (const bool trained : {true, false}) {
      const std::string label = std::string("ivf quantize=") +
                                (quantize ? "on" : "off") +
                                (trained ? " trained" : " pending");
      retrieval::IndexConfig cfg;
      cfg.kind = retrieval::IndexKind::kIvf;
      cfg.num_nodes = 2;
      cfg.num_cells = 4;
      cfg.nprobe = 4;
      cfg.quantize = quantize;
      cfg.train_after = 1 << 20;  // never auto-train; finalize() decides
      cfg.seed = 7;

      retrieval::IvfIndex index(kDim, cfg);
      for (const auto& e : synthetic_entries(kDim, 40, 41)) index.add(e);
      if (trained) index.finalize();
      ASSERT_EQ(index.trained(), trained) << label;

      std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
      index.save_state(buf);
      retrieval::IvfIndex loaded(kDim, cfg);
      ASSERT_TRUE(loaded.load_state(buf)) << label;
      EXPECT_EQ(loaded.trained(), trained) << label;
      EXPECT_EQ(loaded.size(), index.size()) << label;

      Rng rng(55);
      for (int probe = 0; probe < 4; ++probe) {
        const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
        expect_same_neighbors(loaded.query(q, 10), index.query(q, 10),
                              label + " probe " + std::to_string(probe));
      }

      if (!trained) {
        // A pending buffer that round-tripped must train to the identical
        // cell structure (same content, same seed → same k-means).
        index.finalize();
        loaded.finalize();
        const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
        expect_same_neighbors(loaded.query(q, 10), index.query(q, 10),
                              label + " post-load finalize");
      }
    }
  }
}

TEST(CrashRecovery, IndexLoadRejectsMismatchAndCorruption) {
  constexpr std::int64_t kDim = 6;
  retrieval::RetrievalIndex flat(kDim, 2);
  for (const auto& e : synthetic_entries(kDim, 12, 13)) flat.add(e);

  const std::string path = ::testing::TempDir() + "duo_crash_idx.bin";
  std::remove(path.c_str());
  EXPECT_FALSE(retrieval::load_index(flat, path));  // missing file
  ASSERT_TRUE(retrieval::save_index(flat, path));

  // Kind mismatch: a flat snapshot must not load into an IVF index.
  retrieval::IndexConfig icfg;
  icfg.kind = retrieval::IndexKind::kIvf;
  retrieval::IvfIndex ivf(kDim, icfg);
  EXPECT_FALSE(retrieval::load_index(ivf, path));
  EXPECT_EQ(ivf.size(), 0u);  // untouched on failure

  // Dim mismatch.
  retrieval::RetrievalIndex narrow(kDim - 1, 2);
  EXPECT_FALSE(retrieval::load_index(narrow, path));
  EXPECT_EQ(narrow.size(), 0u);

  // A flipped payload byte breaks the fingerprint.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    bytes[bytes.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  retrieval::RetrievalIndex fresh(kDim, 2);
  EXPECT_FALSE(retrieval::load_index(fresh, path));
  EXPECT_EQ(fresh.size(), 0u);
  std::remove(path.c_str());
}

// Regression for the IvfIndex move constructor (and the save/load contract):
// the live degraded bit is the serve scheduler's load response, not index
// content — a snapshot taken while degraded must come back up with the
// configured nprobe.
TEST(CrashRecovery, DegradedBitNeverLeaksIntoSnapshotsOrMoves) {
  constexpr std::int64_t kDim = 6;
  retrieval::IndexConfig cfg;
  cfg.kind = retrieval::IndexKind::kIvf;
  cfg.num_cells = 8;
  cfg.nprobe = 8;
  cfg.degraded_nprobe = 1;
  cfg.quantize = false;
  cfg.train_after = 1 << 20;
  cfg.seed = 7;
  retrieval::IvfIndex index(kDim, cfg);
  for (const auto& e : synthetic_entries(kDim, 64, 91)) index.add(e);
  index.finalize();

  Rng rng(17);
  const Tensor q = Tensor::uniform({kDim}, -1.0f, 1.0f, rng);
  const auto healthy = index.query(q, 10);

  ASSERT_TRUE(index.set_degraded(true));
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  index.save_state(buf);

  retrieval::IvfIndex loaded(kDim, cfg);
  ASSERT_TRUE(loaded.load_state(buf));
  EXPECT_FALSE(loaded.degraded());
  expect_same_neighbors(loaded.query(q, 10), healthy,
                        "loaded-from-degraded answers at configured nprobe");

  retrieval::IvfIndex moved(std::move(loaded));
  EXPECT_FALSE(moved.degraded());
  expect_same_neighbors(moved.query(q, 10), healthy, "moved-from-degraded");
}

TEST(CrashRecovery, TokenBucketAndRateLimiterStateRoundTrip) {
  serve::TokenBucket bucket(2.0, 2.0);
  EXPECT_EQ(bucket.try_acquire(10.0), 0.0);
  EXPECT_EQ(bucket.try_acquire(10.0), 0.0);
  EXPECT_GT(bucket.try_acquire(10.0), 0.0);  // burst drained

  // A restored bucket makes the snapshotted bucket's decisions — even when
  // the restore target was configured completely differently (the state
  // carries rate/burst), and even though the burst was empty at snapshot
  // time (no fresh burst after recovery).
  serve::TokenBucket restored(99.0, 50.0);
  restored.restore(bucket.state());
  for (const double t : {11.0, 400.0, 600.0, 610.0, 5000.0}) {
    EXPECT_EQ(restored.try_acquire(t), bucket.try_acquire(t)) << "t=" << t;
  }

  serve::RateLimiter limiter(5.0, 2.0);
  (void)limiter.try_acquire("beta", 0.0);
  (void)limiter.try_acquire("alpha", 0.0);
  (void)limiter.try_acquire("alpha", 0.0);
  const serve::RateLimiter::State snap = limiter.snapshot();
  ASSERT_EQ(snap.buckets.size(), 2u);
  EXPECT_EQ(snap.buckets[0].first, "alpha");  // sorted, deterministic
  EXPECT_EQ(snap.buckets[1].first, "beta");

  serve::RateLimiter fresh(5.0, 2.0);
  fresh.restore(snap);
  EXPECT_EQ(fresh.clients_seen(), 2);
  for (const double t : {1.0, 150.0, 400.0, 401.0}) {
    for (const char* id : {"alpha", "beta", "gamma"}) {
      EXPECT_EQ(fresh.try_acquire(id, t), limiter.try_acquire(id, t))
          << id << " t=" << t;
    }
  }
}

serve::ServerSnapshot sample_snapshot() {
  serve::ServerSnapshot snap;
  snap.epoch = 3;
  snap.queries_served = 17;
  snap.batches = 9;
  snap.faults_injected = 4;
  snap.requests_throttled = 2;
  snap.requests_rejected = 1;
  snap.requests_shed = 1;
  snap.requests_expired = 2;
  snap.requests_lost = 3;
  snap.crashes = 2;
  snap.batch_size_counts = {0, 3, 4, 2};
  snap.occupancy_deciles = {5, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1};
  snap.retry_after_buckets = {1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  snap.latency_reservoir = {0.5, 1.25, 9.0};
  snap.latency_count = 17;
  snap.max_latency_ms = 9.0;
  snap.reservoir_rng_state = 0xABCDEF0123456789ULL;
  snap.degrade_entries = 1;
  snap.degraded_accum_ms = 12.5;
  snap.degraded_served = 6;
  serve::ServerSnapshot::ClientSlice a;
  a.id = "alpha";
  a.served = 10;
  a.faulted = 3;
  a.lost = 2;
  a.reservoir = {0.5, 1.25};
  a.latency_count = 10;
  a.max_latency_ms = 1.25;
  a.rng_state = 11;
  serve::ServerSnapshot::ClientSlice b;
  b.id = "beta";
  b.served = 7;
  b.expired = 2;
  b.shed = 1;
  b.reservoir = {9.0};
  b.latency_count = 7;
  b.max_latency_ms = 9.0;
  b.rng_state = 22;
  snap.clients = {a, b};
  snap.has_limiter = true;
  snap.limiter.rate = 5.0;
  snap.limiter.burst = 2.0;
  snap.limiter.buckets = {
      {"alpha", serve::TokenBucketState{5.0, 2.0, 0.5, 100.0, true}},
      {"beta", serve::TokenBucketState{5.0, 2.0, 2.0, 0.0, false}},
  };
  return snap;
}

TEST(CrashRecovery, ServerSnapshotFileRoundTripsAndRejectsCorruption) {
  const serve::ServerSnapshot snap = sample_snapshot();
  const std::string path = ::testing::TempDir() + "duo_crash_server.snap";
  std::remove(path.c_str());

  serve::ServerSnapshot loaded;
  EXPECT_FALSE(serve::load_snapshot(loaded, path));  // missing file
  ASSERT_TRUE(serve::save_snapshot(snap, path));
  ASSERT_TRUE(serve::load_snapshot(loaded, path));
  EXPECT_TRUE(loaded == snap);

  // Flip one payload byte: the fingerprint rejects, the output is untouched.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    bytes[bytes.size() - 5] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  serve::ServerSnapshot untouched = sample_snapshot();
  untouched.epoch = 42;  // sentinel
  EXPECT_FALSE(serve::load_snapshot(untouched, path));
  EXPECT_EQ(untouched.epoch, 42);

  // Garbage bytes.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a server snapshot";
  }
  EXPECT_FALSE(serve::load_snapshot(loaded, path));

  // Client slices out of order are structurally invalid (the snapshot
  // contract says sorted-by-id); the loader rejects rather than trusting.
  serve::ServerSnapshot unsorted = snap;
  std::swap(unsorted.clients[0], unsorted.clients[1]);
  ASSERT_TRUE(serve::save_snapshot(unsorted, path));
  EXPECT_FALSE(serve::load_snapshot(loaded, path));
  std::remove(path.c_str());
}

// A reservoir samples the latencies counted so far, so a latency count
// below the reservoir's size is corrupt. Restoring one would make the next
// served request draw a reservoir slot from an empty range.
TEST(CrashRecovery, ServerSnapshotRejectsCountBelowReservoirSize) {
  const std::string path = ::testing::TempDir() + "duo_crash_count.snap";
  std::vector<std::pair<std::string, serve::ServerSnapshot>> bad;
  for (const bool minus_one : {true, false}) {
    // Either -1 or one below the reservoir's size.
    auto bad_count = [&](std::size_t reservoir_size) {
      return minus_one ? std::int64_t{-1}
                       : static_cast<std::int64_t>(reservoir_size) - 1;
    };
    serve::ServerSnapshot global = sample_snapshot();
    global.latency_count = bad_count(global.latency_reservoir.size());
    bad.emplace_back("global count " + std::to_string(global.latency_count),
                     global);
    for (std::size_t c = 0; c < global.clients.size(); ++c) {
      serve::ServerSnapshot client = sample_snapshot();
      auto& slice = client.clients[c];
      slice.latency_count = bad_count(slice.reservoir.size());
      bad.emplace_back(
          slice.id + " count " + std::to_string(slice.latency_count), client);
    }
  }
  for (const auto& [label, snap] : bad) {
    ASSERT_TRUE(serve::save_snapshot(snap, path)) << label;
    serve::ServerSnapshot out = sample_snapshot();
    out.epoch = 42;  // sentinel
    const serve::ServerSnapshot expected = out;
    EXPECT_FALSE(serve::load_snapshot(out, path)) << label;
    EXPECT_TRUE(out == expected) << label;
  }
  // The unmodified sample, whose counts cover their reservoirs, still loads.
  ASSERT_TRUE(serve::save_snapshot(sample_snapshot(), path));
  serve::ServerSnapshot loaded;
  EXPECT_TRUE(serve::load_snapshot(loaded, path));
  EXPECT_TRUE(loaded == sample_snapshot());
  std::remove(path.c_str());
}

// The core lifecycle: crash() fails every queued request as a billed
// connection loss, submits during downtime bounce unbilled, and restart(snap)
// resumes serving with the epoch bumped and the ledger intact.
TEST(CrashRecovery, CrashFailsQueuedRequestsBilledAndRestartResumes) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[2];
  const auto ref = w.victim->retrieve(v, 8);

  serve::ServerConfig scfg;
  // Latency-aware batching keeps sub-max_batch submissions queued (a real
  // wall-time wait), so the two requests below are deterministically still
  // in the queue when crash() lands microseconds later.
  scfg.max_batch = 4;
  scfg.batch_timeout_ms = 1500.0;
  serve::RetrievalServer server(*w.victim, scfg);
  serve::RequestOptions opts;
  opts.client_id = "crash-client";

  EXPECT_THROW((void)server.snapshot(), std::logic_error);  // running
  EXPECT_THROW(server.restart(), std::logic_error);

  auto f1 = server.submit(v, 8, opts);
  auto f2 = server.submit(v, 8, opts);
  server.crash();
  EXPECT_TRUE(server.stopped());
  EXPECT_TRUE(server.crashed());
  server.crash();  // idempotent

  for (auto* f : {&f1, &f2}) {
    try {
      (void)f->get();
      FAIL() << "queued request must die with the crash";
    } catch (const serve::ServeError& e) {
      EXPECT_TRUE(e.connection_lost());
      EXPECT_TRUE(e.retryable());
      EXPECT_TRUE(e.billed());  // accepted before the crash → stays billed
      EXPECT_FALSE(e.overload());
    }
  }

  // Down, not shut down: a submit bounces with the retryable reconnect
  // error and bills nothing.
  auto f3 = server.submit(v, 8, opts);
  try {
    (void)f3.get();
    FAIL() << "submit while crashed must fail";
  } catch (const serve::ServeError& e) {
    EXPECT_TRUE(e.connection_lost());
    EXPECT_FALSE(e.billed());
  }

  serve::ServerSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.epoch, 1);
  EXPECT_EQ(snap.requests_lost, 2);
  EXPECT_EQ(snap.faults_injected, 2);
  EXPECT_EQ(snap.crashes, 1);
  ASSERT_EQ(snap.clients.size(), 1u);
  EXPECT_EQ(snap.clients[0].id, "crash-client");
  EXPECT_EQ(snap.clients[0].lost, 2);
  EXPECT_EQ(snap.clients[0].faulted, 2);

  server.restart(snap);
  EXPECT_FALSE(server.stopped());
  EXPECT_FALSE(server.crashed());
  EXPECT_EQ(server.epoch(), 2);

  auto f4 = server.submit(v, 8, opts);
  EXPECT_EQ(f4.get(), ref);  // bitwise-identical answers after recovery
  server.shutdown();

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.server_epoch, 2);
  EXPECT_EQ(st.crashes, 1);
  EXPECT_EQ(st.queries_served, 1);
  EXPECT_EQ(st.requests_lost, 2);
  EXPECT_EQ(st.faults_injected, 2);
  // Ledger formula holds verbatim across the crash: lost ⊂ faulted.
  EXPECT_EQ(st.queries_served + st.faults_injected + st.requests_expired +
                st.requests_shed,
            3);
  const auto it = st.per_client.find("crash-client");
  ASSERT_NE(it, st.per_client.end());
  EXPECT_EQ(it->second.billed(), 3);
  EXPECT_EQ(it->second.lost, 2);

  // A snapshot with mangled histogram shapes must not restore.
  serve::ServerSnapshot bad = server.snapshot();
  bad.occupancy_deciles.resize(2);
  EXPECT_THROW(server.restart(bad), std::logic_error);
}

// Every request lost to one crash() gets its own exception object. A shared
// one would be rethrown by each client's future on its own thread at once.
TEST(CrashRecovery, LostRequestsRethrowDistinctExceptionObjects) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[2];
  serve::ServerConfig scfg;
  // As above: the batching timeout keeps both requests queued until crash().
  scfg.max_batch = 4;
  scfg.batch_timeout_ms = 1500.0;
  serve::RetrievalServer server(*w.victim, scfg);
  auto f1 = server.submit(v, 8);
  auto f2 = server.submit(v, 8);
  server.crash();

  std::vector<std::exception_ptr> held;
  std::vector<const serve::ServeError*> addresses;
  for (auto* f : {&f1, &f2}) {
    try {
      (void)f->get();
      FAIL() << "queued request must die with the crash";
    } catch (const serve::ServeError& e) {
      EXPECT_TRUE(e.connection_lost());
      held.push_back(std::current_exception());  // keeps `e` alive
      addresses.push_back(&e);
    }
  }
  ASSERT_EQ(addresses.size(), 2u);
  EXPECT_NE(addresses[0], addresses[1]);
  EXPECT_NE(held[0], held[1]);
}

TEST(CrashRecovery, RestartWithoutSnapshotStartsFreshLedger) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[3];
  serve::RetrievalServer server(*w.victim);
  (void)server.submit(v, 8).get();
  server.shutdown();
  EXPECT_EQ(server.stats().queries_served, 1);

  server.restart();  // fresh process: accounting starts over, epoch moves on
  EXPECT_EQ(server.epoch(), 2);
  EXPECT_EQ(server.stats().queries_served, 0);
  (void)server.submit(v, 8).get();
  server.shutdown();
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.queries_served, 1);
  EXPECT_EQ(st.server_epoch, 2);
}

// ISSUE satellite: the server dies with a pipelined ±ε candidate pair in
// flight. The resilient client replays both across the restart; each is
// billed exactly once more, answers are bitwise identical, and the ledger
// reconciles client-side vs server-side.
TEST(CrashRecovery, PipelinedPairReplaysAcrossRestartBitwise) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v_plus = w.dataset.train[1];
  const auto& v_minus = w.dataset.train[9];
  const auto ref_plus = w.victim->retrieve(v_plus, 8);
  const auto ref_minus = w.victim->retrieve(v_minus, 8);

  serve::ServerConfig scfg;
  scfg.max_batch = 4;
  scfg.batch_timeout_ms = 1000.0;  // holds both candidates queued (see above)
  serve::RetrievalServer server(*w.victim, scfg);
  serve::RequestOptions opts;
  opts.client_id = "attacker";
  serve::AsyncBlackBoxHandle async(server, opts);
  serve::RetryPolicy policy;
  policy.query_timeout = std::chrono::milliseconds(20000);
  serve::ResilientHandle resilient(async, policy);

  auto plus = resilient.submit(v_plus, 8);
  auto minus = resilient.submit(v_minus, 8);
  server.crash();
  serve::ServerSnapshot snap = server.snapshot();
  EXPECT_EQ(snap.requests_lost, 2);
  server.restart(snap);

  // get() classifies the connection loss, waits out the downtime (already
  // over), and resubmits — in submission order, so the ±ε replay sequence
  // matches the crash-free schedule.
  EXPECT_EQ(plus.get(), ref_plus);
  EXPECT_EQ(minus.get(), ref_minus);
  server.shutdown();

  EXPECT_EQ(resilient.connection_losses(), 2);
  EXPECT_EQ(resilient.retries(), 0);  // reconnects are not attempt-counted
  EXPECT_EQ(resilient.queries_billed(), 4);  // lost pair + replayed pair

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.server_epoch, 2);
  EXPECT_EQ(st.queries_served, 2);
  EXPECT_EQ(st.requests_lost, 2);
  EXPECT_EQ(st.queries_served + st.faults_injected + st.requests_expired +
                st.requests_shed,
            resilient.queries_billed());
  const auto it = st.per_client.find("attacker");
  ASSERT_NE(it, st.per_client.end());
  EXPECT_EQ(it->second.billed(), 4);
  EXPECT_EQ(it->second.lost, 2);
}

// ISSUE acceptance (direct form): a pipelined sparse-query attack rides out
// two abrupt crash/restart cycles — snapshot-restored each time — and its
// trajectory and adversarial video stay bitwise identical to the crash-free
// reference, with the billing ledger reconciled exactly.
TEST(CrashRecovery, SparseAttackSurvivesCrashRestartCyclesBitwise) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  const attack::Perturbation pert = noisy_support(v, 21);

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 16;
  cfg.m = 8;
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  serve::RetrievalServer server(*w.victim);
  serve::AsyncBlackBoxHandle async(server);
  serve::RetryPolicy policy;
  // Generous answer timeout: crash losses surface as fast typed failures,
  // not timeouts, so the timeout only needs to cover honest (possibly
  // sanitizer-slowed) service.
  policy.query_timeout = std::chrono::milliseconds(20000);
  serve::ResilientHandle resilient(async, policy);

  // Two abrupt mid-attack crash/restart cycles from a chaos thread, each
  // restored from an accounting snapshot. If the attack outruns the chaos
  // schedule on a fast machine, the cycles hit an idle server — the bitwise
  // and ledger assertions below hold either way.
  std::thread chaos([&server] {
    for (int cycle = 0; cycle < 2; ++cycle) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      server.crash();
      serve::ServerSnapshot snap = server.snapshot();
      server.restart(snap);
    }
  });

  std::optional<attack::SparseQueryResult> got;
  try {
    got = attack::sparse_query_pipelined(v, pert, resilient, ctx, cfg);
  } catch (const std::exception& e) {
    chaos.join();
    server.shutdown();
    FAIL() << "crashes must never surface through the reconnect policy: "
           << e.what();
  }
  chaos.join();
  server.shutdown();

  EXPECT_EQ(got->t_history, ref.t_history);
  expect_bitwise_equal(got->v_adv.data(), ref.v_adv.data(), "v_adv");
  EXPECT_GE(got->queries_spent, ref.queries_spent);

  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.crashes, 2);
  EXPECT_EQ(st.server_epoch, 3);
  // Every lost request was a billed connection loss the client survived;
  // unbilled bounces during downtime are counted client-side only.
  EXPECT_GE(resilient.connection_losses(), st.requests_lost);
  // Ledger reconciliation across both restarts, global and per client.
  const std::int64_t server_billed = st.queries_served + st.faults_injected +
                                     st.requests_expired + st.requests_shed;
  EXPECT_EQ(server_billed, resilient.queries_billed());
  std::int64_t client_sum = 0;
  std::int64_t lost_sum = 0;
  for (const auto& [id, c] : st.per_client) {
    client_sum += c.billed();
    lost_sum += c.lost;
  }
  EXPECT_EQ(client_sum, server_billed);
  EXPECT_EQ(lost_sum, st.requests_lost);
}

}  // namespace
}  // namespace duo
