// Crash/recovery tests (ISSUE 10): durable index snapshots, server
// crash/restart with a reconciled billing ledger, and client reconnect with
// bitwise-identical attack outcomes.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
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
#include "heap_peak.hpp"
#include "models/serialization.hpp"
#include "retrieval/index.hpp"
#include "retrieval/ivf_index.hpp"
#include "sealed_file.hpp"
#include "serve/admission.hpp"
#include "serve/async_handle.hpp"
#include "serve/errors.hpp"
#include "serve/resilient.hpp"
#include "serve/server.hpp"

namespace duo {
namespace {

using duo::testing::read_file;
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
// the live degraded bit is the serve ladder's load response, not index
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
  serve::Ledger& l = snap.ledger;
  l.queries_served = 17;
  l.batches = 9;
  l.faults_injected = 4;
  l.requests_throttled = 2;
  l.requests_rejected = 1;
  l.requests_shed = 1;
  l.requests_expired = 2;
  l.requests_lost = 3;
  l.crashes = 2;
  l.batch_size_counts = {0, 3, 4, 2};
  l.occupancy_deciles = {5, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1};
  l.retry_after_buckets = {1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  l.latency.samples = {0.5, 1.25, 9.0};
  l.latency.count = 17;
  l.latency.max_ms = 9.0;
  l.latency.rng = Rng(0xABCDEF0123456789ULL);
  l.degrade_entries = 1;
  l.degraded_accum_ms = 12.5;
  l.degraded_served = 6;
  serve::ClientLedger a;
  a.served = 10;
  a.faulted = 3;
  a.lost = 2;
  a.latency.samples = {0.5, 1.25};
  a.latency.count = 10;
  a.latency.max_ms = 1.25;
  a.latency.rng = Rng(11);
  serve::ClientLedger b;
  b.served = 7;
  b.expired = 2;
  b.shed = 1;
  b.latency.samples = {9.0};
  b.latency.count = 7;
  b.latency.max_ms = 9.0;
  b.latency.rng = Rng(22);
  l.clients = {{"alpha", a}, {"beta", b}};
  snap.has_limiter = true;
  snap.limiter.rate = 5.0;
  snap.limiter.burst = 2.0;
  snap.limiter.buckets = {
      {"alpha", serve::TokenBucketState{5.0, 2.0, 0.5, 100.0, true}},
      {"beta", serve::TokenBucketState{5.0, 2.0, 2.0, 0.0, false}},
  };
  return snap;
}

// The payload save_snapshot writes for `snap`, without its envelope.
std::string snapshot_payload(const serve::ServerSnapshot& snap,
                             const std::string& path) {
  EXPECT_TRUE(serve::save_snapshot(snap, path));
  return testing::sealed_payload(path);
}

// Where a DUOSN1 payload keeps its length prefixes, client entries and
// limiter-bucket count, found by walking the format independently of the
// loader.
struct PayloadLayout {
  std::vector<std::size_t> length_prefixes;  // offsets of i64 lengths
  std::vector<std::pair<std::size_t, std::size_t>> clients;  // [begin, end)
  std::size_t bucket_count = 0;                               // offset
};

PayloadLayout walk_payload(const std::string& p) {
  PayloadLayout out;
  std::size_t at = 0;
  const auto length = [&] {
    std::int64_t n = 0;
    std::memcpy(&n, p.data() + at, sizeof(n));
    out.length_prefixes.push_back(at);
    at += 8;
    return static_cast<std::size_t>(n);
  };
  const auto skip_words = [&](std::size_t n) { at += 8 * n; };
  const auto vec = [&] { skip_words(length()); };
  const auto str = [&] { at += length(); };
  const auto reservoir = [&] {
    vec();          // samples
    skip_words(3);  // count, max, rng state
  };
  skip_words(10);  // epoch and nine global counters
  vec();           // batch-size histogram
  vec();           // occupancy deciles
  vec();           // retry-after buckets
  reservoir();
  skip_words(3);  // degradation totals
  const std::size_t clients = length();
  for (std::size_t i = 0; i < clients; ++i) {
    const std::size_t begin = at;
    str();
    skip_words(7);  // served .. lost
    reservoir();
    out.clients.emplace_back(begin, at);
  }
  skip_words(3);  // has_limiter, rate, burst
  out.bucket_count = at;
  const std::size_t buckets = length();
  for (std::size_t i = 0; i < buckets; ++i) {
    str();
    skip_words(5);  // rate, burst, tokens, last_ms, primed
  }
  EXPECT_EQ(at, p.size());
  return out;
}

// DUOSN1 is a durable format: a snapshot written by one build must load in
// the next, so the sample's size and whole-file fingerprint are pinned.
TEST(CrashRecovery, ServerSnapshotFormatIsPinned) {
  const std::string path = ::testing::TempDir() + "duo_crash_pin.snap";
  ASSERT_TRUE(serve::save_snapshot(sample_snapshot(), path));
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), 794u);
  EXPECT_EQ(models::io::fnv1a(bytes.data(), bytes.size()),
            0x47792b8eda8f7413ULL);
  std::remove(path.c_str());
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

  // Client entries out of order, or one id twice, are structurally invalid
  // (the snapshot contract says sorted by id); the loader rejects rather
  // than trusting. The Ledger's std::map cannot hold either, so both are
  // crafted from the sample's bytes.
  const std::string payload = snapshot_payload(snap, path);
  const PayloadLayout layout = walk_payload(payload);
  ASSERT_EQ(layout.clients.size(), 2u);
  const auto [a_begin, a_end] = layout.clients[0];
  const auto [b_begin, b_end] = layout.clients[1];
  const std::string head = payload.substr(0, a_begin);
  const std::string entry_a = payload.substr(a_begin, a_end - a_begin);
  const std::string entry_b = payload.substr(b_begin, b_end - b_begin);
  const std::string tail = payload.substr(b_end);
  for (const auto& [label, crafted] :
       {std::pair<std::string, std::string>{"out of order",
                                            head + entry_b + entry_a + tail},
        std::pair<std::string, std::string>{"duplicate id",
                                            head + entry_a + entry_a + tail}}) {
    testing::write_sealed(path, testing::kSnapshotMagic, crafted);
    serve::ServerSnapshot target = sample_snapshot();
    target.epoch = 42;  // sentinel
    const serve::ServerSnapshot expected = target;
    EXPECT_FALSE(serve::load_snapshot(target, path)) << label;
    EXPECT_TRUE(target == expected) << label;
  }
  // The same crafting with the entries in order loads back the sample.
  testing::write_sealed(path, testing::kSnapshotMagic,
                        head + entry_a + entry_b + tail);
  ASSERT_TRUE(serve::load_snapshot(loaded, path));
  EXPECT_TRUE(loaded == snap);
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
    auto& latency = global.ledger.latency;
    latency.count = bad_count(latency.samples.size());
    bad.emplace_back("global count " + std::to_string(latency.count), global);
    for (const auto& [id, entry] : global.ledger.clients) {
      serve::ServerSnapshot client = sample_snapshot();
      auto& reservoir = client.ledger.clients.at(id).latency;
      reservoir.count = bad_count(reservoir.samples.size());
      bad.emplace_back(id + " count " + std::to_string(reservoir.count),
                       client);
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

// True when every double a snapshot carries is finite.
bool all_finite(const serve::ServerSnapshot& snap) {
  std::vector<double> values = {snap.ledger.degraded_accum_ms,
                                snap.limiter.rate, snap.limiter.burst};
  const auto add_reservoir = [&](const serve::LatencyReservoir& r) {
    values.insert(values.end(), r.samples.begin(), r.samples.end());
    values.push_back(r.max_ms);
  };
  add_reservoir(snap.ledger.latency);
  for (const auto& [id, c] : snap.ledger.clients) add_reservoir(c.latency);
  for (const auto& [id, b] : snap.limiter.buckets) {
    values.insert(values.end(), {b.rate, b.burst, b.tokens, b.last_ms});
  }
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

// A restored limiter with a NaN rate passes the loader's `rate <= 0` and
// `burst < 1` checks and then grants every request, which turns throttling
// off for every client; a NaN or infinite latency or clock corrupts the
// ledger the same silent way. Each snapshot below is written by
// save_snapshot, so it sits in a valid envelope and reaches the parser.
TEST(CrashRecovery, ServerSnapshotRejectsNonFiniteDoubles) {
  const std::string path = ::testing::TempDir() + "duo_crash_nonfinite.snap";
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  using Edit = void (*)(serve::ServerSnapshot&);
  const std::pair<const char*, Edit> edits[] = {
      {"limiter rate NaN", [](serve::ServerSnapshot& s) {
         s.limiter.rate = kNaN;
       }},
      {"limiter burst +inf", [](serve::ServerSnapshot& s) {
         s.limiter.burst = kInf;
       }},
      {"bucket rate NaN", [](serve::ServerSnapshot& s) {
         s.limiter.buckets[0].second.rate = kNaN;
       }},
      {"bucket burst NaN", [](serve::ServerSnapshot& s) {
         s.limiter.buckets[1].second.burst = kNaN;
       }},
      {"bucket tokens +inf", [](serve::ServerSnapshot& s) {
         s.limiter.buckets[0].second.tokens = kInf;
       }},
      {"bucket last_ms -inf", [](serve::ServerSnapshot& s) {
         s.limiter.buckets[1].second.last_ms = -kInf;
       }},
      {"latency sample NaN", [](serve::ServerSnapshot& s) {
         s.ledger.latency.samples[1] = kNaN;
       }},
      {"latency max NaN", [](serve::ServerSnapshot& s) {
         s.ledger.latency.max_ms = kNaN;
       }},
      {"client latency sample +inf", [](serve::ServerSnapshot& s) {
         s.ledger.clients.at("beta").latency.samples[0] = kInf;
       }},
      {"degraded time NaN", [](serve::ServerSnapshot& s) {
         s.ledger.degraded_accum_ms = kNaN;
       }},
  };
  for (const auto& [label, edit] : edits) {
    serve::ServerSnapshot bad = sample_snapshot();
    edit(bad);
    ASSERT_TRUE(serve::save_snapshot(bad, path)) << label;
    serve::ServerSnapshot target = sample_snapshot();
    target.epoch = 42;  // sentinel
    const serve::ServerSnapshot expected = target;
    EXPECT_FALSE(serve::load_snapshot(target, path)) << label;
    EXPECT_TRUE(target == expected) << label;
  }
  std::remove(path.c_str());
}

// A limiter-bucket count is bounded by 2^24 but not by the payload. The
// loader appends buckets as it parses them, so a count the payload cannot
// hold fails at the first missing bucket without first reserving room for
// all of them (2^24 entries would reserve over a gigabyte).
TEST(CrashRecovery, SnapshotBucketCountBoundedByPayload) {
  const std::string path = ::testing::TempDir() + "duo_crash_buckets.snap";
  std::string payload = snapshot_payload(sample_snapshot(), path);
  const std::size_t at = walk_payload(payload).bucket_count;
  std::int64_t count = 0;
  std::memcpy(&count, payload.data() + at, sizeof(count));
  ASSERT_EQ(count, 2) << "the bucket count is not where the test expects it";
  count = std::int64_t{1} << 24;
  std::memcpy(payload.data() + at, &count, sizeof(count));
  testing::write_sealed(path, testing::kSnapshotMagic, payload);

  serve::ServerSnapshot target = sample_snapshot();
  target.epoch = 42;  // sentinel
  const serve::ServerSnapshot expected = target;
  const std::int64_t heap_before = testing::reset_heap_peak();
  bool ok = true;
  EXPECT_NO_THROW(ok = serve::load_snapshot(target, path));
  EXPECT_FALSE(ok);
  EXPECT_TRUE(target == expected);
  EXPECT_LT(testing::heap_peak_bytes() - heap_before,
            testing::kHeapGrowthBoundBytes)
      << "the loader reserved for the claimed bucket count";
  std::remove(path.c_str());
}

// Hostile-input contract of load_snapshot, by seeded mutation inside the
// envelope: every mutant gets a valid size and fingerprint, so the parser
// itself meets bit flips, extreme bytes, truncations, splices of two valid
// payloads and edits to every length prefix. The loader either rejects the
// mutant and leaves its target untouched, or returns a snapshot that holds
// only finite doubles, saves to the bytes it was parsed from and loads back
// equal. No mutant's load may raise the heap peak by more than the
// hostile-length bound, though its length edits reach 2^24 client and
// bucket entries. ASan/UBSan runs cover the parse.
TEST(CrashRecovery, SnapshotLoaderSurvivesSeededMutation) {
  const std::string path = ::testing::TempDir() + "duo_crash_fuzz.snap";
  const std::string resaved = ::testing::TempDir() + "duo_crash_fuzz2.snap";
  const std::string base = snapshot_payload(sample_snapshot(), path);
  serve::ServerSnapshot other = sample_snapshot();
  other.ledger.clients["gamma"].latency.samples = {3.0, 4.0, 5.0};
  other.ledger.clients["gamma"].latency.count = 3;
  other.has_limiter = false;
  other.limiter = {};
  const std::string donor = snapshot_payload(other, path);
  const std::vector<std::size_t> prefixes = walk_payload(base).length_prefixes;
  ASSERT_EQ(prefixes.size(), 12u);  // 4 vectors, 4 strings, 2 reservoirs,
                                    // client and bucket counts

  constexpr int kMutants = 12000;
  Rng rng(0xF022);
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = testing::seeded_mutant(i, base, donor, prefixes, rng);
    testing::write_sealed(path, testing::kSnapshotMagic, m);
    serve::ServerSnapshot target = sample_snapshot();
    target.epoch = 42;  // sentinel
    const serve::ServerSnapshot expected = target;
    const std::int64_t heap_before = testing::reset_heap_peak();
    const bool ok = serve::load_snapshot(target, path);
    ASSERT_LT(testing::heap_peak_bytes() - heap_before,
              testing::kHeapGrowthBoundBytes)
        << "mutant " << i << " allocated for a hostile length";
    if (!ok) {
      ASSERT_TRUE(target == expected) << "mutant " << i << " touched target";
      continue;
    }
    ++loaded;
    ASSERT_TRUE(all_finite(target)) << "mutant " << i;
    // Lossless: the result saves back to exactly the bytes it was parsed
    // from (a mutant may carry trailing bytes the parser never reads), and
    // those bytes load back equal.
    ASSERT_TRUE(serve::save_snapshot(target, resaved)) << "mutant " << i;
    const std::string saved = testing::sealed_payload(resaved);
    ASSERT_EQ(m.substr(0, saved.size()), saved) << "mutant " << i;
    serve::ServerSnapshot again;
    ASSERT_TRUE(serve::load_snapshot(again, resaved)) << "mutant " << i;
    ASSERT_TRUE(again == target) << "mutant " << i;
  }
  std::printf("snapshot mutants: %d of %d loaded\n", loaded, kMutants);
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
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
  EXPECT_EQ(snap.ledger.requests_lost, 2);
  EXPECT_EQ(snap.ledger.faults_injected, 2);
  EXPECT_EQ(snap.ledger.crashes, 1);
  ASSERT_EQ(snap.ledger.clients.size(), 1u);
  EXPECT_EQ(snap.ledger.clients.begin()->first, "crash-client");
  EXPECT_EQ(snap.ledger.clients.begin()->second.lost, 2);
  EXPECT_EQ(snap.ledger.clients.begin()->second.faulted, 2);

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
  const auto it = st.clients.find("crash-client");
  ASSERT_NE(it, st.clients.end());
  EXPECT_EQ(it->second.billed(), 3);
  EXPECT_EQ(it->second.lost, 2);

  // A snapshot with mangled histogram shapes must not restore.
  serve::ServerSnapshot bad = server.snapshot();
  bad.ledger.occupancy_deciles.resize(2);
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
  EXPECT_EQ(snap.ledger.requests_lost, 2);
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
  const auto it = st.clients.find("attacker");
  ASSERT_NE(it, st.clients.end());
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
  for (const auto& [id, c] : st.clients) {
    client_sum += c.billed();
    lost_sum += c.lost;
  }
  EXPECT_EQ(client_sum, server_billed);
  EXPECT_EQ(lost_sum, st.requests_lost);
}

}  // namespace
}  // namespace duo
