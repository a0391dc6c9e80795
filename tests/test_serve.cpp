// RetrievalServer / AsyncBlackBoxHandle: answers must be bitwise identical
// to direct RetrievalSystem::retrieve calls for any client count and
// max_batch; shutdown must drain and fulfill every queued future; the
// bounded queue must apply backpressure without deadlocking; stats must
// account every request. These suites (together with the pipelined
// SparseQuery tests) are the TSAN gate for the serve layer.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/fairness.hpp"
#include "common/thread_pool.hpp"
#include "fixtures.hpp"
#include "metrics/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/async_handle.hpp"
#include "serve/clock.hpp"
#include "serve/fault_injection.hpp"
#include "serve/resilient.hpp"
#include "serve/server.hpp"
#include "video/synthetic.hpp"

namespace duo::serve {
namespace {

// A small untrained world: serve-layer correctness is about plumbing, not
// retrieval quality, so random extractor weights keep the fixture fast.
struct ServeWorld {
  video::DatasetSpec spec;
  video::Dataset dataset;
  std::unique_ptr<retrieval::RetrievalSystem> system;
  // Direct answers computed before any server touches the extractor.
  std::vector<metrics::RetrievalList> expected;  // for dataset.test, m = 5

  static const ServeWorld& instance() {
    static ServeWorld world = build();
    return world;
  }
  static ServeWorld& mutable_instance() {
    return const_cast<ServeWorld&>(instance());
  }

 private:
  static ServeWorld build() {
    ServeWorld w;
    w.spec = video::DatasetSpec::hmdb51_like(31);
    w.spec.num_classes = 4;
    w.spec.train_per_class = 5;
    w.spec.test_per_class = 3;
    w.spec.geometry = {8, 16, 16, 3};
    w.dataset = video::SyntheticGenerator(w.spec).generate();

    Rng rng(91);
    auto extractor = models::make_extractor(models::ModelKind::kC3D,
                                            w.spec.geometry, 16, rng);
    w.system =
        std::make_unique<retrieval::RetrievalSystem>(std::move(extractor), 3);
    w.system->add_all(w.dataset.train);

    w.expected.reserve(w.dataset.test.size());
    for (const auto& v : w.dataset.test) {
      w.expected.push_back(w.system->retrieve(v, 5));
    }
    return w;
  }
};

// Forwards of an extractor and its clones meet here. Once armed with n, a
// forward waits until n forwards wait at once, or kBound passes, and then
// goes ahead. `met` records that n forwards were in flight together; the
// bound only keeps a server that never runs them together from hanging the
// test, which then fails on `met`.
struct Rendezvous {
  static constexpr std::chrono::seconds kBound{10};

  std::mutex mutex;
  std::condition_variable cv;
  int needed = 0;   // 0: disarmed, forwards pass straight through
  int started = 0;  // forwards that arrived while armed
  int waiting = 0;
  bool met = false;

  void arm(int n) {
    std::lock_guard<std::mutex> lock(mutex);
    needed = n;
  }
  void arrive() {
    std::unique_lock<std::mutex> lock(mutex);
    if (needed == 0) return;
    ++started;
    if (++waiting >= needed) met = true;
    cv.notify_all();
    cv.wait_for(lock, kBound, [this] { return met; });
    --waiting;
  }
  // Waits (bounded) until `n` forwards have arrived.
  bool wait_started(int n) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, kBound, [&] { return started >= n; });
  }
  bool was_met() {
    std::lock_guard<std::mutex> lock(mutex);
    return met;
  }
};

// Waits, up to 10 s, until `server`'s lanes have taken `ticks` batches off
// the queue: every tick records its occupancy.
bool wait_for_ticks(const RetrievalServer& server, std::int64_t ticks) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    const auto deciles = server.stats().occupancy_deciles;
    if (std::accumulate(deciles.begin(), deciles.end(), std::int64_t{0}) >=
        ticks) {
      return true;
    }
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ServeWorld's gallery and weights behind an extractor whose every forward,
// on the system's extractor and on its clones, passes through `rendezvous`,
// so forwards on different lanes meet and answers equal
// ServeWorld::expected.
std::unique_ptr<retrieval::RetrievalSystem> rendezvous_system(
    const std::shared_ptr<Rendezvous>& rendezvous) {
  const auto& w = ServeWorld::instance();
  Rng rng(91);
  auto hooks = std::make_shared<testing::ExtractorHooks>();
  hooks->on_forward = [rendezvous] { rendezvous->arrive(); };
  auto system = std::make_unique<retrieval::RetrievalSystem>(
      std::make_unique<testing::HookedExtractor>(
          models::make_extractor(models::ModelKind::kC3D, w.spec.geometry, 16,
                                 rng),
          std::move(hooks)),
      3);
  system->add_all(w.dataset.train);
  return system;
}

TEST(Serve, AnswersMatchDirectRetrieveAcrossBatchSizes) {
  auto& w = ServeWorld::mutable_instance();
  for (const std::size_t max_batch : {1u, 3u, 8u}) {
    ServerConfig cfg;
    cfg.max_batch = max_batch;
    RetrievalServer server(*w.system, cfg);
    std::vector<std::future<metrics::RetrievalList>> futures;
    for (const auto& v : w.dataset.test) {
      futures.push_back(server.submit(v, 5));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      EXPECT_EQ(futures[i].get(), w.expected[i])
          << "max_batch=" << max_batch << " query " << i;
    }
    server.shutdown();
  }
}

TEST(Serve, ConcurrentClientsGetBitwiseIdenticalAnswers) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 16;
  RetrievalServer server(*w.system, cfg);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::size_t vi = static_cast<std::size_t>(t + q * kClients) %
                               w.dataset.test.size();
        const auto answer = server.submit(w.dataset.test[vi], 5).get();
        if (answer != w.expected[vi]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& c : clients) c.join();
  server.shutdown();
  EXPECT_EQ(mismatches.load(), 0);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, kClients * kQueriesPerClient);
}

TEST(Serve, ShutdownDrainsAndFulfillsEveryQueuedFuture) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 2;
  cfg.queue_capacity = 64;
  RetrievalServer server(*w.system, cfg);

  std::vector<std::future<metrics::RetrievalList>> futures;
  std::vector<std::size_t> indices;
  for (int r = 0; r < 3; ++r) {
    for (std::size_t i = 0; i < w.dataset.test.size(); ++i) {
      futures.push_back(server.submit(w.dataset.test[i], 5));
      indices.push_back(i);
    }
  }
  // Shut down immediately: most requests are still queued, and all of them
  // must still be answered (graceful drain), with correct results.
  server.shutdown();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), w.expected[indices[i]]) << "future " << i;
  }
}

TEST(Serve, SubmitAfterShutdownFailsTheFuture) {
  auto& w = ServeWorld::mutable_instance();
  RetrievalServer server(*w.system);
  server.shutdown();
  EXPECT_TRUE(server.stopped());
  auto future = server.submit(w.dataset.test.front(), 5);
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(Serve, ShutdownIsIdempotent) {
  auto& w = ServeWorld::mutable_instance();
  RetrievalServer server(*w.system);
  (void)server.submit(w.dataset.test.front(), 5).get();
  server.shutdown();
  server.shutdown();  // second call is a no-op
  EXPECT_TRUE(server.stopped());
}

TEST(Serve, BoundedQueueBackpressureDoesNotDeadlock) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.queue_capacity = 2;  // tiny: submitters must block and resume
  RetrievalServer server(*w.system, cfg);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 8;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::size_t vi =
            static_cast<std::size_t>(t) % w.dataset.test.size();
        if (!server.submit(w.dataset.test[vi], 5).get().empty()) {
          answered.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  server.shutdown();
  EXPECT_EQ(answered.load(), kClients * kQueriesPerClient);
}

TEST(Serve, StatsAccountEveryQueryAndBatch) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 4;
  RetrievalServer server(*w.system, cfg);

  const int n = 10;
  std::vector<std::future<metrics::RetrievalList>> futures;
  for (int i = 0; i < n; ++i) {
    futures.push_back(server.submit(
        w.dataset.test[static_cast<std::size_t>(i) % w.dataset.test.size()],
        5));
  }
  for (auto& f : futures) (void)f.get();
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, n);
  ASSERT_EQ(stats.batch_size_counts.size(), cfg.max_batch + 1);
  std::int64_t histogram_queries = 0;
  std::int64_t histogram_batches = 0;
  for (std::size_t s = 1; s < stats.batch_size_counts.size(); ++s) {
    histogram_queries +=
        static_cast<std::int64_t>(s) * stats.batch_size_counts[s];
    histogram_batches += stats.batch_size_counts[s];
  }
  EXPECT_EQ(histogram_queries, n);
  EXPECT_EQ(histogram_batches, stats.batches);
  EXPECT_GE(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_LE(stats.p95_latency_ms, stats.latency.max_ms);
  EXPECT_GT(stats.mean_batch_size(), 0.0);

  server.reset_stats();
  const ServerStats zeroed = server.stats();
  EXPECT_EQ(zeroed.queries_served, 0);
  EXPECT_EQ(zeroed.batches, 0);
}

TEST(Serve, AsyncHandleCountsQueriesThreadSafely) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 8;
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle handle(server);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 10;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        (void)handle.retrieve(
            w.dataset.test[static_cast<std::size_t>(t) %
                           w.dataset.test.size()],
            5);
      }
    });
  }
  for (auto& c : clients) c.join();
  server.shutdown();
  EXPECT_EQ(handle.query_count(), kClients * kQueriesPerClient);
  EXPECT_EQ(handle.server_stats().queries_served,
            kClients * kQueriesPerClient);
  handle.reset_query_count();
  EXPECT_EQ(handle.query_count(), 0);
}

TEST(Serve, OwningConstructorServesAndDestructs) {
  const auto& w = ServeWorld::instance();
  Rng rng(91);  // same seed as the fixture → same extractor weights
  auto extractor =
      models::make_extractor(models::ModelKind::kC3D, w.spec.geometry, 16, rng);
  auto system =
      std::make_unique<retrieval::RetrievalSystem>(std::move(extractor), 3);
  system->add_all(w.dataset.train);

  RetrievalServer server(std::move(system));
  const auto answer = server.submit(w.dataset.test.front(), 5).get();
  EXPECT_EQ(answer, w.expected.front());
  // Destructor performs the shutdown.
}

TEST(Serve, RejectsDegenerateConfig) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig no_batch;
  no_batch.max_batch = 0;
  EXPECT_THROW(RetrievalServer(*w.system, no_batch), std::logic_error);
  ServerConfig no_queue;
  no_queue.queue_capacity = 0;
  EXPECT_THROW(RetrievalServer(*w.system, no_queue), std::logic_error);
  ServerConfig no_reservoir;
  no_reservoir.latency_reservoir = 0;
  EXPECT_THROW(RetrievalServer(*w.system, no_reservoir), std::logic_error);
  ServerConfig negative_timeout;
  negative_timeout.batch_timeout_ms = -1.0;
  EXPECT_THROW(RetrievalServer(*w.system, negative_timeout), std::logic_error);
  ServerConfig inverted_ladder;
  inverted_ladder.degrade_high = 0.5;
  inverted_ladder.degrade_low = 0.5;  // exit mark must sit below the entry
  EXPECT_THROW(RetrievalServer(*w.system, inverted_ladder), std::logic_error);
  ServerConfig high_above_full;
  high_above_full.degrade_high = 1.5;  // occupancy share cannot exceed 1
  EXPECT_THROW(RetrievalServer(*w.system, high_above_full), std::logic_error);
}

// Satellite regression: shutdown() raced from several threads used to be a
// double-join hazard; every racer must block until the drain completes and
// queued futures must still be answered. Run under TSan by tsan_check.sh.
TEST(Serve, ConcurrentShutdownIsSafe) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 2;
  RetrievalServer server(*w.system, cfg);

  std::vector<std::future<metrics::RetrievalList>> futures;
  std::vector<std::size_t> indices;
  for (int r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < w.dataset.test.size(); ++i) {
      futures.push_back(server.submit(w.dataset.test[i], 5));
      indices.push_back(i);
    }
  }

  constexpr int kRacers = 4;
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int t = 0; t < kRacers; ++t) {
    racers.emplace_back([&server] { server.shutdown(); });
  }
  for (auto& r : racers) r.join();
  EXPECT_TRUE(server.stopped());
  // Every racer returned only after the drain: all futures are answered.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), w.expected[indices[i]]) << "future " << i;
  }
  server.shutdown();  // still idempotent afterwards
}

// Satellite regression: latency stats must stay O(latency_reservoir) however
// many queries the server lives through, with an exact max and count.
TEST(Serve, LatencyStatsUseBoundedReservoir) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.latency_reservoir = 16;
  RetrievalServer server(*w.system, cfg);

  const int n = 60;
  for (int i = 0; i < n; ++i) {
    (void)server
        .submit(w.dataset.test[static_cast<std::size_t>(i) %
                               w.dataset.test.size()],
                5)
        .get();
  }
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.latency.count, n);
  EXPECT_EQ(stats.latency_samples_retained, 16);
  EXPECT_GE(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_LE(stats.p95_latency_ms, stats.latency.max_ms);

  server.reset_stats();
  const ServerStats zeroed = server.stats();
  EXPECT_EQ(zeroed.latency.count, 0);
  EXPECT_EQ(zeroed.latency_samples_retained, 0);
  EXPECT_DOUBLE_EQ(zeroed.latency.max_ms, 0.0);
}

TEST(Serve, SubmitWithDeadlineTimesOutUnderBackpressure) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.queue_capacity = 1;
  // Every request is slowed down, so every lane is predictably busy while
  // the bounded-deadline submission waits on a full queue.
  FaultConfig fc;
  fc.delay_prob = 1.0;
  fc.delay_ms = 150.0;
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle handle(server);

  // One request per lane (each drained, sleeping), then one that occupies
  // the queue. A submit blocks until a lane drains its predecessor, so every
  // lane holds a request before the last one fills the queue.
  const std::size_t held = server.lanes() + 1;
  const auto test_index = [&](std::size_t i) {
    return i % w.dataset.test.size();
  };
  std::vector<std::future<metrics::RetrievalList>> busy;
  for (std::size_t i = 0; i < held; ++i) {
    busy.push_back(handle.submit(w.dataset.test[test_index(i)], 5));
  }
  EXPECT_EQ(handle.query_count(), static_cast<std::int64_t>(held));

  SubmitOutcome rejected = handle.submit_with_deadline(
      w.dataset.test[test_index(held)], 5, std::chrono::milliseconds(10));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(handle.query_count(),
            static_cast<std::int64_t>(held));  // rejection is not billed
  try {
    (void)rejected.future.get();
    FAIL() << "rejected submission should not hold a value";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kOverloaded);
    EXPECT_TRUE(e.retryable());
    EXPECT_FALSE(e.billed());
  }

  // The delayed requests are answered correctly despite the slowdown.
  for (std::size_t i = 0; i < held; ++i) {
    EXPECT_EQ(busy[i].get(), w.expected[test_index(i)]);
  }
  server.shutdown();

  // With room in the queue, the bounded submission is accepted and billed.
  RetrievalServer idle(*w.system);
  AsyncBlackBoxHandle idle_handle(idle);
  SubmitOutcome accepted = idle_handle.submit_with_deadline(
      w.dataset.test[0], 5, std::chrono::milliseconds(250));
  EXPECT_TRUE(accepted.accepted);
  EXPECT_EQ(idle_handle.query_count(), 1);
  EXPECT_EQ(accepted.future.get(), w.expected[0]);
  idle.shutdown();
}

TEST(Serve, SubmitAfterShutdownIsTypedAndUnbilled) {
  auto& w = ServeWorld::mutable_instance();
  RetrievalServer server(*w.system);
  server.shutdown();
  AsyncBlackBoxHandle handle(server);

  auto future = server.submit(w.dataset.test.front(), 5);
  try {
    (void)future.get();
    FAIL() << "submit after shutdown should fail the future";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kShutdown);
    EXPECT_FALSE(e.retryable());
    EXPECT_FALSE(e.billed());
  }

  SubmitOutcome out = handle.submit_with_deadline(
      w.dataset.test.front(), 5, std::chrono::milliseconds(50));
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(handle.query_count(), 0);
  EXPECT_THROW((void)out.future.get(), ServeError);
}

// --- Overload-control unit tests (ISSUE 5 tentpole) -----------------------

TEST(Admission, TokenBucketAndRateLimiterAreDeterministic) {
  // 1 token/ms, burst 2: grants are a pure function of the timestamps.
  TokenBucket bucket(1000.0, 2.0);
  EXPECT_DOUBLE_EQ(bucket.try_acquire(0.0), 0.0);
  EXPECT_DOUBLE_EQ(bucket.try_acquire(0.0), 0.0);
  const double wait = bucket.try_acquire(0.0);  // burst exhausted
  EXPECT_DOUBLE_EQ(wait, 1.0);                  // one token = 1 ms away
  EXPECT_DOUBLE_EQ(bucket.try_acquire(0.5), 0.5);  // still short
  EXPECT_DOUBLE_EQ(bucket.try_acquire(1.0), 0.0);  // refilled
  // Refill never exceeds burst.
  TokenBucket capped(1000.0, 2.0);
  (void)capped.try_acquire(0.0);
  EXPECT_DOUBLE_EQ(capped.try_acquire(1000.0), 0.0);
  EXPECT_DOUBLE_EQ(capped.try_acquire(1000.0), 0.0);
  EXPECT_GT(capped.try_acquire(1000.0), 0.0);  // burst 2, not 1002

  // Identically configured buckets driven by the same timestamps decide
  // identically — the determinism the virtualized-clock tests lean on.
  TokenBucket a(250.0, 3.0);
  TokenBucket b(250.0, 3.0);
  const double stamps[] = {0.0, 1.0, 2.5, 2.5, 7.0, 7.5, 30.0, 30.0, 30.0};
  for (const double t : stamps) {
    EXPECT_DOUBLE_EQ(a.try_acquire(t), b.try_acquire(t)) << "t=" << t;
  }

  // Per-client isolation: draining one client's bucket leaves the other's
  // untouched.
  RateLimiter limiter(1000.0, 1.0);
  EXPECT_DOUBLE_EQ(limiter.try_acquire("alice", 0.0), 0.0);
  EXPECT_GT(limiter.try_acquire("alice", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(limiter.try_acquire("bob", 0.0), 0.0);
  EXPECT_EQ(limiter.clients_seen(), 2);

  EXPECT_THROW(TokenBucket(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TokenBucket(10.0, 0.5), std::invalid_argument);
}

TEST(Pacer, SharedBucketPacesOnTheVirtualClock) {
  auto clock = std::make_shared<VirtualClock>();
  PacerConfig pcfg;
  pcfg.rate_per_sec = 1000.0;  // 1 token/ms
  pcfg.burst = 1.0;
  Pacer pacer(pcfg, clock);

  for (int i = 0; i < 5; ++i) pacer.acquire();
  EXPECT_EQ(pacer.granted(), 5);
  EXPECT_EQ(pacer.waits(), 4);  // first token from the burst, rest paced
  // sleep_ms on a VirtualClock advances time instead of wall-waiting: the
  // 4 paced grants consumed exactly 4 ms of virtual time.
  EXPECT_DOUBLE_EQ(clock->now_ms(), 4.0);
  EXPECT_DOUBLE_EQ(pacer.waited_ms(), 4.0);
}

TEST(Admission, RejectPolicyTurnsAwayUnderLoadWithRetryAfter) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::kReject;
  cfg.reject_retry_after_ms = 7.0;
  // Slow every request down so the queue stays occupied while we pile on.
  FaultConfig fc;
  fc.delay_prob = 1.0;
  fc.delay_ms = 100.0;
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle handle(server);

  // Pigeonhole: at most one request in service per lane plus 2 queued
  // within the first delay window, so among lanes + 4 rapid submissions at
  // least 2 must be rejected.
  const int burst = static_cast<int>(server.lanes()) + 4;
  std::vector<SubmitOutcome> outs;
  for (int i = 0; i < burst; ++i) {
    outs.push_back(handle.submit_with_deadline(w.dataset.test[0], 5,
                                               std::chrono::milliseconds(0)));
  }
  int rejected = 0;
  for (auto& out : outs) {
    if (out.accepted) continue;
    ++rejected;
    try {
      (void)out.future.get();
      FAIL() << "rejected submission should not hold a value";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeErrorCode::kOverloaded);
      EXPECT_TRUE(e.retryable());
      EXPECT_TRUE(e.overload());
      EXPECT_FALSE(e.billed());  // never accepted, never billed
      EXPECT_DOUBLE_EQ(e.retry_after_ms(), 7.0);
    }
  }
  EXPECT_GE(rejected, 2);
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_rejected, rejected);
  // Billing identity: accepted == billed == eventually served here.
  EXPECT_EQ(handle.query_count(), burst - rejected);
  EXPECT_EQ(stats.queries_served, burst - rejected);
}

TEST(Admission, ShedPolicyEvictsOldestAndKeepsAccountingConsistent) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::kShed;
  FaultConfig fc;
  fc.delay_prob = 1.0;
  fc.delay_ms = 100.0;
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle handle(server);

  // Every submission is accepted (and billed); overload is paid by evicting
  // a queued request. None of these carry a deadline, so the deadline-aware
  // policy falls back to oldest-first. With at most one request in service
  // per lane + 2 queued early on, at least 3 of lanes + 5 rapid submissions
  // must shed a predecessor.
  const int burst = static_cast<int>(server.lanes()) + 5;
  std::vector<SubmitOutcome> outs;
  for (int i = 0; i < burst; ++i) {
    outs.push_back(handle.submit_with_deadline(w.dataset.test[0], 5,
                                               std::chrono::milliseconds(0)));
  }
  for (const auto& out : outs) EXPECT_TRUE(out.accepted);
  EXPECT_EQ(handle.query_count(), burst);
  server.shutdown();

  int shed = 0;
  for (auto& out : outs) {
    try {
      EXPECT_EQ(out.future.get(), w.expected[0]);
    } catch (const ServeError& e) {
      ++shed;
      EXPECT_EQ(e.code(), ServeErrorCode::kShed);
      EXPECT_TRUE(e.retryable());
      EXPECT_TRUE(e.overload());
      EXPECT_TRUE(e.billed());  // accepted requests stay billed when evicted
    }
  }
  EXPECT_GE(shed, 3);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_shed, shed);
  // Every accepted (billed) request ends exactly one way: served or shed.
  EXPECT_EQ(stats.queries_served + stats.requests_shed, burst);
}

TEST(Admission, PerClientRateLimitThrottlesDeterministically) {
  auto& w = ServeWorld::mutable_instance();
  auto clock = std::make_shared<VirtualClock>();
  ServerConfig cfg;
  cfg.clock = clock;
  cfg.client_rate = 1000.0;  // 1 request/ms sustained
  cfg.client_burst = 2.0;
  RetrievalServer server(*w.system, cfg);
  RequestOptions alice;
  alice.client_id = "alice";
  RequestOptions bob;
  bob.client_id = "bob";
  AsyncBlackBoxHandle alice_handle(server, alice);
  AsyncBlackBoxHandle bob_handle(server, bob);

  // Virtual time stands still, so the decisions are exact: burst-of-2 per
  // client, third submission throttled with a 1 ms retry_after.
  std::vector<SubmitOutcome> outs;
  for (int i = 0; i < 3; ++i) {
    outs.push_back(alice_handle.submit_with_deadline(
        w.dataset.test[0], 5, std::chrono::milliseconds(250)));
  }
  EXPECT_TRUE(outs[0].accepted);
  EXPECT_TRUE(outs[1].accepted);
  EXPECT_FALSE(outs[2].accepted);
  try {
    (void)outs[2].future.get();
    FAIL() << "throttled submission should not hold a value";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kThrottled);
    EXPECT_TRUE(e.retryable());
    EXPECT_TRUE(e.overload());
    EXPECT_FALSE(e.billed());
    EXPECT_DOUBLE_EQ(e.retry_after_ms(), 1.0);
  }
  EXPECT_EQ(alice_handle.query_count(), 2);  // throttle unbilled

  // Bob's bucket is untouched by Alice's burst.
  SubmitOutcome bob_out = bob_handle.submit_with_deadline(
      w.dataset.test[1], 5, std::chrono::milliseconds(250));
  EXPECT_TRUE(bob_out.accepted);

  // Advancing virtual time refills Alice's bucket.
  clock->advance_ms(1.0);
  SubmitOutcome refilled = alice_handle.submit_with_deadline(
      w.dataset.test[0], 5, std::chrono::milliseconds(250));
  EXPECT_TRUE(refilled.accepted);

  EXPECT_EQ(outs[0].future.get(), w.expected[0]);
  EXPECT_EQ(outs[1].future.get(), w.expected[0]);
  EXPECT_EQ(bob_out.future.get(), w.expected[1]);
  EXPECT_EQ(refilled.future.get(), w.expected[0]);
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_throttled, 1);
  EXPECT_EQ(stats.queries_served, 4);
}

TEST(Admission, DeadlineExpiredRequestsAreShedBeforeExtraction) {
  auto& w = ServeWorld::mutable_instance();
  RetrievalServer server(*w.system);
  RequestOptions expired_opts;
  expired_opts.ttl_ms = -1.0;  // already expired: deterministically shed
  AsyncBlackBoxHandle doomed(server, expired_opts);
  AsyncBlackBoxHandle healthy(server);

  SubmitOutcome dead = doomed.submit_with_deadline(
      w.dataset.test[0], 5, std::chrono::milliseconds(250));
  EXPECT_TRUE(dead.accepted);  // accepted — and therefore billed
  EXPECT_EQ(doomed.query_count(), 1);
  auto alive = healthy.submit(w.dataset.test[1], 5);

  try {
    (void)dead.future.get();
    FAIL() << "expired request should not be extracted";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kExpired);
    EXPECT_TRUE(e.retryable());
    EXPECT_TRUE(e.overload());
    EXPECT_TRUE(e.billed());
  }
  EXPECT_EQ(alive.get(), w.expected[1]);
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_expired, 1);
  // The shed request never reached the extractor: only the live one counts.
  EXPECT_EQ(stats.queries_served, 1);
}

TEST(Circuit, OpensAfterConsecutiveFailuresAndFailsFast) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  FaultConfig fc;
  fc.error_prob = 1.0;  // the victim is effectively down
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle async(server);

  auto clock = std::make_shared<VirtualClock>();
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base = std::chrono::milliseconds(0);
  policy.circuit_threshold = 3;
  policy.circuit_cooldown_ms = 1e9;  // stays open for this test
  ResilientHandle resilient(async, policy, nullptr, clock);

  // Two retrieves burn 4 breaker-relevant failures; the circuit opens at the
  // third consecutive one, mid-second-retrieve.
  EXPECT_THROW((void)resilient.retrieve(w.dataset.test[0], 5), ServeError);
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kClosed);
  EXPECT_THROW((void)resilient.retrieve(w.dataset.test[0], 5), ServeError);
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kOpen);
  EXPECT_EQ(resilient.circuit_opens(), 1);

  // Open circuit: fail fast with the typed unavailability error, nothing
  // sent to the victim, nothing billed.
  const std::int64_t billed_before = resilient.queries_billed();
  try {
    (void)resilient.retrieve(w.dataset.test[0], 5);
    FAIL() << "open circuit must fail fast";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kUnavailable);
    EXPECT_FALSE(e.retryable());
    EXPECT_FALSE(e.billed());
  }
  EXPECT_EQ(resilient.queries_billed(), billed_before);
  EXPECT_GE(resilient.fast_failures(), 1);
  server.shutdown();
}

TEST(Circuit, HalfOpenProbeReopensThenClosesOnRecovery) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  FaultConfig fc;
  fc.error_until = 3;  // down for the first 3 requests, healthy after
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle async(server);

  auto clock = std::make_shared<VirtualClock>();
  RetryPolicy policy;
  policy.max_attempts = 1;  // one attempt per retrieve: explicit transitions
  policy.backoff_base = std::chrono::milliseconds(0);
  policy.circuit_threshold = 2;
  policy.circuit_cooldown_ms = 10.0;  // jittered to at most 12.5 ms
  ResilientHandle resilient(async, policy, nullptr, clock);

  // Failures 1 and 2 open the circuit.
  EXPECT_THROW((void)resilient.retrieve(w.dataset.test[0], 5), ServeError);
  EXPECT_THROW((void)resilient.retrieve(w.dataset.test[0], 5), ServeError);
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kOpen);
  EXPECT_EQ(resilient.circuit_opens(), 1);

  // Before the cooldown elapses: fail fast.
  EXPECT_THROW((void)resilient.retrieve(w.dataset.test[0], 5), ServeError);
  EXPECT_GE(resilient.fast_failures(), 1);

  // Past the cooldown the next retrieve is the half-open probe; the victim
  // is still down (request index 2 < error_until), so the circuit reopens
  // with a fresh cooldown.
  clock->advance_ms(20.0);
  EXPECT_THROW((void)resilient.retrieve(w.dataset.test[0], 5), ServeError);
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kOpen);
  EXPECT_EQ(resilient.circuit_opens(), 2);

  // The victim healed (index 3 ≥ error_until): the probe succeeds with a
  // correct answer and closes the circuit for good.
  clock->advance_ms(20.0);
  EXPECT_EQ(resilient.retrieve(w.dataset.test[0], 5), w.expected[0]);
  EXPECT_EQ(resilient.circuit_state(), CircuitState::kClosed);
  EXPECT_EQ(resilient.retrieve(w.dataset.test[1], 5), w.expected[1]);
  server.shutdown();

  // Honest split of the failure counters: every real failure was
  // breaker-relevant (no overload pushback in this test).
  EXPECT_EQ(resilient.overloads_seen(), 0);
  EXPECT_EQ(resilient.faults_seen(), 3);
}

TEST(FaultInjection, OutageWindowsShapeTheScheduleWithoutShiftingIt) {
  FaultConfig cfg;
  cfg.error_until = 2;  // down for requests 0..1
  cfg.error_from = 6;   // down again from request 6 on
  const auto plan = FaultInjector::schedule(cfg, 9);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const bool down = i < 2 || i >= 6;
    EXPECT_EQ(plan[i],
              down ? FaultKind::kTransientError : FaultKind::kNone)
        << "request " << i;
  }

  // The outage windows consume one uniform per request like every other
  // decision, so the probabilistic schedule between them is exactly the one
  // the same seed produces with the windows disabled.
  FaultConfig probabilistic;
  probabilistic.error_prob = 0.3;
  probabilistic.drop_prob = 0.2;
  probabilistic.seed = 77;
  FaultConfig windowed = probabilistic;
  windowed.error_until = 3;
  windowed.error_from = 12;
  const auto base = FaultInjector::schedule(probabilistic, 12);
  const auto got = FaultInjector::schedule(windowed, 12);
  for (std::size_t i = 3; i < 12; ++i) {
    EXPECT_EQ(got[i], base[i]) << "request " << i;
  }
}

TEST(FaultInjection, ScheduleIsDeterministicPerSeed) {
  FaultConfig fc;
  fc.error_prob = 0.2;
  fc.delay_prob = 0.1;
  fc.drop_prob = 0.2;
  fc.seed = 42;

  const auto a = FaultInjector::schedule(fc, 300);
  const auto b = FaultInjector::schedule(fc, 300);
  EXPECT_EQ(a, b);

  FaultConfig other = fc;
  other.seed = 43;
  EXPECT_NE(FaultInjector::schedule(other, 300), a);

  // A live injector consumes exactly the previewed schedule, and counts.
  FaultInjector injector(fc);
  std::int64_t injected = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FaultKind k = injector.next();
    EXPECT_EQ(k, a[i]) << "request " << i;
    if (k != FaultKind::kNone) ++injected;
  }
  EXPECT_EQ(injector.decisions(), static_cast<std::int64_t>(a.size()));
  EXPECT_EQ(injector.injected(), injected);
  EXPECT_GT(injected, 0);  // 50% fault rate over 300 draws

  // fatal_at fires at exactly the configured arrival index.
  FaultConfig fatal_only;
  fatal_only.fatal_at = 7;
  const auto fatal_schedule = FaultInjector::schedule(fatal_only, 12);
  for (std::size_t i = 0; i < fatal_schedule.size(); ++i) {
    EXPECT_EQ(fatal_schedule[i],
              i == 7 ? FaultKind::kFatalError : FaultKind::kNone);
  }

  FaultConfig invalid;
  invalid.error_prob = 0.8;
  invalid.drop_prob = 0.5;  // sums past 1
  EXPECT_THROW(FaultInjector{invalid}, std::logic_error);
}

TEST(FaultInjection, ServerSurfacesTypedFaultsAndCountsThem) {
  auto& w = ServeWorld::mutable_instance();

  // Transient-error injection: every future fails retryable-and-billed.
  {
    ServerConfig cfg;
    FaultConfig fc;
    fc.error_prob = 1.0;
    cfg.fault_injector = std::make_shared<FaultInjector>(fc);
    RetrievalServer server(*w.system, cfg);
    const int n = 6;
    for (int i = 0; i < n; ++i) {
      auto future = server.submit(w.dataset.test[0], 5);
      try {
        (void)future.get();
        FAIL() << "injected error should fail the future";
      } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), ServeErrorCode::kTransient);
        EXPECT_TRUE(e.retryable());
        EXPECT_TRUE(e.billed());
      }
    }
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.faults_injected, n);
    EXPECT_EQ(stats.queries_served, 0);
  }

  // Drop injection: the raw future reports a broken promise; the handle
  // translates it into a typed, billed, retryable kDropped.
  {
    ServerConfig cfg;
    FaultConfig fc;
    fc.drop_prob = 1.0;
    cfg.fault_injector = std::make_shared<FaultInjector>(fc);
    RetrievalServer server(*w.system, cfg);
    AsyncBlackBoxHandle handle(server);

    auto raw = server.submit(w.dataset.test[0], 5);
    EXPECT_THROW((void)raw.get(), std::future_error);
    try {
      (void)handle.retrieve(w.dataset.test[0], 5);
      FAIL() << "dropped response should throw";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeErrorCode::kDropped);
      EXPECT_TRUE(e.retryable());
      EXPECT_TRUE(e.billed());
    }
    server.shutdown();
    EXPECT_EQ(server.stats().faults_injected, 2);
  }

  // Delay injection: answers slow down but stay correct and are not faults.
  {
    ServerConfig cfg;
    FaultConfig fc;
    fc.delay_prob = 1.0;
    fc.delay_ms = 2.0;
    cfg.fault_injector = std::make_shared<FaultInjector>(fc);
    RetrievalServer server(*w.system, cfg);
    EXPECT_EQ(server.submit(w.dataset.test[0], 5).get(), w.expected[0]);
    server.shutdown();
    EXPECT_EQ(server.stats().faults_injected, 0);
    EXPECT_EQ(server.stats().queries_served, 1);
  }
}

TEST(Resilient, RetriesThroughMixedFaultsToCorrectAnswers) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  FaultConfig fc;
  fc.error_prob = 0.3;
  fc.drop_prob = 0.2;
  fc.seed = 7;
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle async(server);
  ResilientHandle resilient(async);

  const int rounds = 3;
  std::int64_t logical = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < w.dataset.test.size(); ++i) {
      EXPECT_EQ(resilient.retrieve(w.dataset.test[i], 5), w.expected[i])
          << "round " << r << " query " << i;
      ++logical;
    }
  }
  server.shutdown();

  // Half the requests fault, so retries must have happened — and every retry
  // billed the victim: billed count strictly exceeds the logical count.
  EXPECT_GT(resilient.faults_seen(), 0);
  EXPECT_EQ(resilient.retries(), resilient.faults_seen());
  EXPECT_EQ(resilient.queries_billed(), logical + resilient.retries());
  EXPECT_EQ(resilient.query_count(), resilient.queries_billed());
}

// resilient.hpp promises that client threads may share one handle. Campaign
// sessions each own theirs, so this drives a shared one under a mixed fault
// schedule: every answer stays exact, and the handle's billing matches both
// its own retry count and the server's ledger.
TEST(Resilient, SharedHandleAcrossThreadsUnderFaults) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 4;
  FaultConfig fc;
  fc.error_prob = 0.1;
  fc.drop_prob = 0.1;
  fc.delay_prob = 0.05;
  fc.delay_ms = 2.0;
  fc.seed = 31;
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle async(server);
  RetryPolicy policy;
  policy.query_timeout = std::chrono::milliseconds(5000);  // sanitizer slack
  ResilientHandle shared(async, policy);

  constexpr int kThreads = 4;
  constexpr int kQueries = 12;
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < kQueries; ++q) {
        const std::size_t i = static_cast<std::size_t>(t + q * kThreads) %
                              w.dataset.test.size();
        try {
          if (shared.retrieve(w.dataset.test[i], 5) != w.expected[i]) ++wrong;
        } catch (const ServeError&) {
          ++wrong;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(shared.faults_seen(), 0);
  EXPECT_EQ(shared.queries_billed(), kThreads * kQueries + shared.retries());
  EXPECT_EQ(shared.queries_billed(),
            stats.queries_served + stats.faults_injected +
                stats.requests_expired + stats.requests_shed);
}

TEST(Resilient, GivesUpOnceAttemptsOrBudgetExhaust) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  FaultConfig fc;
  fc.error_prob = 1.0;  // nothing ever succeeds
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle async(server);

  {
    RetryPolicy policy;
    policy.max_attempts = 3;
    policy.backoff_base = std::chrono::milliseconds(0);
    ResilientHandle resilient(async, policy);
    try {
      (void)resilient.retrieve(w.dataset.test[0], 5);
      FAIL() << "per-query attempts should exhaust";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeErrorCode::kRetryExhausted);
      EXPECT_FALSE(e.retryable());
      EXPECT_TRUE(e.billed());  // the failed attempts still billed queries
    }
    EXPECT_EQ(resilient.faults_seen(), 3);
    EXPECT_EQ(resilient.retries(), 2);
    EXPECT_EQ(resilient.queries_billed(), 3);
  }

  {
    RetryPolicy policy;
    policy.max_attempts = 100;
    policy.retry_budget = 2;  // handle-wide, tighter than max_attempts
    policy.backoff_base = std::chrono::milliseconds(0);
    ResilientHandle budgeted(async, policy);
    try {
      (void)budgeted.retrieve(w.dataset.test[0], 5);
      FAIL() << "handle-wide retry budget should exhaust";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeErrorCode::kRetryExhausted);
    }
    EXPECT_EQ(budgeted.retries(), 2);  // first try + exactly two retries
  }
  server.shutdown();
}

// ISSUE 8 satellite: observable Pacer state. peek is pure — interleaving
// tokens_available() between acquires never changes a grant decision — and
// it tracks burst consumption and refill on the virtual clock.
TEST(Pacer, TokensAvailableObservesWithoutConsuming) {
  auto clock = std::make_shared<VirtualClock>();
  PacerConfig pcfg;
  pcfg.rate_per_sec = 1000.0;  // 1 token/ms
  pcfg.burst = 4.0;
  Pacer pacer(pcfg, clock);

  // Fresh pacer reports its full burst; peeking twice reads the same value.
  EXPECT_DOUBLE_EQ(pacer.tokens_available(), 4.0);
  EXPECT_DOUBLE_EQ(pacer.tokens_available(), 4.0);

  pacer.acquire();
  pacer.acquire();
  EXPECT_DOUBLE_EQ(pacer.tokens_available(), 2.0);

  // Refill follows the clock, capped at burst.
  clock->advance_ms(1.0);
  EXPECT_DOUBLE_EQ(pacer.tokens_available(), 3.0);
  clock->advance_ms(100.0);
  EXPECT_DOUBLE_EQ(pacer.tokens_available(), 4.0);
}

// ISSUE 8 satellite regression: two sessions sharing one pacer never jointly
// exceed the configured rate. On the virtual clock the joint grant total is
// bounded by burst + rate × elapsed — equivalently, draining 2Q tokens must
// have advanced virtual time by at least (2Q − burst) / rate.
TEST(Pacer, TwoSessionsSharingOnePacerRespectTheJointRate) {
  auto clock = std::make_shared<VirtualClock>();
  PacerConfig pcfg;
  pcfg.rate_per_sec = 500.0;
  pcfg.burst = 4.0;
  auto pacer = std::make_shared<Pacer>(pcfg, clock);

  constexpr int kPerSession = 50;
  std::thread a([&] {
    for (int i = 0; i < kPerSession; ++i) pacer->acquire();
  });
  std::thread b([&] {
    for (int i = 0; i < kPerSession; ++i) pacer->acquire();
  });
  a.join();
  b.join();

  EXPECT_EQ(pacer->granted(), 2 * kPerSession);
  const double elapsed_ms = clock->now_ms();
  const double min_elapsed_ms =
      (2.0 * kPerSession - pcfg.burst) / pcfg.rate_per_sec * 1000.0;
  EXPECT_GE(elapsed_ms, min_elapsed_ms - 1e-6);
  // And the joint admitted volume never exceeded the bucket bound at the
  // final timestamp: granted <= burst + rate * elapsed.
  EXPECT_LE(static_cast<double>(pacer->granted()),
            pcfg.burst + pcfg.rate_per_sec * elapsed_ms / 1000.0 + 1e-6);
  // All tokens were spent the moment the last acquire returned.
  EXPECT_LT(pacer->tokens_available(), 1.0);
}

// ISSUE 8 satellite: per-client breakdown in ServerStats. Counters are
// attributed to the RequestOptions::client_id that caused them, the ledger
// billed == served + faulted + expired + shed holds per client, and the
// slices sum exactly to the global counters.
TEST(Serve, PerClientStatsBreakdownSumsToGlobals) {
  auto& w = ServeWorld::mutable_instance();
  auto clock = std::make_shared<VirtualClock>();
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.clock = clock;
  cfg.client_rate = 1000.0;  // 1 token/ms
  cfg.client_burst = 2.0;
  RetrievalServer server(*w.system, cfg);

  // alice: 2 in-budget requests. bob: 3 back-to-back — the burst admits 2,
  // the third is throttled (virtual time never advances between submits).
  RequestOptions alice;
  alice.client_id = "alice";
  RequestOptions bob;
  bob.client_id = "bob";
  std::vector<std::future<metrics::RetrievalList>> ok;
  ok.push_back(server.submit(w.dataset.test[0], 5, alice));
  ok.push_back(server.submit(w.dataset.test[1], 5, alice));
  ok.push_back(server.submit(w.dataset.test[0], 5, bob));
  ok.push_back(server.submit(w.dataset.test[1], 5, bob));
  auto throttled = server.submit(w.dataset.test[2], 5, bob);
  EXPECT_THROW((void)throttled.get(), ServeError);
  for (auto& f : ok) (void)f.get();
  server.shutdown();

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.clients.size(), 2u);
  const ClientLedger& a = stats.clients.at("alice");
  const ClientLedger& b = stats.clients.at("bob");
  EXPECT_EQ(a.served, 2);
  EXPECT_EQ(a.throttled, 0);
  EXPECT_EQ(b.served, 2);
  EXPECT_EQ(b.throttled, 1);
  EXPECT_EQ(a.billed(), 2);
  EXPECT_EQ(b.billed(), 2);

  // Slices sum to globals, including the latency accounting.
  EXPECT_EQ(a.served + b.served, stats.queries_served);
  EXPECT_EQ(a.throttled + b.throttled, stats.requests_throttled);
  EXPECT_EQ(a.latency.count + b.latency.count, stats.latency.count);
  EXPECT_LE(a.latency.percentile(0.50), a.latency.percentile(0.95));
  EXPECT_LE(a.latency.percentile(0.95), a.latency.max_ms);

  server.reset_stats();
  EXPECT_TRUE(server.stats().clients.empty());
}

// A backend failure — extract_batch rejecting a 1-channel video sent to the
// 3-channel victim — fails its request with a billed, non-retryable kFatal.
// It is counted as faulted, globally and for its client, so the handle, the
// server and the client entry bill the same two queries.
TEST(Serve, BackendFailureIsBilledAndCounted) {
  auto& w = ServeWorld::mutable_instance();
  RetrievalServer server(*w.system);
  RequestOptions opts;
  opts.client_id = "gray";
  AsyncBlackBoxHandle handle(server, opts);

  EXPECT_EQ(handle.retrieve(w.dataset.test[0], 5), w.expected[0]);
  video::VideoGeometry one_channel = w.spec.geometry;
  one_channel.channels = 1;
  try {
    (void)handle.retrieve(video::Video(one_channel, 0, 999), 5);
    FAIL() << "a 1-channel video must fail on the 3-channel victim";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kFatal);
    EXPECT_TRUE(e.billed());
    EXPECT_FALSE(e.retryable());
  }
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(handle.query_count(), 2);
  EXPECT_EQ(stats.queries_served + stats.faults_injected +
                stats.requests_expired + stats.requests_shed,
            2);
  EXPECT_EQ(stats.clients.at("gray").billed(), 2);
  EXPECT_EQ(stats.clients.at("gray").faulted, 1);
  EXPECT_TRUE(campaign::summarize_fairness(stats).ledger_ok);
}

// A submit refused because the server crashed is a connection loss, not a
// rate-limit decision: it spends no token, bills nothing and is not counted
// as throttled. Otherwise a client reconnecting through the downtime drains
// its bucket (virtual time, and so the refill, stands still here) and its
// first submit after the restart comes back throttled.
TEST(Admission, CrashedServerRefusalsSpendNoRateTokens) {
  auto& w = ServeWorld::mutable_instance();
  auto clock = std::make_shared<VirtualClock>();
  ServerConfig cfg;
  cfg.clock = clock;
  cfg.client_rate = 1000.0;  // 1 token/ms
  cfg.client_burst = 2.0;
  RetrievalServer server(*w.system, cfg);
  RequestOptions opts;
  opts.client_id = "reconnector";

  server.crash();
  for (int i = 0; i < 5; ++i) {  // more submits than the burst holds
    auto refused = server.submit(w.dataset.test[0], 5, opts);
    try {
      (void)refused.get();
      FAIL() << "submit while crashed must fail";
    } catch (const ServeError& e) {
      EXPECT_TRUE(e.connection_lost()) << "refusal " << i;
      EXPECT_FALSE(e.billed()) << "refusal " << i;
    }
  }
  server.restart(server.snapshot());

  // The whole burst survived the downtime: two answers, then the limiter.
  EXPECT_EQ(server.submit(w.dataset.test[0], 5, opts).get(), w.expected[0]);
  EXPECT_EQ(server.submit(w.dataset.test[1], 5, opts).get(), w.expected[1]);
  auto third = server.submit(w.dataset.test[2], 5, opts);
  try {
    (void)third.get();
    FAIL() << "the third back-to-back submit must be throttled";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeErrorCode::kThrottled);
  }
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, 2);
  EXPECT_EQ(stats.requests_throttled, 1);
  const ClientLedger& c = stats.clients.at("reconnector");
  EXPECT_EQ(c.throttled, 1);
  EXPECT_EQ(c.billed(), 2);
}

// ISSUE 9: the kShed eviction is deadline-aware — under pressure the victim
// is the queued request closest to its deadline (the least useful work
// left), so a long-deadline request survives a storm of short-deadline ones.
// Virtual time stands still, so the short deadlines never *expire*; they are
// only ever closer, which pins the eviction order itself.
TEST(Admission, ShedPolicyEvictsClosestToDeadlineFirst) {
  auto& w = ServeWorld::mutable_instance();
  auto clock = std::make_shared<VirtualClock>();
  ServerConfig cfg;
  cfg.clock = clock;
  cfg.max_batch = 1;
  cfg.queue_capacity = 2;
  cfg.admission = AdmissionPolicy::kShed;
  FaultConfig fc;
  fc.delay_prob = 1.0;
  fc.delay_ms = 100.0;  // wall sleep: keeps each lane busy, clock frozen
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(*w.system, cfg);

  RequestOptions patient;
  patient.ttl_ms = 10000.0;
  RequestOptions urgent;
  urgent.ttl_ms = 100.0;
  AsyncBlackBoxHandle patient_handle(server, patient);
  AsyncBlackBoxHandle urgent_handle(server, urgent);

  // One patient request, then a storm of urgent ones, lanes + 3 of them.
  // Every shed scan runs over a full queue (capacity 2), which always holds
  // at least one urgent request — strictly closer to its deadline than the
  // patient one — so the patient request is never the victim.
  SubmitOutcome keeper = patient_handle.submit_with_deadline(
      w.dataset.test[0], 5, std::chrono::milliseconds(0));
  ASSERT_TRUE(keeper.accepted);
  const int storm_size = static_cast<int>(server.lanes()) + 3;
  std::vector<SubmitOutcome> storm;
  for (int i = 0; i < storm_size; ++i) {
    storm.push_back(urgent_handle.submit_with_deadline(
        w.dataset.test[1], 5, std::chrono::milliseconds(0)));
  }
  for (const auto& out : storm) EXPECT_TRUE(out.accepted);
  server.shutdown();

  EXPECT_EQ(keeper.future.get(), w.expected[0]);  // survived every eviction
  int shed = 0;
  for (auto& out : storm) {
    try {
      EXPECT_EQ(out.future.get(), w.expected[1]);
    } catch (const ServeError& e) {
      ++shed;
      EXPECT_EQ(e.code(), ServeErrorCode::kShed);
      EXPECT_TRUE(e.billed());
    }
  }
  // At most one in service per lane + 2 queued among lanes + 4 accepted.
  EXPECT_GE(shed, 2);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_shed, shed);
  EXPECT_EQ(stats.requests_expired, 0);  // frozen clock: closer, not late
  EXPECT_EQ(stats.queries_served + stats.requests_shed, storm_size + 1);
}

// ISSUE 9 satellite regression: overload pushback (kThrottled / kOverloaded)
// is flow-control, not failure — even a hair-trigger breaker must stay
// closed through arbitrarily long throttle storms, or an AIMD client probing
// past the limit would open its own circuit.
TEST(Circuit, OverloadPushbackNeverTripsTheBreaker) {
  auto& w = ServeWorld::mutable_instance();
  // Deterministic half: a per-client rate limit on the virtual clock. Every
  // retrieve past the burst is throttled at least once and retried after the
  // server's 1 ms hint, with a circuit that opens on a single real failure.
  {
    auto clock = std::make_shared<VirtualClock>();
    ServerConfig cfg;
    cfg.clock = clock;
    cfg.client_rate = 1000.0;
    cfg.client_burst = 1.0;
    RetrievalServer server(*w.system, cfg);
    AsyncBlackBoxHandle async(server);

    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.backoff_base = std::chrono::milliseconds(0);
    policy.circuit_threshold = 1;  // one breaker-relevant failure trips it
    ResilientHandle resilient(async, policy, nullptr, clock);

    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(resilient.retrieve(w.dataset.test[0], 5), w.expected[0]);
    }
    server.shutdown();
    EXPECT_GE(resilient.overloads_seen(), 3);  // only the first ran free
    EXPECT_EQ(resilient.circuit_opens(), 0);
    EXPECT_EQ(resilient.circuit_state(), CircuitState::kClosed);
    EXPECT_EQ(server.stats().requests_throttled, resilient.overloads_seen());
  }

  // Robust half: admission kReject under real backpressure. The retrieve
  // exhausts its attempts on kOverloaded rejections — and even the terminal
  // kRetryExhausted leaves the breaker untouched.
  {
    ServerConfig cfg;
    cfg.max_batch = 1;
    cfg.queue_capacity = 2;
    cfg.admission = AdmissionPolicy::kReject;
    cfg.reject_retry_after_ms = 1.0;
    FaultConfig fc;
    fc.delay_prob = 1.0;
    fc.delay_ms = 200.0;
    cfg.fault_injector = std::make_shared<FaultInjector>(fc);
    RetrievalServer server(*w.system, cfg);
    AsyncBlackBoxHandle async(server);

    // Saturate: hand one request to each lane (each holds it for 200 ms),
    // then fill both queue slots — rejections follow for ~200 ms.
    std::vector<std::future<metrics::RetrievalList>> pending;
    for (std::int64_t lane = 0; lane < static_cast<std::int64_t>(server.lanes());
         ++lane) {
      pending.push_back(server.submit(w.dataset.test[0], 5));
      ASSERT_TRUE(wait_for_ticks(server, lane + 1));
    }
    pending.push_back(server.submit(w.dataset.test[0], 5));
    pending.push_back(server.submit(w.dataset.test[0], 5));

    RetryPolicy policy;
    policy.max_attempts = 2;
    policy.backoff_base = std::chrono::milliseconds(0);
    policy.query_timeout = std::chrono::milliseconds(60000);
    policy.circuit_threshold = 1;
    ResilientHandle resilient(async, policy);
    try {
      (void)resilient.retrieve(w.dataset.test[1], 5);
      FAIL() << "saturated reject server should exhaust the attempts";
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeErrorCode::kRetryExhausted);
    }
    EXPECT_EQ(resilient.overloads_seen(), 2);
    EXPECT_EQ(resilient.circuit_opens(), 0);
    EXPECT_EQ(resilient.circuit_state(), CircuitState::kClosed);

    for (auto& f : pending) EXPECT_EQ(f.get(), w.expected[0]);
    server.shutdown();
  }
}

// ISSUE 9 satellite: batch_timeout_ms trades a bounded wall wait for fuller
// batches. A full batch never waits; the timeout only coalesces.
TEST(Serve, BatchTimeoutCoalescesFullBatchesDeterministically) {
  auto& w = ServeWorld::mutable_instance();
  ServerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_timeout_ms = 10000.0;  // absurd on purpose: full batch = no wait
  RetrievalServer server(*w.system, cfg);

  std::vector<std::future<metrics::RetrievalList>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(
        server.submit(w.dataset.test[static_cast<std::size_t>(i) %
                                     w.dataset.test.size()],
                      5));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), w.expected[i % w.dataset.test.size()]);
  }
  server.shutdown();

  // However submits interleave with the lanes, the wait-for-full-batch
  // predicate guarantees a single tick drained all four.
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, 4);
  EXPECT_EQ(stats.batches, 1);
  ASSERT_EQ(stats.batch_size_counts.size(), 5u);
  EXPECT_EQ(stats.batch_size_counts[4], 1);
}

TEST(Serve, BatchTimeoutDrainsPartialBatchAndShutsDownPromptly) {
  auto& w = ServeWorld::mutable_instance();
  // A lone request is served after at most the timeout — the knob bounds
  // added latency, it never strands work.
  {
    ServerConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_timeout_ms = 5.0;
    RetrievalServer server(*w.system, cfg);
    EXPECT_EQ(server.submit(w.dataset.test[0], 5).get(), w.expected[0]);
    server.shutdown();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.batches, 1);
    EXPECT_EQ(stats.batch_size_counts[1], 1);
  }
  // Shutdown interrupts the coalescing wait instead of sitting it out.
  {
    ServerConfig cfg;
    cfg.max_batch = 4;
    cfg.batch_timeout_ms = 60000.0;
    RetrievalServer server(*w.system, cfg);
    auto future = server.submit(w.dataset.test[1], 5);
    const auto t0 = std::chrono::steady_clock::now();
    server.shutdown();
    EXPECT_EQ(future.get(), w.expected[1]);
    const double drained_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(drained_ms, 30000.0);  // far below the 60 s coalescing wait
  }
}

// ISSUE 9 tentpole: the AIMD pacer discovers an undisclosed server-side rate
// limit. The whole loop runs on one virtual clock, so the trajectory is a
// pure function of the configs — asserted by running the scenario twice.
TEST(Aimd, PacerConvergesIntoTheLimitBand) {
  auto& w = ServeWorld::mutable_instance();
  struct Run {
    double elapsed_ms = 0.0;
    double final_rate = 0.0;
    std::int64_t granted = 0;
    std::int64_t throttled = 0;
    std::int64_t billed = 0;
    std::int64_t increases = 0;
    std::int64_t decreases = 0;
  };
  const auto run_once = [&]() {
    auto clock = std::make_shared<VirtualClock>();
    ServerConfig cfg;
    cfg.clock = clock;
    cfg.client_rate = 50.0;  // the undisclosed limit under discovery
    cfg.client_burst = 2.0;
    RetrievalServer server(*w.system, cfg);
    AsyncBlackBoxHandle async(server);

    PacerConfig pcfg;
    pcfg.rate_per_sec = 5.0;  // start far below the limit
    pcfg.burst = 1.0;
    pcfg.aimd = true;
    pcfg.aimd_increase = 100.0;
    pcfg.aimd_decrease = 0.5;
    auto pacer = std::make_shared<Pacer>(pcfg, clock);

    RetryPolicy policy;
    policy.max_attempts = 10;
    policy.backoff_base = std::chrono::milliseconds(0);
    policy.query_timeout = std::chrono::milliseconds(10000);
    ResilientHandle resilient(async, policy, pacer, clock);

    constexpr int kQueries = 400;
    for (int i = 0; i < kQueries; ++i) {
      EXPECT_EQ(resilient.retrieve(w.dataset.test[0], 5), w.expected[0]);
    }
    server.shutdown();

    Run out;
    out.elapsed_ms = clock->now_ms();
    out.final_rate = pacer->current_rate();
    out.granted = pacer->granted();
    out.throttled = server.stats().requests_throttled;
    out.billed = resilient.queries_billed();
    out.increases = pacer->rate_increases();
    out.decreases = pacer->rate_decreases();
    return out;
  };

  const Run run = run_once();
  // Throttles are unbilled and retried: each logical query bills exactly
  // one accepted submission.
  EXPECT_EQ(run.billed, 400);
  EXPECT_EQ(run.granted, run.billed + run.throttled);
  // The server bucket bounds the admitted volume by burst + rate·T — the
  // client can discover the limit but never beat it.
  EXPECT_LE(400.0, 2.0 + 50.0 * run.elapsed_ms / 1000.0 + 1e-6);
  // And the probe is efficient: at least half the limit sustained end to
  // end (a static pacer hand-tuned to 50/s would take 8 s; AIMD pays the
  // sawtooth, not an order of magnitude).
  EXPECT_LE(run.elapsed_ms, 16000.0);
  // The sawtooth has settled into the band around the true 50/s limit.
  EXPECT_GE(run.final_rate, 20.0);
  EXPECT_LE(run.final_rate, 70.0);
  EXPECT_GT(run.increases, 0);
  EXPECT_GT(run.decreases, 0);
  EXPECT_GT(run.throttled, 0);  // discovery requires touching the limit

  // Bitwise-reproducible: the whole closed loop is deterministic on the
  // virtual clock, decision for decision.
  const Run again = run_once();
  EXPECT_DOUBLE_EQ(again.elapsed_ms, run.elapsed_ms);
  EXPECT_DOUBLE_EQ(again.final_rate, run.final_rate);
  EXPECT_EQ(again.granted, run.granted);
  EXPECT_EQ(again.throttled, run.throttled);
  EXPECT_EQ(again.increases, run.increases);
  EXPECT_EQ(again.decreases, run.decreases);

  // Hint seeding: a wildly optimistic starting rate is pulled to the limit
  // by the first retry_after hint (rate <- min(beta·r, 1000/hint)) instead
  // of decaying geometrically through dozens of halvings.
  {
    auto clock = std::make_shared<VirtualClock>();
    ServerConfig cfg;
    cfg.clock = clock;
    cfg.client_rate = 50.0;
    cfg.client_burst = 2.0;
    RetrievalServer server(*w.system, cfg);
    AsyncBlackBoxHandle async(server);
    PacerConfig pcfg;
    pcfg.rate_per_sec = 100000.0;
    pcfg.burst = 1.0;
    pcfg.aimd = true;
    auto pacer = std::make_shared<Pacer>(pcfg, clock);
    RetryPolicy policy;
    policy.max_attempts = 10;
    policy.backoff_base = std::chrono::milliseconds(0);
    ResilientHandle resilient(async, policy, pacer, clock);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(resilient.retrieve(w.dataset.test[0], 5), w.expected[0]);
    }
    server.shutdown();
    EXPECT_GE(pacer->rate_decreases(), 1);
    EXPECT_LE(pacer->current_rate(), 60.0);  // one round trip, not ~11 halvings
  }
}

// ISSUE 9 acceptance (serve half): the server drops the limit mid-run and
// the AIMD loop re-converges into the new band without operator input.
TEST(Aimd, ReconvergesAfterAMidRunLimitDrop) {
  auto& w = ServeWorld::mutable_instance();
  auto clock = std::make_shared<VirtualClock>();
  ServerConfig cfg;
  cfg.clock = clock;
  cfg.client_rate = 80.0;
  cfg.client_burst = 2.0;
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle async(server);

  PacerConfig pcfg;
  pcfg.rate_per_sec = 5.0;
  pcfg.burst = 1.0;
  pcfg.aimd = true;
  pcfg.aimd_increase = 100.0;
  auto pacer = std::make_shared<Pacer>(pcfg, clock);
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base = std::chrono::milliseconds(0);
  policy.query_timeout = std::chrono::milliseconds(10000);
  ResilientHandle resilient(async, policy, pacer, clock);

  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(resilient.retrieve(w.dataset.test[0], 5), w.expected[0]);
  }
  EXPECT_GE(pacer->current_rate(), 32.0);  // converged around 80/s
  EXPECT_LE(pacer->current_rate(), 112.0);
  EXPECT_DOUBLE_EQ(server.client_rate(), 80.0);

  // The operator tightens the limit on the live server: existing buckets
  // settle their accrual at the old rate, then refill at the new one.
  server.set_client_rate(20.0);
  EXPECT_DOUBLE_EQ(server.client_rate(), 20.0);
  const double t1 = clock->now_ms();
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(resilient.retrieve(w.dataset.test[0], 5), w.expected[0]);
  }
  const double phase2_ms = clock->now_ms() - t1;
  server.shutdown();

  // Admitted volume in phase 2 is bounded by the new limit...
  EXPECT_LE(300.0, 2.0 + 20.0 * phase2_ms / 1000.0 + 1e-6);
  // ...and the loop re-discovered it rather than crawling: ≥ half the new
  // limit sustained, with the final rate inside the new band.
  EXPECT_LE(phase2_ms, 30000.0);
  // Sawtooth band around the new 20/s limit: a decrease lands between
  // beta·limit and the hint-capped estimate, an increase probes just past.
  EXPECT_GE(pacer->current_rate(), 8.0);
  EXPECT_LE(pacer->current_rate(), 42.0);
}

// ISSUE 9 satellite: two handles sharing one AIMD pacer treat the discovered
// limit as a joint budget — the pacer's bucket admits their union, so the
// pair can never jointly exceed what one client is allowed.
TEST(Aimd, TwoHandlesSharingOnePacerRespectTheJointLimit) {
  auto& w = ServeWorld::mutable_instance();
  auto clock = std::make_shared<VirtualClock>();
  ServerConfig cfg;
  cfg.clock = clock;
  cfg.client_rate = 50.0;
  cfg.client_burst = 2.0;
  RetrievalServer server(*w.system, cfg);
  RequestOptions opts;
  opts.client_id = "joint";  // both handles bill the same server bucket
  AsyncBlackBoxHandle async_a(server, opts);
  AsyncBlackBoxHandle async_b(server, opts);

  PacerConfig pcfg;
  pcfg.rate_per_sec = 5.0;
  pcfg.burst = 1.0;
  pcfg.aimd = true;
  pcfg.aimd_increase = 100.0;
  auto pacer = std::make_shared<Pacer>(pcfg, clock);
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.backoff_base = std::chrono::milliseconds(0);
  policy.query_timeout = std::chrono::milliseconds(10000);
  ResilientHandle handle_a(async_a, policy, pacer, clock);
  ResilientHandle handle_b(async_b, policy, pacer, clock);

  constexpr int kPerHandle = 150;
  std::atomic<int> mismatches{0};
  const auto drive = [&](ResilientHandle& handle) {
    for (int i = 0; i < kPerHandle; ++i) {
      if (handle.retrieve(w.dataset.test[0], 5) != w.expected[0]) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::thread ta([&] { drive(handle_a); });
  std::thread tb([&] { drive(handle_b); });
  ta.join();
  tb.join();
  server.shutdown();
  EXPECT_EQ(mismatches.load(), 0);

  // Each logical query billed exactly once across both handles...
  const std::int64_t billed =
      handle_a.queries_billed() + handle_b.queries_billed();
  EXPECT_EQ(billed, 2 * kPerHandle);
  EXPECT_EQ(server.stats().queries_served, 2 * kPerHandle);
  // ...within the joint bucket bound, whatever the thread interleaving.
  const double elapsed_ms = clock->now_ms();
  EXPECT_LE(static_cast<double>(billed),
            2.0 + 50.0 * elapsed_ms / 1000.0 + 1e-6);
  // Every pacer grant became exactly one submission: accepted or throttled.
  EXPECT_EQ(pacer->granted(),
            billed + server.stats().requests_throttled);
  // The shared estimate landed near the per-client limit, not 2x it.
  EXPECT_GE(pacer->current_rate(), 10.0);
  EXPECT_LE(pacer->current_rate(), 125.0);
}

// ISSUE 9: AIMD knob validation and the non-AIMD no-op contract.
TEST(Aimd, ConfigIsValidatedAndStaticPacersNeverAdapt) {
  auto clock = std::make_shared<VirtualClock>();
  const auto invalid = [&](auto mutate) {
    PacerConfig pcfg;
    pcfg.rate_per_sec = 10.0;
    pcfg.aimd = true;
    mutate(pcfg);
    EXPECT_THROW(Pacer(pcfg, clock), std::invalid_argument);
  };
  invalid([](PacerConfig& c) { c.aimd_increase = 0.0; });
  invalid([](PacerConfig& c) { c.aimd_decrease = 0.0; });
  invalid([](PacerConfig& c) { c.aimd_decrease = 1.0; });
  invalid([](PacerConfig& c) { c.aimd_floor = 0.0; });
  invalid([](PacerConfig& c) { c.aimd_ceiling = 0.05; });  // below the floor

  // A starting rate outside [floor, ceiling] is clamped, not rejected.
  PacerConfig clamped;
  clamped.rate_per_sec = 1e9;
  clamped.aimd = true;
  clamped.aimd_ceiling = 100.0;
  EXPECT_DOUBLE_EQ(Pacer(clamped, clock).current_rate(), 100.0);

  // Feedback on a static pacer is a no-op: the configured rate is the rate.
  PacerConfig pcfg;
  pcfg.rate_per_sec = 10.0;
  Pacer pacer(pcfg, clock);
  pacer.on_success();
  pacer.on_overload(5.0);
  EXPECT_DOUBLE_EQ(pacer.current_rate(), 10.0);
  EXPECT_EQ(pacer.rate_increases(), 0);
  EXPECT_EQ(pacer.rate_decreases(), 0);

  // AIMD floor: decreases saturate instead of starving the client forever.
  PacerConfig floored;
  floored.rate_per_sec = 1.0;
  floored.aimd = true;
  floored.aimd_floor = 0.5;
  Pacer adaptive(floored, clock);
  for (int i = 0; i < 10; ++i) adaptive.on_overload(0.0);
  EXPECT_DOUBLE_EQ(adaptive.current_rate(), 0.5);
}

// ISSUE 9 tentpole (server half): under sustained queue pressure the server
// degrades IVF search (nprobe -> degraded_nprobe) with hysteresis, accounts
// the stint, and restores the index on drain. A flat index has no cheaper
// mode, so the ladder never pretends to degrade it.
TEST(Serve, DegradationLadderEngagesUnderPressureAndRestores) {
  // Local IVF world: trained via add_all (which finalizes the index).
  video::DatasetSpec spec = video::DatasetSpec::hmdb51_like(77);
  spec.num_classes = 2;
  spec.train_per_class = 8;
  spec.test_per_class = 1;
  spec.geometry = {8, 16, 16, 3};
  const video::Dataset dataset = video::SyntheticGenerator(spec).generate();
  Rng rng(5);
  auto extractor =
      models::make_extractor(models::ModelKind::kC3D, spec.geometry, 16, rng);
  retrieval::IndexConfig icfg;
  icfg.kind = retrieval::IndexKind::kIvf;
  icfg.num_nodes = 2;
  icfg.num_cells = 4;
  icfg.nprobe = 4;
  icfg.degraded_nprobe = 1;
  retrieval::RetrievalSystem system(std::move(extractor), icfg);
  system.add_all(dataset.train);

  // Four lanes whatever DUO_THREADS says, so the ladder is ticked from
  // several threads. With at most one request per lane in service, a tick
  // after the burst still starts at occupancy >= 8 - 4.
  const testing::PinnedComputePool pinned(4);
  ServerConfig cfg;
  cfg.max_batch = 1;
  cfg.queue_capacity = 8;
  cfg.degrade_high = 0.5;   // enter at tick-start occupancy >= 4
  cfg.degrade_low = 0.125;  // leave once it drains to <= 1
  FaultConfig fc;
  fc.delay_prob = 1.0;
  fc.delay_ms = 60.0;  // each served request holds its lane 60 ms
  cfg.fault_injector = std::make_shared<FaultInjector>(fc);
  RetrievalServer server(system, cfg);
  ASSERT_GE(server.lanes(), 2u);

  std::vector<std::future<metrics::RetrievalList>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.submit(dataset.test[0], 3));
  }
  for (auto& f : futures) (void)f.get();  // answers exist; recall may differ
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.degrade_entries, 1);
  EXPECT_GT(stats.degraded_ms, 0.0);
  EXPECT_GE(stats.degraded_served, 1);
  EXPECT_FALSE(stats.degraded_now);
  // Drained server leaves the index exactly as it found it.
  EXPECT_FALSE(system.index_degraded());
  // Every lane tick recorded its tick-start occupancy (no expiries in
  // this run, so ticks == batches), and some tick saw the queue half full.
  ASSERT_EQ(stats.occupancy_deciles.size(), 11u);
  const std::int64_t ticks =
      std::accumulate(stats.occupancy_deciles.begin(),
                      stats.occupancy_deciles.end(), std::int64_t{0});
  EXPECT_EQ(ticks, stats.batches);
  std::int64_t high_ticks = 0;
  for (std::size_t d = 5; d < stats.occupancy_deciles.size(); ++d) {
    high_ticks += stats.occupancy_deciles[d];
  }
  EXPECT_GE(high_ticks, 1);

  // Flat index under identical pressure: set_degraded is declined, so the
  // ladder never reports an entry and the recall contract stays exact.
  auto& w = ServeWorld::mutable_instance();
  ServerConfig flat_cfg;
  flat_cfg.max_batch = 1;
  flat_cfg.queue_capacity = 4;
  flat_cfg.degrade_high = 0.5;
  FaultConfig flat_fc;
  flat_fc.delay_prob = 1.0;
  flat_fc.delay_ms = 30.0;
  flat_cfg.fault_injector = std::make_shared<FaultInjector>(flat_fc);
  RetrievalServer flat_server(*w.system, flat_cfg);
  std::vector<std::future<metrics::RetrievalList>> flat_futures;
  for (int i = 0; i < 5; ++i) {
    flat_futures.push_back(flat_server.submit(w.dataset.test[0], 5));
  }
  for (auto& f : flat_futures) EXPECT_EQ(f.get(), w.expected[0]);
  flat_server.shutdown();
  const ServerStats flat_stats = flat_server.stats();
  EXPECT_EQ(flat_stats.degrade_entries, 0);
  EXPECT_DOUBLE_EQ(flat_stats.degraded_ms, 0.0);
  EXPECT_FALSE(w.system->index_degraded());
}

// A lane serves a request while another lane runs a forward: the second
// request does not wait in the queue for the first batch to finish. The
// first forward waits (bounded) for a second forward to join it, and the
// second request is submitted only once the first forward has started.
TEST(Serve, SecondRequestIsServedWhileAForwardRuns) {
  const auto& w = ServeWorld::instance();
  auto rendezvous = std::make_shared<Rendezvous>();
  auto system = rendezvous_system(rendezvous);
  const testing::PinnedComputePool pinned(2);
  RetrievalServer server(*system);
  ASSERT_EQ(server.lanes(), 2u);
  rendezvous->arm(2);

  auto first = server.submit(w.dataset.test[0], 5);
  ASSERT_TRUE(rendezvous->wait_started(1));
  auto second = server.submit(w.dataset.test[1], 5);
  EXPECT_EQ(second.get(), w.expected[1]);
  EXPECT_EQ(first.get(), w.expected[0]);
  server.shutdown();
  EXPECT_TRUE(rendezvous->was_met())
      << "the second request waited for the first forward to finish";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_served, 2);
  EXPECT_EQ(stats.batches, 2);
}

// A weight update on the system's extractor between batches reaches every
// lane, including lanes whose replicas were cloned before the update. One
// request per lane, all held at one rendezvous, so every lane serves one.
TEST(Serve, EveryLaneFollowsAWeightUpdate) {
  const auto& w = ServeWorld::instance();
  auto rendezvous = std::make_shared<Rendezvous>();
  auto system = rendezvous_system(rendezvous);
  const testing::PinnedComputePool pinned(4);
  RetrievalServer server(*system);
  const std::size_t lanes = server.lanes();
  ASSERT_EQ(lanes, 4u);

  Rng rng(92);
  const auto update = models::make_extractor(models::ModelKind::kC3D,
                                             w.spec.geometry, 16, rng);
  system->extractor().copy_parameters_from(*update);
  rendezvous->arm(static_cast<int>(lanes));
  std::vector<std::future<metrics::RetrievalList>> futures;
  for (std::size_t i = 0; i < lanes; ++i) {
    futures.push_back(server.submit(w.dataset.test[i], 5));
  }
  std::vector<metrics::RetrievalList> served;
  for (auto& f : futures) served.push_back(f.get());
  server.shutdown();
  EXPECT_TRUE(rendezvous->was_met()) << "the requests did not meet, one per lane";

  rendezvous->arm(0);
  bool any_moved = false;
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_EQ(served[i], system->retrieve(w.dataset.test[i], 5)) << i;
    any_moved = any_moved || served[i] != w.expected[i];
  }
  EXPECT_TRUE(any_moved) << "the update changed no answer; the test is blind";
}

// ISSUE 9: the throttle hint histogram. Virtual time stands still, so the
// third submission's hint is exactly 1 ms — bucket 0 by definition.
TEST(Admission, RetryAfterHintsLandInTheExpectedHistogramBucket) {
  auto& w = ServeWorld::mutable_instance();
  auto clock = std::make_shared<VirtualClock>();
  ServerConfig cfg;
  cfg.clock = clock;
  cfg.client_rate = 1000.0;
  cfg.client_burst = 2.0;
  RetrievalServer server(*w.system, cfg);
  AsyncBlackBoxHandle handle(server);
  std::vector<SubmitOutcome> outs;
  for (int i = 0; i < 3; ++i) {
    outs.push_back(handle.submit_with_deadline(w.dataset.test[0], 5,
                                               std::chrono::milliseconds(250)));
  }
  EXPECT_FALSE(outs[2].accepted);
  EXPECT_EQ(outs[0].future.get(), w.expected[0]);
  EXPECT_EQ(outs[1].future.get(), w.expected[0]);
  server.shutdown();

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.retry_after_buckets.size(), 12u);
  EXPECT_EQ(stats.retry_after_buckets[0], 1);  // the exact 1 ms hint
  EXPECT_EQ(std::accumulate(stats.retry_after_buckets.begin(),
                            stats.retry_after_buckets.end(), std::int64_t{0}),
            stats.requests_throttled + stats.requests_rejected);
}

}  // namespace
}  // namespace duo::serve
