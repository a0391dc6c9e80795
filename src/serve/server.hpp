#pragma once

// RetrievalServer: the victim R(·) as a deployed, latency-bound service
// rather than a synchronous in-process call. Clients submit(video, m) from
// any thread and get a std::future for the retrieval list. The server runs
// one lane per compute_pool() thread (lanes()). A lane is a server-owned
// thread that serves whole batches on its own extractor: each tick it
// drains a batch from the shared queue, featurizes it with one
// FeatureExtractor::extract_batch call, answers each request against the
// index and fulfills the futures in arrival order. Every parallel_for a
// lane issues runs inline on it (ThreadPool::InlineScope), so no batch is
// fanned out and joined: parallelism comes from lanes serving different
// batches at once. Lane 0 serves on the system's extractor, lanes 1…L−1 on
// clones made at construction, each of which gets the extractor's weights
// again at the start of every batch. An extractor that cannot clone gets
// one lane, as does DUO_THREADS=1.
//
// The server is index-agnostic: it serves whatever GalleryIndex the
// RetrievalSystem was configured with (retrieval::IndexConfig — exact flat
// scan or the sharded, quantized IvfIndex for million-video galleries); no
// server-side knob changes.
//
// Correctness contract: answers are bitwise identical to direct
// RetrievalSystem::retrieve calls regardless of client count, arrival order,
// max_batch or the lane that served them — batching amortizes cost, it
// never changes results (extract_batch guarantees bitwise equality with
// serial extraction, and every lane's extractor carries the system
// extractor's weights).
//
// Concurrency contract: submit is MPMC-safe and applies backpressure — it
// blocks while the bounded queue is full (submit_with_deadline bounds the
// wait instead). The server has exclusive use of the RetrievalSystem's
// extractor while running; do not call system.retrieve()/extract_features()
// directly between construction and shutdown(). A weight update made while
// no request is in flight (copy_parameters_from on the extractor) reaches
// every lane at its next batch. shutdown() is graceful: it stops accepting
// new requests, drains every queued request, and joins every lane, so no
// fulfilled-before-shutdown future is ever abandoned; it is idempotent AND
// safe to race from multiple threads (late callers block until the
// draining join completes). A submit that arrives after (or loses the race
// with) shutdown gets a ServeError{kShutdown} set instead.
//
// Overload model (all decisions read time through ServerConfig::clock, so a
// VirtualClock makes them deterministic):
//  - Per-client rate limiting: when client_rate > 0, a token bucket per
//    RequestOptions::client_id gates admission; a denied request fails with
//    ServeError{kThrottled} carrying a retry_after_ms hint. Throttled
//    requests never touch the queue and are NOT billed.
//  - Admission policy: once queue occupancy reaches admission_threshold ×
//    queue_capacity, kReject fails new submits with ServeError{kOverloaded}
//    (+ retry_after hint, not billed), kShed admits them by evicting the
//    queued request closest to its deadline — the least useful work left —
//    falling back to oldest-first among undeadlined requests (the victim's
//    future fails with ServeError{kShed}; the evictee WAS accepted, so it
//    stays billed). kBlock is the legacy backpressure behaviour.
//  - Deadline propagation: RequestOptions::ttl_ms attaches a deadline at
//    enqueue; a lane sheds expired requests *before* paying for extraction
//    (ServeError{kExpired}, billed — they were accepted) and they never
//    consume batch slots.
//
// Fault model: when ServerConfig::fault_injector is set, a lane draws one
// decision per request as it drains the request from the queue, under the
// queue lock, so the schedule follows arrival order whichever lane serves
// the request. At fulfillment, injected transient errors fail the future
// with a retryable ServeError, delays stall the answer (and the lane),
// drops abandon the promise (the future surfaces
// std::future_error{broken_promise}), and fatal faults fail it with a
// non-retryable ServeError. The backend work still happens, so every
// injected fault is billed; see serve/fault_injection.hpp. A backend
// failure (extract_batch or the index lookup throwing) fails its requests
// with a billed, non-retryable kFatal. Both count as faulted in the Ledger.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "metrics/metrics.hpp"
#include "retrieval/system.hpp"
#include "serve/admission.hpp"
#include "serve/clock.hpp"
#include "serve/fault_injection.hpp"
#include "video/video.hpp"

namespace duo::serve {

struct ServerConfig {
  // Maximum requests one lane drains into one extract_batch call. With
  // batch_timeout_ms == 0 a lane drains ceil(queued / lanes) requests, at
  // most max_batch, so a backlog is shared across lanes instead of served
  // by one; a coalescing tick (batch_timeout_ms > 0) drains up to max_batch.
  std::size_t max_batch = 8;
  // Bounded request queue; submit blocks while the queue holds this many.
  std::size_t queue_capacity = 64;
  // Bounded reservoir for latency percentiles (exact max is kept
  // separately); memory stays O(latency_reservoir) however long the server
  // lives.
  std::size_t latency_reservoir = 512;
  // Optional fault schedule, one decision per request in arrival order.
  std::shared_ptr<FaultInjector> fault_injector;

  // Overload policy. All time reads go through `clock` (null = wall time).
  std::shared_ptr<Clock> clock;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  // Queue-occupancy fraction at which kReject/kShed kick in; the admit limit
  // is max(1, floor(admission_threshold × queue_capacity)). Ignored under
  // kBlock.
  double admission_threshold = 1.0;
  // retry_after hint attached to admission kReject failures.
  double reject_retry_after_ms = 5.0;
  // Per-client token bucket: sustained requests/sec and burst per
  // RequestOptions::client_id. 0 disables rate limiting.
  double client_rate = 0.0;
  double client_burst = 4.0;
  // Bounded per-client latency reservoir (the global reservoir keeps
  // `latency_reservoir` samples; each client additionally keeps this many).
  std::size_t client_latency_reservoir = 128;
  // Latency-aware batching: > 0 lets a lane that woke with fewer than
  // max_batch queued requests wait up to this many milliseconds of real
  // wall time for a fuller batch, then drain up to max_batch (it drains
  // early the moment max_batch requests are queued, or on shutdown). When
  // another lane took every request during the wait, the waiting lane
  // records no tick. 0 drains immediately, sharing a backlog across lanes
  // (see max_batch). Batch composition never affects answers, so the
  // correctness contract is unchanged.
  double batch_timeout_ms = 0.0;
  // Graceful-degradation ladder: when tick-start queue occupancy reaches
  // degrade_high × queue_capacity, a lane puts the index in degraded mode
  // (GalleryIndex::set_degraded — IVF probes degraded_nprobe cells, trading
  // recall for latency); it leaves degraded mode once occupancy falls back
  // to degrade_low × queue_capacity. The gap is the hysteresis band that
  // keeps the ladder from flapping tick-to-tick; every lane's tick moves
  // it. degrade_high = 0 disables degradation entirely (default). While
  // degraded, answers may differ from direct RetrievalSystem::retrieve
  // calls — the one deliberate exception to the bitwise correctness
  // contract, observable via ServerStats: degrade_entries and degraded_ms
  // are exact; degraded_served is approximate when several lanes run (see
  // Ledger::degraded_served).
  double degrade_high = 0.0;
  double degrade_low = 0.25;
};

// Per-request metadata carried alongside (video, m).
struct RequestOptions {
  // Rate-limiting key — "one API key, one bucket". Empty is itself a valid
  // key (the anonymous client).
  std::string client_id;
  // Freshness budget: > 0 attaches deadline = now + ttl_ms at enqueue; the
  // lane that drains the request sheds it unextracted once the deadline
  // passes. 0 means no deadline. Negative means already expired —
  // deterministically shed on the next lane tick (useful in tests).
  double ttl_ms = 0.0;

  bool has_deadline() const noexcept { return ttl_ms != 0.0; }
};

// Algorithm R over request latencies: a uniform sample of at most `cap` of
// the `count` latencies recorded so far, plus the exact max over all of
// them. The replacement stream is part of the value, so a restored
// reservoir continues the pre-crash retention decisions exactly.
struct LatencyReservoir {
  std::vector<double> samples;
  std::int64_t count = 0;
  double max_ms = 0.0;
  Rng rng{0};

  void record(double ms, std::size_t cap);
  // Nearest-rank q-th percentile of the retained samples; 0 when empty.
  double percentile(double q) const;

  friend bool operator==(const LatencyReservoir&,
                         const LatencyReservoir&) = default;
};

// One client's entry in the Ledger, keyed by RequestOptions::client_id.
// served/faulted/expired/shed terminate accepted (billed) requests;
// throttled/rejected turn-aways were never accepted (unbilled). `faulted`
// covers injected faults, crash losses and backend failures (extraction or
// index lookup throwing); `lost` is the crash-loss subset of it, so the
// billing identity holds verbatim across crashes. The reservoir keeps
// ServerConfig::client_latency_reservoir samples, its stream seeded from the
// id so the retained set is a pure function of this client's latencies.
struct ClientLedger {
  std::int64_t served = 0;
  std::int64_t faulted = 0;
  std::int64_t throttled = 0;
  std::int64_t rejected = 0;
  std::int64_t shed = 0;
  std::int64_t expired = 0;
  std::int64_t lost = 0;
  LatencyReservoir latency;

  // Queries the victim billed this client for.
  std::int64_t billed() const noexcept {
    return served + faulted + expired + shed;
  }
  // The counters in Ledger::counters() order, for whole-set sums and
  // comparisons.
  std::array<std::int64_t, 7> counters() const noexcept {
    return {served, faulted, throttled, rejected, shed, expired, lost};
  }

  friend bool operator==(const ClientLedger&, const ClientLedger&) = default;
};

// The server's billing ledger: every counter, histogram and reservoir that
// must survive a crash for billing to reconcile. The identity
//   billed == served + faulted + expired + shed
// holds globally (billed()) and per client (ClientLedger::billed()), and
// the client entries sum to the global counters (clients_sum_to_counters).
// One value type serves as the live accounting (under the server's stats
// mutex), the crash snapshot and the base of ServerStats.
struct Ledger {
  std::int64_t queries_served = 0;   // futures fulfilled with a value
  std::int64_t batches = 0;          // lane ticks that served a batch
  // Requests failed or dropped after acceptance: injected faults, crash
  // losses and backend failures (ClientLedger::faulted, summed).
  std::int64_t faults_injected = 0;
  std::int64_t requests_throttled = 0;  // per-client rate limit denials
  std::int64_t requests_rejected = 0;   // admission kReject turn-aways
  std::int64_t requests_shed = 0;       // evicted by admission kShed
  std::int64_t requests_expired = 0;    // deadline passed while queued
  // Accepted requests that died with the server (a subset of
  // faults_injected), and the number of crash() calls.
  std::int64_t requests_lost = 0;
  std::int64_t crashes = 0;
  // batch_size_counts[s] = number of ticks that drained exactly s requests;
  // index 0 is unused, size() == max_batch + 1.
  std::vector<std::int64_t> batch_size_counts;
  // occupancy_deciles[d] = lane ticks whose tick-start queue occupancy was
  // in [d, d+1) tenths of queue_capacity; index 10 counts ticks at (or
  // beyond) full. size() == 11. A tick that drains only expired requests
  // counts here but not in `batches`.
  std::vector<std::int64_t> occupancy_deciles;
  // retry_after_buckets[b] = retry_after hints handed out with throttle /
  // admission-reject failures, bucketed by power of two: bucket 0 holds
  // hints <= 1 ms, bucket b holds (2^(b-1), 2^b] ms, the last bucket
  // everything beyond ~1 s. size() == 12.
  std::vector<std::int64_t> retry_after_buckets;
  // Per-request submit→fulfill wall latency; the reservoir keeps
  // ServerConfig::latency_reservoir samples.
  LatencyReservoir latency;
  // Degradation totals: entries into degraded mode, clock time spent in
  // completed degraded stints, and answers served while degraded (the
  // requests whose recall may be reduced). degraded_served counts a batch
  // by the mode its lane read when it took the batch, while each scan reads
  // the index's own flag. With one lane the two agree; with several,
  // another lane can flip the index in between, so answers in flight at a
  // transition may be counted in the other mode.
  std::int64_t degrade_entries = 0;
  double degraded_accum_ms = 0.0;
  std::int64_t degraded_served = 0;
  // std::map: deterministic (sorted) iteration in reports and snapshots.
  std::map<std::string, ClientLedger> clients;

  // Queries the victim billed in total.
  std::int64_t billed() const noexcept {
    return queries_served + faults_injected + requests_expired +
           requests_shed;
  }
  // The global counters in ClientLedger::counters() order.
  std::array<std::int64_t, 7> counters() const noexcept {
    return {queries_served,    faults_injected,  requests_throttled,
            requests_rejected, requests_shed,    requests_expired,
            requests_lost};
  }
  // Whether the client entries sum to the global counters, counter by
  // counter — no request double-counted or missing between the two.
  bool clients_sum_to_counters() const noexcept {
    std::array<std::int64_t, 7> sum{};
    for (const auto& [id, c] : clients) {
      const auto counts = c.counters();
      for (std::size_t k = 0; k < sum.size(); ++k) sum[k] += counts[k];
    }
    return sum == counters();
  }

  friend bool operator==(const Ledger&, const Ledger&) = default;
};

// RetrievalServer::stats(): the ledger plus values derived from it at read
// time. Per-client percentiles come from each client's reservoir
// (clients.at(id).latency.percentile(q)).
struct ServerStats : Ledger {
  // Restart generation: starts at 1 and increments on every restart — a
  // client that saw epoch N+1 knows every request it had in flight during
  // epoch N is gone.
  std::int64_t server_epoch = 1;
  // Percentiles over the global reservoir, which retains
  // `latency_samples_retained` of the `latency.count` observed latencies.
  std::int64_t latency_samples_retained = 0;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  // Whether the server is degraded at read time, and total clock time spent
  // degraded including the current stint.
  bool degraded_now = false;
  double degraded_ms = 0.0;

  double mean_batch_size() const noexcept {
    return batches == 0
               ? 0.0
               : static_cast<double>(queries_served) /
                     static_cast<double>(batches);
  }
};

// Everything a RetrievalServer must persist for billing reconciliation to
// hold across a crash/restart: the ledger (with its reservoirs'
// replacement-Rng states) and the per-client token-bucket levels.
// Deliberately NOT included: queue contents (a crash loses in-flight work —
// that is the point; the lost requests are already terminally accounted as
// faulted+lost), the live degraded bit (recovery restores the configured
// index mode; the hysteresis ladder re-enters on its own), and the gallery
// index (snapshotted separately via RetrievalSystem::save_gallery_index).
// Serialize with save_snapshot / load_snapshot below.
struct ServerSnapshot {
  std::int64_t epoch = 1;
  Ledger ledger;
  bool has_limiter = false;
  RateLimiter::State limiter;  // meaningful only when has_limiter

  friend bool operator==(const ServerSnapshot&, const ServerSnapshot&) =
      default;
};

// Durable snapshot files: sealed state files (models::io::save_sealed) —
// same corruption guarantees as retrieval::save_index / load_index.
// load_snapshot leaves `snap` untouched on a malformed, truncated, or
// digest-mismatched file.
bool save_snapshot(const ServerSnapshot& snap, const std::string& path);
bool load_snapshot(ServerSnapshot& snap, const std::string& path);

// Result of a bounded-deadline submission. When `accepted` is false the
// request was never enqueued (queue stayed full past the deadline, admission
// rejected it, the rate limiter throttled it, or the server is stopped) and
// the victim was NOT billed; `future` then already holds the ServeError
// explaining why.
struct SubmitOutcome {
  std::future<metrics::RetrievalList> future;
  bool accepted = false;
};

class RetrievalServer {
 public:
  // Seed of the latency reservoir's replacement stream: fixed, so reservoir
  // contents are a pure function of the observed latency sequence.
  static constexpr std::uint64_t kReservoirSeed = 0x5EEDBA5EDB0BA7E5ULL;

  // Borrow an externally owned system (must outlive the server).
  explicit RetrievalServer(retrieval::RetrievalSystem& system,
                           ServerConfig config = {});
  // Own the system outright.
  explicit RetrievalServer(
      std::unique_ptr<retrieval::RetrievalSystem> system,
      ServerConfig config = {});
  ~RetrievalServer();

  RetrievalServer(const RetrievalServer&) = delete;
  RetrievalServer& operator=(const RetrievalServer&) = delete;

  // Enqueue one retrieval request; thread-safe. Blocks while the queue is
  // full (under kBlock). On a stopped server the returned future holds
  // ServeError{kShutdown}; throttle/admission rejections likewise come back
  // as a ready future holding the typed error.
  std::future<metrics::RetrievalList> submit(video::Video v, std::size_t m,
                                             const RequestOptions& opts = {});

  // Like submit, but waits at most `deadline` for queue space instead of
  // blocking indefinitely. Rejections (deadline expired → kOverloaded,
  // admission kReject → kOverloaded, rate limit → kThrottled, stopped
  // server → kShutdown) come back with accepted=false and are not billed —
  // the request never reached the backend.
  SubmitOutcome submit_with_deadline(video::Video v, std::size_t m,
                                     std::chrono::milliseconds deadline,
                                     const RequestOptions& opts = {});

  // Stop accepting requests, drain every queued request, join every lane.
  // Idempotent and safe to call concurrently from multiple threads; every
  // caller returns only once draining has completed. Called by the
  // destructor.
  void shutdown();
  bool stopped() const;

  // --- crash / restart lifecycle -----------------------------------------
  // Abrupt process-death simulation: NO draining. Every queued request and
  // any batch a lane had in flight fails with a retryable
  // ServeError{kConnectionLost, billed=true} (they were accepted, so they
  // stay billed — counted as faulted+lost, keeping the ledger formula
  // intact), every lane is joined, and subsequent submits fail with
  // kConnectionLost (unbilled) instead of the terminal kShutdown, so
  // resilient clients keep retrying through the downtime. Idempotent; a
  // no-op on an already-stopped server.
  void crash();

  // Whether the server is down due to crash() (as opposed to shutdown()).
  bool crashed() const;

  // Complete accounting snapshot for durable recovery. Requires stopped()
  // (throws std::logic_error otherwise): a consistent ledger cannot be read
  // out from under live lanes.
  ServerSnapshot snapshot() const;

  // Bring a crashed (or shut-down) server back up on the same clock and the
  // same RetrievalSystem, with server_epoch bumped. The snapshot overload
  // restores every ledger, reservoir, and token-bucket level first — billing
  // reconciliation then holds across the restart as if the crash never
  // happened; the bare overload restarts with fresh accounting (epoch still
  // increments). Degraded mode always restarts OFF — the hysteresis ladder
  // re-enters under live load. Throws std::logic_error on a running server.
  void restart();
  void restart(const ServerSnapshot& snap);

  // Monotone restart generation, starting at 1. Stamped into ServerStats.
  std::int64_t epoch() const noexcept;

  // Consistent copy of the ledger plus the values derived from it (see
  // ServerStats). reset_stats replaces the ledger with an empty one.
  ServerStats stats() const;
  void reset_stats();

  // Mid-run rate-limit change: retunes every existing and future per-client
  // bucket to `rate_per_sec` (settled at the current clock time, so the
  // change never rewrites past accrual). Requires rate limiting to be
  // enabled at construction (client_rate > 0); throws std::logic_error
  // otherwise. The AIMD re-convergence scenario: the victim quietly drops
  // its limit and adaptive clients must rediscover it.
  void set_client_rate(double rate_per_sec);
  // The limiter's current sustained rate (client_rate when never retuned).
  double client_rate() const;

  const ServerConfig& config() const noexcept { return config_; }
  // Number of lanes: compute_pool().size() at construction, or 1 when the
  // extractor cannot clone.
  std::size_t lanes() const noexcept { return replicas_.size() + 1; }
  Clock& clock() noexcept { return *clock_; }
  // The served system. Only safe to touch directly once stopped().
  retrieval::RetrievalSystem& system() noexcept { return system_; }

 private:
  struct Request {
    video::Video video;
    std::size_t m = 0;
    std::promise<metrics::RetrievalList> promise;
    Stopwatch queued;       // reset at enqueue; read at fulfillment
    bool has_deadline = false;
    double deadline_ms = 0.0;  // absolute, in clock_->now_ms() terms
    std::string client_id;     // RequestOptions::client_id, for attribution
    FaultKind fault = FaultKind::kNone;  // drawn when a lane drains it
  };

  void start();
  // Launch one thread per lane.
  void launch_lanes();
  // Join every lane, then restore the index and settle an open degraded
  // stint, as a never-degraded server would leave them. Serializes racing
  // callers and is idempotent (late callers find nothing to join). A mutex
  // instead of a std::once_flag because restart() must be able to relaunch
  // the lanes — a once_flag can never be re-armed.
  void join_lanes();
  // Fail `lost` requests with ServeError{kConnectionLost, billed=true} and
  // account them as faulted+lost, globally and per client.
  void fail_lost(std::vector<Request>& lost);
  // Account `requests` as faulted (and, when `lost`, as crash losses),
  // globally and per client. Takes stats_mutex_.
  void count_faulted(const std::vector<Request>& requests, bool lost);
  // An empty ledger shaped for this server's configuration.
  Ledger fresh_ledger() const;
  // Shared restart path (snap == nullptr → fresh accounting).
  void restart_internal(const ServerSnapshot* snap);
  // Shared enqueue path: nullptr deadline = wait forever. Returns false
  // (with the rejection ServeError set on the promise) when not enqueued.
  bool enqueue(Request& req, const std::chrono::milliseconds* deadline,
               const RequestOptions& opts);
  // Lane `lane` serves on `lane == 0 ? system's extractor : replicas_[lane - 1]`.
  void lane_loop(std::size_t lane);
  // Serve `batch` on `extractor`; `degraded` is the ladder mode the lane
  // read when it took the batch, for degraded_served.
  void process_batch(models::FeatureExtractor& extractor,
                     std::vector<Request>& batch, bool degraded);
  // Walk the degradation ladder for a tick that started with `occupancy`
  // queued requests (also records the occupancy histogram) and return the
  // mode the tick leaves it in. Any lane; takes stats_mutex_.
  bool update_degradation(std::size_t occupancy);
  void record_retry_after(double hint_ms);  // requires stats_mutex_ held
  // Lazily creates the client's entry. Requires stats_mutex_ held.
  ClientLedger& client_slot(const std::string& client_id);

  std::unique_ptr<retrieval::RetrievalSystem> owned_;  // empty when borrowed
  retrieval::RetrievalSystem& system_;
  ServerConfig config_;
  std::shared_ptr<Clock> clock_;
  std::unique_ptr<RateLimiter> limiter_;  // null when client_rate == 0
  std::size_t admit_limit_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Request> queue_;
  bool stop_ = false;
  // True while down due to crash() — distinguishes the retryable
  // "reconnect later" submit failure from terminal kShutdown. Atomic so a
  // lane can poll it mid-batch without taking mutex_.
  std::atomic<bool> crashed_{false};
  std::atomic<std::int64_t> epoch_{1};
  std::mutex join_mutex_;  // serializes lane launch and join across racers

  mutable std::mutex stats_mutex_;
  Ledger ledger_;  // guarded by stats_mutex_
  // Degradation ladder state, guarded by stats_mutex_: whether the index is
  // degraded, and when the current stint began.
  bool degraded_ = false;
  double degraded_since_ms_ = 0.0;

  // Extractors of lanes 1…L−1, cloned at construction.
  std::vector<std::unique_ptr<models::FeatureExtractor>> replicas_;
  std::vector<std::thread> lanes_;  // last member: started after the above
};

}  // namespace duo::serve
