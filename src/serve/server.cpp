#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "models/serialization.hpp"
#include "serve/errors.hpp"
#include "serve/fault_injection.hpp"

namespace duo::serve {

void LatencyReservoir::record(double ms, std::size_t cap) {
  max_ms = std::max(max_ms, ms);
  if (samples.size() < cap) {
    samples.push_back(ms);
  } else if (cap > 0) {
    // Algorithm R: sample i replaces a reservoir slot with probability R/i,
    // keeping a uniform sample of everything observed so far.
    const auto j = rng.uniform_index(static_cast<std::uint64_t>(count) + 1);
    if (j < samples.size()) samples[j] = ms;
  }
  ++count;
}

double LatencyReservoir::percentile(double q) const {
  if (samples.empty()) return 0.0;
  std::vector<double> xs = samples;
  const auto idx = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(xs.size() - 1)));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx),
                   xs.end());
  return xs[idx];
}

namespace {

std::unique_ptr<retrieval::RetrievalSystem> checked_nonnull(
    std::unique_ptr<retrieval::RetrievalSystem> system) {
  DUO_CHECK_MSG(system != nullptr, "RetrievalServer: null system");
  return system;
}

// Fail every request with a billed ServeError of its own. Requests must not
// share one exception object: each future's get() rethrows the stored
// object on its own client thread, so a shared one is touched by several
// threads at once.
template <typename Requests>
void fail_each_billed(Requests& requests, ServeErrorCode code,
                      const std::string& what) {
  for (auto& r : requests) {
    r.promise.set_exception(
        std::make_exception_ptr(ServeError(code, /*billed=*/true, what)));
  }
}

}  // namespace

RetrievalServer::RetrievalServer(retrieval::RetrievalSystem& system,
                                 ServerConfig config)
    : system_(system), config_(std::move(config)) {
  start();
}

RetrievalServer::RetrievalServer(
    std::unique_ptr<retrieval::RetrievalSystem> system, ServerConfig config)
    : owned_(checked_nonnull(std::move(system))),
      system_(*owned_),
      config_(std::move(config)) {
  start();
}

void RetrievalServer::start() {
  DUO_CHECK_MSG(config_.max_batch >= 1, "RetrievalServer: max_batch < 1");
  DUO_CHECK_MSG(config_.queue_capacity >= 1,
                "RetrievalServer: queue_capacity < 1");
  DUO_CHECK_MSG(config_.latency_reservoir >= 1,
                "RetrievalServer: latency_reservoir < 1");
  DUO_CHECK_MSG(
      config_.admission_threshold > 0.0 && config_.admission_threshold <= 1.0,
      "RetrievalServer: admission_threshold must be in (0, 1]");
  DUO_CHECK_MSG(config_.batch_timeout_ms >= 0.0,
                "RetrievalServer: negative batch_timeout_ms");
  if (config_.degrade_high > 0.0) {
    DUO_CHECK_MSG(config_.degrade_high <= 1.0,
                  "RetrievalServer: degrade_high must be in (0, 1]");
    DUO_CHECK_MSG(
        config_.degrade_low >= 0.0 && config_.degrade_low < config_.degrade_high,
        "RetrievalServer: degrade_low must be in [0, degrade_high)");
  }
  clock_ = ensure_clock(config_.clock);
  if (config_.client_rate > 0.0) {
    limiter_ = std::make_unique<RateLimiter>(config_.client_rate,
                                             config_.client_burst);
  }
  admit_limit_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.admission_threshold *
                                  static_cast<double>(config_.queue_capacity)));
  ledger_ = fresh_ledger();
  // One lane per compute-pool thread, each on its own extractor.
  const std::size_t lanes = compute_pool().size();
  for (std::size_t i = 1; i < lanes; ++i) {
    auto replica = system_.extractor().clone();
    if (replica == nullptr) {
      replicas_.clear();
      break;
    }
    replicas_.push_back(std::move(replica));
  }
  try {
    launch_lanes();
  } catch (...) {
    // A lane that failed to start must not leave the started ones running
    // on a server whose constructor never finished.
    shutdown();
    throw;
  }
}

void RetrievalServer::launch_lanes() {
  std::lock_guard<std::mutex> lock(join_mutex_);
  for (std::size_t lane = 0; lane < lanes(); ++lane) {
    lanes_.emplace_back([this, lane] { lane_loop(lane); });
  }
}

RetrievalServer::~RetrievalServer() { shutdown(); }

bool RetrievalServer::enqueue(Request& req,
                              const std::chrono::milliseconds* deadline,
                              const RequestOptions& opts) {
  req.client_id = opts.client_id;
  // Rate limiting first: a throttled request must not even contend for queue
  // space, and the decision needs no queue lock. A crashed server is skipped:
  // the submit is refused below as a connection loss, and a refusal must not
  // spend the client's token (reconnect loops would drain the bucket during
  // the downtime and come back throttled).
  if (limiter_ != nullptr && !crashed_.load(std::memory_order_acquire)) {
    const double wait_ms = limiter_->try_acquire(opts.client_id,
                                                 clock_->now_ms());
    if (wait_ms > 0.0) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++ledger_.requests_throttled;
        ++client_slot(opts.client_id).throttled;
        record_retry_after(wait_ms);
      }
      req.promise.set_exception(std::make_exception_ptr(ServeError(
          ServeErrorCode::kThrottled, /*billed=*/false,
          "RetrievalServer: per-client rate limit exceeded", wait_ms)));
      return false;
    }
  }

  std::vector<Request> shed_victims;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (config_.admission == AdmissionPolicy::kBlock) {
      const auto have_room = [this] {
        return stop_ || queue_.size() < config_.queue_capacity;
      };
      if (deadline == nullptr) {
        not_full_.wait(lock, have_room);
      } else if (!not_full_.wait_for(lock, *deadline, have_room)) {
        lock.unlock();
        req.promise.set_exception(std::make_exception_ptr(ServeError(
            ServeErrorCode::kOverloaded, /*billed=*/false,
            "RetrievalServer: queue full past the submit deadline")));
        return false;
      }
    }
    if (stop_) {
      // A crashed server is DOWN, not gone: fail with the retryable
      // connection-lost error (unbilled — nothing was accepted) so resilient
      // clients keep reconnecting through the downtime. Only a deliberate
      // shutdown is terminal.
      const bool crashed = crashed_.load(std::memory_order_relaxed);
      lock.unlock();
      if (crashed) {
        req.promise.set_exception(std::make_exception_ptr(
            ServeError(ServeErrorCode::kConnectionLost, /*billed=*/false,
                       "RetrievalServer: server crashed; reconnect and "
                       "retry")));
      } else {
        req.promise.set_exception(std::make_exception_ptr(
            ServeError(ServeErrorCode::kShutdown, /*billed=*/false,
                       "RetrievalServer: submit after shutdown")));
      }
      return false;
    }
    if (config_.admission == AdmissionPolicy::kReject &&
        queue_.size() >= admit_limit_) {
      lock.unlock();
      {
        std::lock_guard<std::mutex> slock(stats_mutex_);
        ++ledger_.requests_rejected;
        ++client_slot(opts.client_id).rejected;
        record_retry_after(config_.reject_retry_after_ms);
      }
      req.promise.set_exception(std::make_exception_ptr(ServeError(
          ServeErrorCode::kOverloaded, /*billed=*/false,
          "RetrievalServer: admission rejected under load",
          config_.reject_retry_after_ms)));
      return false;
    }
    if (config_.admission == AdmissionPolicy::kShed) {
      // Evict the queued request closest to its deadline — the least useful
      // work left, since it is the likeliest to expire before serving anyway.
      // Undeadlined requests key as +inf, so among them the strict `<` scan
      // keeps the earliest index and the policy falls back to oldest-first.
      while (queue_.size() >= admit_limit_) {
        std::size_t victim = 0;
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          const double key = queue_[i].has_deadline
                                 ? queue_[i].deadline_ms
                                 : std::numeric_limits<double>::infinity();
          if (key < best) {
            best = key;
            victim = i;
          }
        }
        shed_victims.push_back(std::move(queue_[victim]));
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    if (opts.has_deadline()) {
      req.has_deadline = true;
      req.deadline_ms = clock_->now_ms() + opts.ttl_ms;
    }
    req.queued.reset();  // latency clock starts at enqueue
    queue_.push_back(std::move(req));
  }
  not_empty_.notify_one();
  if (config_.admission == AdmissionPolicy::kShed) not_full_.notify_all();

  if (!shed_victims.empty()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ledger_.requests_shed += static_cast<std::int64_t>(shed_victims.size());
      // Attribute each eviction to the victim's own client, not the
      // newcomer that displaced it.
      for (const auto& victim : shed_victims) {
        ++client_slot(victim.client_id).shed;
      }
    }
    // Shed requests were accepted (and billed at acceptance); fail them with
    // the typed eviction error so retrying clients can resubmit.
    fail_each_billed(shed_victims, ServeErrorCode::kShed,
                     "RetrievalServer: shed to admit fresher work");
  }
  return true;
}

std::future<metrics::RetrievalList> RetrievalServer::submit(
    video::Video v, std::size_t m, const RequestOptions& opts) {
  Request req;
  req.video = std::move(v);
  req.m = m;
  auto future = req.promise.get_future();
  enqueue(req, nullptr, opts);
  return future;
}

SubmitOutcome RetrievalServer::submit_with_deadline(
    video::Video v, std::size_t m, std::chrono::milliseconds deadline,
    const RequestOptions& opts) {
  Request req;
  req.video = std::move(v);
  req.m = m;
  SubmitOutcome out;
  out.future = req.promise.get_future();
  out.accepted = enqueue(req, &deadline, opts);
  return out;
}

void RetrievalServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  join_lanes();
}

void RetrievalServer::join_lanes() {
  // The join itself must happen exactly once, but every racer has to block
  // until it finishes. Racers serialize on the mutex; whichever arrives
  // first performs the join, late arrivals find no lane and fall through.
  std::lock_guard<std::mutex> lock(join_mutex_);
  for (auto& lane : lanes_) lane.join();
  lanes_.clear();
  // Every lane is gone: leave the index exactly as a never-degraded server
  // would, and settle the open degraded stint into the accumulator.
  const double now_ms = clock_->now_ms();
  std::lock_guard<std::mutex> slock(stats_mutex_);
  if (degraded_) {
    system_.set_index_degraded(false);
    degraded_ = false;
    ledger_.degraded_accum_ms += std::max(0.0, now_ms - degraded_since_ms_);
  }
}

bool RetrievalServer::stopped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stop_;
}

bool RetrievalServer::crashed() const {
  return crashed_.load(std::memory_order_relaxed);
}

std::int64_t RetrievalServer::epoch() const noexcept {
  return epoch_.load(std::memory_order_relaxed);
}

void RetrievalServer::count_faulted(const std::vector<Request>& requests,
                                    bool lost) {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (const auto& r : requests) {
    auto& c = client_slot(r.client_id);
    ++ledger_.faults_injected;
    ++c.faulted;
    if (lost) {
      ++ledger_.requests_lost;
      ++c.lost;
    }
  }
}

void RetrievalServer::fail_lost(std::vector<Request>& lost) {
  if (lost.empty()) return;
  count_faulted(lost, /*lost=*/true);
  // Lost requests were accepted — the victim may already have spent (or been
  // about to spend) backend work on them — so they stay billed, mirroring
  // the shed/expired convention. kConnectionLost is retryable: the client
  // re-submits after the restart.
  fail_each_billed(lost, ServeErrorCode::kConnectionLost,
                   "RetrievalServer: server crashed with the request in "
                   "flight");
  lost.clear();
}

void RetrievalServer::crash() {
  std::vector<Request> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;  // already down (crashed or shut down)
    stop_ = true;
    crashed_.store(true, std::memory_order_release);
    // NO draining — the queue dies with the process. Move it out so every
    // lane wakes to an empty queue and exits once its batch is done.
    while (!queue_.empty()) {
      orphans.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  join_lanes();
  // Requests the lanes had in flight failed inside process_batch (it polls
  // crashed_); the queued ones die here.
  fail_lost(orphans);
  std::lock_guard<std::mutex> slock(stats_mutex_);
  ++ledger_.crashes;
}

ServerSnapshot RetrievalServer::snapshot() const {
  if (!stopped()) {
    throw std::logic_error(
        "RetrievalServer::snapshot: requires a stopped server (a consistent "
        "ledger cannot be read out from under live lanes)");
  }
  ServerSnapshot snap;
  snap.epoch = epoch_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snap.ledger = ledger_;
  }
  if (limiter_ != nullptr) {
    snap.has_limiter = true;
    snap.limiter = limiter_->snapshot();
  }
  return snap;
}

void RetrievalServer::restart() { restart_internal(nullptr); }

void RetrievalServer::restart(const ServerSnapshot& snap) {
  restart_internal(&snap);
}

void RetrievalServer::restart_internal(const ServerSnapshot* snap) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!stop_) {
      throw std::logic_error(
          "RetrievalServer::restart: server is still running");
    }
  }
  join_lanes();  // the previous lanes must be fully gone

  if (snap == nullptr) {
    // A new process with empty ledgers: billing reconciliation across the
    // restart is exactly what this path does NOT give you — that is the
    // snapshot overload's job.
    reset_stats();
  } else {
    const Ledger& ledger = snap->ledger;
    if (ledger.batch_size_counts.size() != config_.max_batch + 1 ||
        ledger.occupancy_deciles.size() != 11 ||
        ledger.retry_after_buckets.size() != 12) {
      throw std::logic_error(
          "RetrievalServer::restart: snapshot does not match this server's "
          "configuration");
    }
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ledger_ = ledger;
    if (snap->has_limiter && limiter_ != nullptr) {
      limiter_->restore(snap->limiter);
    }
  }

  // Recovery restores the configured index mode. join_lanes already left
  // the index non-degraded; this also covers a gallery snapshot load.
  system_.set_index_degraded(false);

  const std::int64_t base =
      snap != nullptr ? snap->epoch : epoch_.load(std::memory_order_relaxed);
  epoch_.store(base + 1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
    crashed_.store(false, std::memory_order_release);
  }
  launch_lanes();
}

void RetrievalServer::lane_loop(std::size_t lane) {
  // Every parallel_for this lane issues — the extractor's kernels, the index
  // scan — runs inline here: the other lanes keep the cores busy.
  const ThreadPool::InlineScope inline_scope(compute_pool());
  models::FeatureExtractor& extractor =
      lane == 0 ? system_.extractor() : *replicas_[lane - 1];
  std::vector<Request> batch;
  std::vector<Request> expired;
  for (;;) {
    std::size_t occupancy = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop_ set and everything drained
      std::size_t take = config_.max_batch;
      if (config_.batch_timeout_ms > 0.0) {
        if (!stop_ && queue_.size() < config_.max_batch) {
          // Latency-aware batching: pay a bounded wall wait for a fuller
          // batch, draining early the moment the batch fills or shutdown
          // begins.
          not_empty_.wait_for(
              lock,
              std::chrono::duration<double, std::milli>(
                  config_.batch_timeout_ms),
              [this] { return stop_ || queue_.size() >= config_.max_batch; });
          // Another lane took the requests meanwhile: no tick.
          if (queue_.empty()) continue;
        }
      } else {
        // Share a backlog across the lanes instead of serving it on one.
        take = std::min(take, (queue_.size() + lanes() - 1) / lanes());
      }
      occupancy = queue_.size();
      batch.clear();
      expired.clear();
      // Shed expired requests before they cost a batch slot (and before the
      // backend pays for extraction): only live requests fill the batch,
      // each with its fault decision drawn here, in arrival order.
      const double now_ms = clock_->now_ms();
      while (batch.size() < take && !queue_.empty()) {
        Request r = std::move(queue_.front());
        queue_.pop_front();
        if (r.has_deadline && now_ms > r.deadline_ms) {
          expired.push_back(std::move(r));
          continue;
        }
        if (config_.fault_injector != nullptr) {
          r.fault = config_.fault_injector->next();
        }
        batch.push_back(std::move(r));
      }
    }
    not_full_.notify_all();
    // Ladder decisions use the occupancy this tick *saw*, before draining:
    // the batch about to be served is the one that pays (or stops paying)
    // the recall trade.
    const bool degraded = update_degradation(occupancy);
    if (!expired.empty()) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ledger_.requests_expired += static_cast<std::int64_t>(expired.size());
        for (const auto& r : expired) ++client_slot(r.client_id).expired;
      }
      fail_each_billed(expired, ServeErrorCode::kExpired,
                       "RetrievalServer: deadline expired while queued");
    }
    if (!batch.empty()) process_batch(extractor, batch, degraded);
  }
}

bool RetrievalServer::update_degradation(std::size_t occupancy) {
  const auto decile = std::min<std::size_t>(
      10, occupancy * 10 / config_.queue_capacity);
  const double frac = static_cast<double>(occupancy) /
                      static_cast<double>(config_.queue_capacity);
  const double now_ms = clock_->now_ms();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ++ledger_.occupancy_deciles[decile];
  if (config_.degrade_high > 0.0) {
    if (!degraded_ && frac >= config_.degrade_high) {
      // set_index_degraded reports whether the index has a cheaper mode at
      // all — the flat exact scan does not, and then the server never
      // pretends to be degraded.
      degraded_ = system_.set_index_degraded(true);
      if (degraded_) {
        ++ledger_.degrade_entries;
        degraded_since_ms_ = now_ms;
      }
    } else if (degraded_ && frac <= config_.degrade_low) {
      system_.set_index_degraded(false);
      degraded_ = false;
      ledger_.degraded_accum_ms += std::max(0.0, now_ms - degraded_since_ms_);
    }
  }
  return degraded_;
}

void RetrievalServer::process_batch(models::FeatureExtractor& extractor,
                                    std::vector<Request>& batch,
                                    bool degraded) {
  // A crash kills in-flight work: a batch picked up after the crash flag
  // went up dies as lost instead of being served by a "dead" process.
  if (crashed_.load(std::memory_order_acquire)) {
    fail_lost(batch);
    return;
  }

  // Featurize the whole tick in one extract_batch call, on this lane's
  // extractor: a replica first takes the system extractor's weights, so an
  // update between batches reaches every lane. A failure here (bad
  // geometry, extractor misuse) poisons the batch, not the lane: every
  // affected future gets a fatal ServeError, billed and counted as faulted,
  // and the loop keeps serving.
  std::vector<video::Video> videos;
  videos.reserve(batch.size());
  for (auto& r : batch) videos.push_back(std::move(r.video));

  std::vector<Tensor> features;
  try {
    if (&extractor != &system_.extractor()) {
      extractor.copy_parameters_from(system_.extractor());
    }
    features = extractor.extract_batch(videos);
  } catch (const std::exception& e) {
    count_faulted(batch, /*lost=*/false);
    fail_each_billed(batch, ServeErrorCode::kFatal,
                     std::string("RetrievalServer: backend failure: ") +
                         e.what());
    return;
  }

  // Answer the index lookup of every request that will need one, in
  // arrival order; each scan runs inline on this lane.
  struct Answer {
    metrics::RetrievalList list;
    std::exception_ptr error;
  };
  std::vector<Answer> answers(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].fault != FaultKind::kNone &&
        batch[i].fault != FaultKind::kDelay) {
      continue;
    }
    try {
      const auto neighbors = system_.retrieve_feature(features[i], batch[i].m);
      answers[i].list.reserve(neighbors.size());
      for (const auto& n : neighbors) answers[i].list.push_back(n.id);
    } catch (const std::exception& e) {
      answers[i].error = std::make_exception_ptr(
          ServeError(ServeErrorCode::kFatal, /*billed=*/true,
                     std::string("RetrievalServer: backend failure: ") +
                         e.what()));
    }
  }

  // Last pre-response crash check: if the process "died" while the answers
  // were being computed, none of them ever reached a client.
  if (crashed_.load(std::memory_order_acquire)) {
    fail_lost(batch);
    return;
  }

  // Per-request outcome for client attribution: served carries its latency,
  // faulted (an injected fault or a failed index lookup) is counted against
  // the client it hit.
  std::vector<std::pair<std::size_t, double>> served_lat;
  served_lat.reserve(batch.size());
  std::vector<std::size_t> faulted_idx;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    switch (batch[i].fault) {
      case FaultKind::kTransientError:
        batch[i].promise.set_exception(std::make_exception_ptr(
            ServeError(ServeErrorCode::kTransient, /*billed=*/true,
                       "RetrievalServer: injected transient error")));
        faulted_idx.push_back(i);
        continue;
      case FaultKind::kFatalError:
        batch[i].promise.set_exception(std::make_exception_ptr(
            ServeError(ServeErrorCode::kFatal, /*billed=*/true,
                       "RetrievalServer: injected fatal victim error")));
        faulted_idx.push_back(i);
        continue;
      case FaultKind::kDrop:
        // Abandoning the promise makes the future ready with
        // std::future_error{broken_promise} — the lost-response signal.
        batch[i].promise = std::promise<metrics::RetrievalList>();
        faulted_idx.push_back(i);
        continue;
      case FaultKind::kDelay:
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            config_.fault_injector->config().delay_ms));
        break;
      case FaultKind::kNone:
        break;
    }
    if (answers[i].error != nullptr) {
      batch[i].promise.set_exception(answers[i].error);
      faulted_idx.push_back(i);
      continue;
    }
    served_lat.emplace_back(i, batch[i].queued.elapsed_ms());
    batch[i].promise.set_value(std::move(answers[i].list));
  }

  std::lock_guard<std::mutex> lock(stats_mutex_);
  ledger_.queries_served += static_cast<std::int64_t>(served_lat.size());
  if (degraded) {
    ledger_.degraded_served += static_cast<std::int64_t>(served_lat.size());
  }
  ledger_.faults_injected += static_cast<std::int64_t>(faulted_idx.size());
  ++ledger_.batches;
  ++ledger_.batch_size_counts[batch.size()];
  for (const auto& [i, ms] : served_lat) {
    ledger_.latency.record(ms, config_.latency_reservoir);
    auto& c = client_slot(batch[i].client_id);
    ++c.served;
    c.latency.record(ms, config_.client_latency_reservoir);
  }
  for (const std::size_t i : faulted_idx) {
    ++client_slot(batch[i].client_id).faulted;
  }
}

ClientLedger& RetrievalServer::client_slot(const std::string& client_id) {
  auto it = ledger_.clients.find(client_id);
  if (it == ledger_.clients.end()) {
    it = ledger_.clients.emplace(client_id, ClientLedger{}).first;
    // Seeding from the id (not insertion order) keeps each client's retained
    // sample set independent of which clients happened to arrive first.
    it->second.latency.rng =
        Rng(kReservoirSeed ^
            models::io::fnv1a(client_id.data(), client_id.size()));
  }
  return it->second;
}

void RetrievalServer::record_retry_after(double hint_ms) {
  // Power-of-two buckets: 0 holds hints <= 1 ms, b holds (2^(b-1), 2^b],
  // the last bucket everything beyond.
  std::size_t b = 0;
  double upper = 1.0;
  auto& buckets = ledger_.retry_after_buckets;
  while (b + 1 < buckets.size() && hint_ms > upper) {
    upper *= 2.0;
    ++b;
  }
  ++buckets[b];
}

ServerStats RetrievalServer::stats() const {
  ServerStats out;
  out.server_epoch = epoch_.load(std::memory_order_relaxed);
  const double now_ms = clock_->now_ms();  // clock read outside the lock
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    static_cast<Ledger&>(out) = ledger_;
    out.degraded_now = degraded_;
    // An open degraded stint counts up to the snapshot, so degraded_ms is
    // monotone in time, not only at exit ticks.
    out.degraded_ms =
        ledger_.degraded_accum_ms +
        (degraded_ ? std::max(0.0, now_ms - degraded_since_ms_) : 0.0);
  }
  out.latency_samples_retained =
      static_cast<std::int64_t>(out.latency.samples.size());
  out.p50_latency_ms = out.latency.percentile(0.50);
  out.p95_latency_ms = out.latency.percentile(0.95);
  return out;
}

void RetrievalServer::set_client_rate(double rate_per_sec) {
  if (limiter_ == nullptr) {
    throw std::logic_error(
        "RetrievalServer::set_client_rate: rate limiting is disabled "
        "(client_rate was 0 at construction)");
  }
  limiter_->set_rate(rate_per_sec, clock_->now_ms());
}

double RetrievalServer::client_rate() const {
  return limiter_ == nullptr ? 0.0 : limiter_->rate();
}

Ledger RetrievalServer::fresh_ledger() const {
  Ledger ledger;
  ledger.batch_size_counts.assign(config_.max_batch + 1, 0);
  ledger.occupancy_deciles.assign(11, 0);
  ledger.retry_after_buckets.assign(12, 0);
  ledger.latency.samples.reserve(config_.latency_reservoir);
  ledger.latency.rng = Rng(kReservoirSeed);
  return ledger;
}

void RetrievalServer::reset_stats() {
  const double now_ms = clock_->now_ms();
  Ledger fresh = fresh_ledger();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  ledger_ = std::move(fresh);
  // A reset during an open degraded stint restarts the stint's clock; the
  // ladder state itself (degraded or not) is serving reality, not a stat.
  if (degraded_) degraded_since_ms_ = now_ms;
}

}  // namespace duo::serve
