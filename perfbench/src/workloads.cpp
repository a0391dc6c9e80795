#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <iterator>
#include <limits>
#include <mutex>
#include <numeric>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "attack/objective.hpp"
#include "attack/sparse_query.hpp"
#include "attack/sparse_transfer.hpp"
#include "attack/surrogate.hpp"
#include "baselines/vanilla.hpp"
#include "common/rng.hpp"
#include "serve/async_handle.hpp"
#include "serve/resilient.hpp"
#include "serve/server.hpp"

namespace perfbench {

using duo::Rng;
using duo::metrics::RetrievalList;
using duo::video::Video;

namespace {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL);
  return rng.next_u64();
}

std::string fmt(const char* f, double a, double b = 0.0) {
  char buf[128];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

// ---------------------------------------------------------------------------
// serve_open: open-loop Poisson arrivals from one generator thread, one
// collector thread reading the futures in order.
//
// Rates and the p99 limit are absolute numbers frozen from the seed commit
// (README.md, "Frozen serve constants"): the seed saturated near 1000 qps on
// a 4-core AVX-512 Xeon. They are never re-derived from the code under test.
constexpr double kMidQps = 200.0;
constexpr double kHighQps = 400.0;
constexpr double kP99LimitMs = 25.0;
// Ladder rungs above kHighQps; each rung issues the same number of requests
// so its p99 always rests on the same sample count.
constexpr double kLadderQps[] = {650, 700, 760, 820, 890,  960,
                                 1040, 1120, 1210, 1310, 1420, 1540};
// A failed or refused request counts as missing any latency limit.
constexpr double kFailedMs = 1e6;
constexpr std::int64_t kRequestIdBase = 10'000'000;

struct Request {
  std::int64_t id = 0;
  std::size_t pool_index = 0;
  double due_s = 0.0;
  double submit_start_s = 0.0;
  double submit_end_s = 0.0;
  double done_s = 0.0;
  double h = 1.0;  // host factor of the slice the request ran in
  bool ok = false;
  bool right = false;
  std::future<RetrievalList> future;
};

// One open-loop phase at a nominal rate, possibly run as several slices.
// Offered load is the nominal rate over the host factor measured just
// before each slice, and times are divided by the slice's host factor, so a
// phase sits at the same utilisation of a slower or faster host.
struct OpenLoop {
  double rate = 0.0;
  std::vector<Request> requests;
  duo::serve::ServerStats stats;  // batches and served summed over slices
  std::vector<double> host;
  bool ledger_ok = true;

  std::vector<double> latency_ms() const {
    std::vector<double> out;
    out.reserve(requests.size());
    for (const auto& r : requests) {
      out.push_back(r.ok ? (r.done_s - r.due_s) * 1e3 / r.h : kFailedMs);
    }
    return out;
  }
  std::vector<double> lateness_ms() const {
    std::vector<double> out;
    for (const auto& r : requests) {
      out.push_back((r.submit_start_s - r.due_s) * 1e3 / r.h);
    }
    return out;
  }
  std::int64_t failed() const {
    return std::count_if(requests.begin(), requests.end(),
                         [](const Request& r) { return !r.ok; });
  }
  std::int64_t wrong() const {
    return std::count_if(requests.begin(), requests.end(),
                         [](const Request& r) { return r.ok && !r.right; });
  }
  double p(double q) const { return quantile(latency_ms(), q); }
  double tail() const { return p(tail_quantile_for(requests.size())); }
  // Meets the limit without a growing backlog: p99 stays under the limit
  // and the generator never fell behind its schedule by the limit.
  bool meets_limit() const {
    return failed() == 0 && p(0.99) <= kP99LimitMs &&
           quantile(lateness_ms(), 0.99) <= kP99LimitMs;
  }
};

bool ledger_holds(const duo::serve::ServerStats& s, std::int64_t billed) {
  return billed == s.queries_served + s.faults_injected + s.requests_expired +
                       s.requests_shed;
}

// One slice: Poisson arrivals at rate / host factor for duration_s.
void run_slice(duo::serve::RetrievalServer& server,
               const std::vector<Video>& pool,
               const std::vector<RetrievalList>& refs, double rate,
               double duration_s, std::uint64_t seed, std::int64_t& next_id,
               OpenLoop& out) {
  const double h_before = host_factor();
  const double offered = rate / h_before;
  std::vector<Request> reqs;
  Rng rng(seed);
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / offered;
    if (t >= duration_s) break;
    Request r;
    r.id = next_id++;
    r.pool_index = static_cast<std::size_t>(rng.uniform_index(pool.size()));
    r.due_s = t;
    reqs.push_back(std::move(r));
  }
  server.reset_stats();

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t published = 0;
  std::thread collector([&] {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return published > i; });
      }
      Request& r = reqs[i];
      try {
        const RetrievalList list = r.future.get();
        r.done_s = now_s();
        r.ok = true;
        r.right = list == refs[r.pool_index];
      } catch (...) {
        r.done_s = now_s();
      }
    }
  });

  const double t0 = now_s() + 0.002;
  for (auto& r : reqs) {
    r.due_s += t0;
    sleep_until_s(r.due_s);
    const Video& src = pool[r.pool_index];
    Video v(src.data(), src.geometry(), src.label(), r.id);
    r.submit_start_s = now_s();
    auto fut = server.submit(std::move(v), kTopM);
    r.submit_end_s = now_s();
    {
      std::lock_guard<std::mutex> lock(mutex);
      r.future = std::move(fut);
      ++published;
    }
    cv.notify_one();
  }
  collector.join();

  const double h = window_factor(h_before, host_factor());
  const auto stats = server.stats();
  out.ledger_ok =
      out.ledger_ok &&
      ledger_holds(stats, static_cast<std::int64_t>(reqs.size()));
  out.stats.batches += stats.batches;
  out.stats.queries_served += stats.queries_served;
  out.stats.p50_latency_ms = stats.p50_latency_ms;
  out.stats.p95_latency_ms = stats.p95_latency_ms;
  out.host.push_back(h);
  for (auto& r : reqs) {
    r.h = h;
    out.requests.push_back(std::move(r));
  }
}

// Slices of at most kSliceS seconds each.
constexpr double kSliceS = 0.5;

OpenLoop run_open_loop(duo::serve::RetrievalServer& server,
                       const std::vector<Video>& pool,
                       const std::vector<RetrievalList>& refs, double rate,
                       double duration_s, std::uint64_t seed,
                       std::int64_t& next_id) {
  OpenLoop out;
  out.rate = rate;
  const int slices = std::max(1, static_cast<int>(std::ceil(duration_s / kSliceS)));
  for (int i = 0; i < slices; ++i) {
    run_slice(server, pool, refs, rate, duration_s / slices, mix(seed, i),
              next_id, out);
  }
  return out;
}

// Closed-loop saturation: kSatClients clients each waiting for its answer
// before the next submit, in host-bracketed windows. Returns completed
// requests per host-normalised second; counts failures and wrong answers.
constexpr int kSatClients = 8;

struct Saturation {
  double qps = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t wrong = 0;
};

Saturation run_saturation(duo::serve::RetrievalServer& server,
                          const std::vector<Video>& pool,
                          const std::vector<RetrievalList>& refs,
                          double seconds, int windows, std::uint64_t seed) {
  Saturation out;
  std::mutex mutex;
  double norm_s = 0.0;
  std::int64_t done = 0;
  double h_before = host_factor();
  for (int w = 0; w < windows; ++w) {
    const double start = now_s();
    const double deadline = start + seconds / windows;
    std::vector<std::thread> clients;
    for (int c = 0; c < kSatClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(mix(mix(seed, w), c));
        std::int64_t ok = 0, failed = 0, wrong = 0;
        while (now_s() < deadline) {
          const std::size_t p = rng.uniform_index(pool.size());
          try {
            const auto list = server.submit(pool[p], kTopM).get();
            ++ok;
            if (list != refs[p]) ++wrong;
          } catch (...) {
            ++failed;
          }
        }
        std::lock_guard<std::mutex> lock(mutex);
        done += ok;
        out.attempted += ok + failed;
        out.failed += failed;
        out.wrong += wrong;
      });
    }
    for (auto& t : clients) t.join();
    const double wall = now_s() - start;
    const double h_after = host_factor();
    norm_s += wall / window_factor(h_before, h_after);
    h_before = h_after;
  }
  out.qps = static_cast<double>(done) / norm_s;
  return out;
}

std::vector<RetrievalList> reference_answers(World& reference) {
  std::vector<RetrievalList> refs;
  refs.reserve(reference.data.test.size());
  for (const auto& v : reference.data.test) {
    refs.push_back(reference.system->retrieve(v, kTopM));
  }
  return refs;
}

// serve.* and load.* from one traced open-loop phase. queue wait is submit
// return → start of the extract_batch span holding the request's id; post
// time is span end → answer read by the collector.
void serve_layer_from_phase(const OpenLoop& phase, Tracer& tracer,
                            Report& report, bool all) {
  std::unordered_map<std::int64_t, std::pair<double, double>> span_of;
  for (const auto& s : tracer.spans("models.extract_batch")) {
    for (const auto id : s.ids) span_of[id] = {s.start_s, s.end_s};
  }
  std::vector<double> wait, post, block;
  for (const auto& r : phase.requests) {
    block.push_back((r.submit_end_s - r.submit_start_s) * 1e3);
    const auto it = span_of.find(r.id);
    if (!r.ok || it == span_of.end()) continue;
    wait.push_back((it->second.first - r.submit_end_s) * 1e3);
    post.push_back((r.done_s - it->second.second) * 1e3);
  }
  report.add_layer("serve.queue_wait_ms_p50", quantile(wait, 0.5), "ms");
  report.add_layer("serve.queue_wait_ms_p99", quantile(wait, 0.99), "ms");
  report.add_layer("serve.post_ms_p50", quantile(post, 0.5), "ms");
  report.add_layer("serve.submit_block_ms_p99", quantile(block, 0.99), "ms");
  report.add_layer("load.lateness_ms_p99",
                   quantile(phase.lateness_ms(), 0.99), "ms");
  if (!all) return;
  report.add_layer("serve.batch_size_mean", phase.stats.mean_batch_size(),
                   "items");
  report.add_layer("serve.batches", static_cast<double>(phase.stats.batches),
                   "count");
  report.add_layer("serve.server_latency_ms_p50", phase.stats.p50_latency_ms,
                   "ms");
  report.add_layer("serve.server_latency_ms_p95", phase.stats.p95_latency_ms,
                   "ms");
}

// models.extract_batch_* over every victim forward the workload made,
// batched (server) or single (direct handles).
void victim_layer(Tracer& tracer, Report& report) {
  auto spans = tracer.spans("models.extract_batch");
  for (auto& s : tracer.spans("models.extract")) spans.push_back(s);
  double busy = 0.0;
  std::int64_t items = 0;
  for (const auto& s : spans) {
    busy += s.end_s - s.start_s;
    items += s.items;
  }
  report.add_layer("models.extract_batch_calls",
                   static_cast<double>(spans.size()), "count");
  report.add_layer("models.extract_batch_items", static_cast<double>(items),
                   "count");
  report.add_layer("models.extract_batch_busy_s", busy, "s");
}

// ---------------------------------------------------------------------------
// attack_query: closed loop, each session running back-to-back pipelined
// SparseQuery attacks through its own ResilientHandle.
constexpr int kSessions = 4;
// iter_numQ x coords_per_step stays within the support (150 coordinates),
// so no step's coordinate group straddles a deck reshuffle: the pipelined
// driver builds both candidates from one base and so does not match the
// serial one when a group draws the same coordinate twice across the
// reshuffle (README.md, "Known divergence").
constexpr int kIterNumQ = 20;
constexpr int kCoordsPerStep = 4;
constexpr std::int64_t kSupportK = 150;
constexpr std::int64_t kSupportN = 4;
// Attacks per session replayed serially for the correctness gate.
constexpr int kReplayPerSession = 1;
// Slices of the window, each bracketed by host-factor measurements.
constexpr int kWindows = 24;

struct AttackSpec {
  std::size_t v = 0;
  std::size_t v_t = 0;
  duo::attack::Perturbation pert;
  duo::attack::SparseQueryConfig cfg;
};

AttackSpec make_attack(std::uint64_t seed, int session, int index,
                       const std::vector<Video>& pool) {
  AttackSpec a;
  const std::uint64_t s = mix(mix(seed, 1000 + session), index);
  Rng rng(s);
  a.v = static_cast<std::size_t>(rng.uniform_index(pool.size()));
  do {
    a.v_t = static_cast<std::size_t>(rng.uniform_index(pool.size()));
  } while (pool[a.v_t].label() == pool[a.v].label());
  a.pert = duo::baselines::random_support(kGeometry, kSupportK, kSupportN, rng);
  duo::Tensor noise =
      duo::Tensor::uniform(kGeometry.tensor_shape(), -10.0f, 10.0f, rng);
  a.pert.magnitude() = noise * a.pert.pixel_mask() * a.pert.frame_mask();
  a.cfg.iter_numQ = kIterNumQ;
  a.cfg.coords_per_step = kCoordsPerStep;
  a.cfg.m = kTopM;
  a.cfg.seed = s;
  return a;
}

struct AttackRecord {
  int session = 0;
  int index = 0;
  double wall_s = 0.0;
  std::int64_t steps = 0;
  std::int64_t accepted = 0;
  std::int64_t billed = 0;
  double final_t = 0.0;
  std::vector<double> t_history;
  duo::Tensor v_adv;
};

struct AttackRun {
  std::vector<AttackRecord> records;
  std::int64_t failed = 0;
  double wall_s = 0.0;
  double host = 1.0;  // median host factor over the window boundaries
  duo::serve::ServerStats stats;
  std::int64_t billed = 0;
};

// The window is cut into `windows` slices; sessions drain at each slice end
// so the host factor can be sampled between slices on an idle machine.
AttackRun run_attacks(const RunContext& ctx, int sessions, double seconds,
                      int max_per_session, int windows) {
  const auto& pool = ctx.served->data.test;
  duo::serve::RetrievalServer server(*ctx.served->system);
  duo::serve::RetryPolicy policy;
  // Generous: a retry would change billing, and billing is a reported count.
  policy.submit_deadline = std::chrono::milliseconds(10'000);
  policy.query_timeout = std::chrono::milliseconds(10'000);

  std::vector<std::unique_ptr<duo::serve::AsyncBlackBoxHandle>> inner;
  std::vector<std::unique_ptr<duo::serve::ResilientHandle>> handles;
  for (int s = 0; s < sessions; ++s) {
    duo::serve::RequestOptions opt;
    opt.client_id = "session-" + std::to_string(s);
    inner.push_back(
        std::make_unique<duo::serve::AsyncBlackBoxHandle>(server, opt));
    handles.push_back(
        std::make_unique<duo::serve::ResilientHandle>(*inner.back(), policy));
  }

  AttackRun run;
  std::mutex mutex;
  std::vector<int> next(sessions, 0);
  HostSamples host;
  host.take();
  for (int w = 0; w < windows; ++w) {
    const double start = now_s();
    const double deadline = start + seconds / windows;
    std::vector<std::thread> threads;
    for (int s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        auto& handle = *handles[s];
        for (int& j = next[s]; j < max_per_session && now_s() < deadline;
             ++j) {
          const AttackSpec a = make_attack(ctx.seed, s, j, pool);
          AttackRecord rec;
          rec.session = s;
          rec.index = j;
          const std::int64_t billed0 = handle.queries_billed();
          const double t0 = now_s();
          try {
            ScopedSpan span(ctx.tracer, "attack.sparse_query");
            const auto octx = duo::attack::make_objective_context(
                handle, pool[a.v], pool[a.v_t], kTopM);
            auto res = duo::attack::sparse_query_pipelined(
                pool[a.v], a.pert, handle, octx, a.cfg);
            rec.wall_s = now_s() - t0;
            rec.steps = static_cast<std::int64_t>(res.t_history.size());
            for (std::size_t i = 1; i < res.t_history.size(); ++i) {
              if (res.t_history[i] < res.t_history[i - 1]) ++rec.accepted;
            }
            rec.final_t = res.final_t;
            rec.billed = handle.queries_billed() - billed0;
            if (j < kReplayPerSession) {
              rec.t_history = std::move(res.t_history);
              rec.v_adv = std::move(res.v_adv.data());
            }
            std::lock_guard<std::mutex> lock(mutex);
            run.records.push_back(std::move(rec));
          } catch (const std::exception& e) {
            std::fprintf(stderr, "attack %d/%d failed: %s\n", s, j, e.what());
            std::lock_guard<std::mutex> lock(mutex);
            ++run.failed;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    run.wall_s += now_s() - start;
    host.take();
  }
  run.host = host.median_factor();
  server.shutdown();
  run.stats = server.stats();
  for (const auto& h : inner) run.billed += h->query_count();
  std::sort(run.records.begin(), run.records.end(),
            [](const AttackRecord& a, const AttackRecord& b) {
              return std::tie(a.session, a.index) < std::tie(b.session, b.index);
            });
  return run;
}

// Serial sparse_query through a direct BlackBoxHandle on the reference
// world must reproduce the pipelined outcome and t_history bitwise. Returns
// the summed serial billing of the replayed attacks.
std::int64_t replay_gate(const RunContext& ctx, const AttackRun& run,
                         Report& report, std::int64_t& pipelined_billed) {
  const auto& pool = ctx.reference->data.test;
  std::int64_t serial_billed = 0;
  for (const auto& rec : run.records) {
    if (rec.index >= kReplayPerSession) continue;
    const AttackSpec a = make_attack(ctx.seed, rec.session, rec.index, pool);
    duo::retrieval::BlackBoxHandle direct(*ctx.reference->system);
    const auto octx = duo::attack::make_objective_context(
        direct, pool[a.v], pool[a.v_t], kTopM);
    const auto res =
        duo::attack::sparse_query(pool[a.v], a.pert, direct, octx, a.cfg);
    const bool same_video =
        res.v_adv.data().size() == rec.v_adv.size() &&
        std::memcmp(res.v_adv.data().data(), rec.v_adv.data(),
                    sizeof(float) * rec.v_adv.size()) == 0;
    std::size_t diverge = 0;
    while (diverge < std::min(res.t_history.size(), rec.t_history.size()) &&
           res.t_history[diverge] == rec.t_history[diverge]) {
      ++diverge;
    }
    report.gate(res.t_history == rec.t_history && res.final_t == rec.final_t &&
                    same_video,
                "attack_query: pipelined attack " +
                    std::to_string(rec.session) + "/" +
                    std::to_string(rec.index) +
                    " differs from serial sparse_query (t_history from step " +
                    std::to_string(diverge) + ", video " +
                    (same_video ? "same" : "differs") + ")");
    serial_billed += direct.query_count();
    pipelined_billed += rec.billed;
  }
  return serial_billed;
}

void attack_layer(const RunContext& ctx, const AttackRun& run,
                  Report& report) {
  std::int64_t steps = 0, accepted = 0, billed = 0;
  std::vector<double> final_t;
  for (const auto& r : run.records) {
    steps += r.steps - 1;
    accepted += r.accepted;
    billed += r.billed;
    final_t.push_back(r.final_t);
  }
  std::int64_t pipelined = 0;
  const std::int64_t serial = replay_gate(ctx, run, report, pipelined);
  const double n = std::max<double>(1.0, run.records.size());
  report.add_layer("attack.accept_ratio",
                   static_cast<double>(accepted) / std::max<double>(1, steps),
                   "ratio");
  report.add_layer(
      "attack.spec_waste_ratio",
      pipelined > 0 ? 1.0 - static_cast<double>(serial) / pipelined : 0.0,
      "ratio");
  report.add_layer("attack.queries_per_attack", billed / n, "count");
  report.add_layer("attack.final_t", mean(final_t), "T");
}

// ---------------------------------------------------------------------------
// transfer: harvest → train_surrogate (MiniC3D) → sparse_transfer pairs,
// repeated with identical inputs until the window is spent.
struct TransferScale {
  duo::attack::SurrogateHarvestConfig harvest;
  duo::attack::SurrogateTrainConfig train;
  duo::attack::SparseTransferConfig transfer;
  int pairs = 3;
  int seeds = 6;
};

TransferScale workload_scale(std::uint64_t seed) {
  TransferScale s;
  s.harvest.m = kTopM;
  s.harvest.rounds = 3;
  s.harvest.target_video_count = 60;
  s.harvest.target_triplets = 240;
  s.harvest.seed = mix(seed, 11);
  s.train.epochs = 3;
  s.train.triplets_per_epoch = 48;
  s.train.seed = mix(seed, 13);
  s.transfer.k = 200;
  s.transfer.n = 4;
  s.transfer.tau = 30.0f;
  s.transfer.outer_iterations = 3;
  s.transfer.theta_steps = 10;
  return s;
}

// One tenth of the work, for the transfer probe of other workloads.
TransferScale probe_scale(std::uint64_t seed) {
  TransferScale s = workload_scale(seed);
  s.harvest.rounds = 1;
  s.harvest.target_triplets = 60;
  s.train.epochs = 1;
  s.train.triplets_per_epoch = 16;
  s.transfer.outer_iterations = 1;
  s.pairs = 1;
  s.seeds = 2;
  return s;
}

struct TransferRep {
  double total_s = 0.0;
  double harvest_s = 0.0;
  double train_s = 0.0;
  std::vector<double> pair_s;
  std::int64_t harvest_queries = 0;
  std::vector<double> epoch_losses;
  std::vector<double> final_losses;
};

TransferRep transfer_once(const RunContext& ctx, const TransferScale& sc,
                          Report& report, HostSamples& host) {
  const auto& pool = ctx.served->data.test;
  TransferRep rep;
  double t0 = now_s();

  duo::attack::VideoStore store(ctx.served->data.train);
  std::vector<std::int64_t> seed_ids;
  Rng rng(mix(ctx.seed, 7));
  for (int i = 0; i < sc.seeds; ++i) {
    const Video& v = pool[rng.uniform_index(pool.size())];
    if (!store.contains(v.id())) store.add(v);
    seed_ids.push_back(v.id());
  }
  duo::retrieval::BlackBoxHandle direct(*ctx.served->system);
  duo::attack::SurrogateDataset dataset;
  {
    ScopedSpan span(ctx.tracer, "attack.harvest");
    dataset = duo::attack::harvest_surrogate_dataset(direct, store, seed_ids,
                                                     sc.harvest);
  }
  rep.harvest_s = now_s() - t0;
  host.take();
  rep.harvest_queries = dataset.queries_spent;

  t0 = now_s();
  Rng init(mix(ctx.seed, 5));
  auto surrogate = duo::models::make_extractor(
      duo::models::ModelKind::kC3D, kGeometry, kFeatureDim, init);
  {
    ScopedSpan span(ctx.tracer, "attack.train_surrogate");
    rep.epoch_losses =
        duo::attack::train_surrogate(*surrogate, dataset, store, sc.train)
            .epoch_losses;
  }
  rep.train_s = now_s() - t0;
  host.take();

  for (int p = 0; p < sc.pairs; ++p) {
    const Video& v = pool[static_cast<std::size_t>(2 * p) % pool.size()];
    const Video& v_t =
        pool[static_cast<std::size_t>(2 * p + 1 + pool.size() / 2) %
             pool.size()];
    t0 = now_s();
    duo::attack::SparseTransferResult res;
    {
      ScopedSpan span(ctx.tracer, "attack.sparse_transfer");
      res = duo::attack::sparse_transfer(v, v_t, *surrogate, sc.transfer);
    }
    rep.pair_s.push_back(now_s() - t0);
    host.take();
    const auto& pert = res.perturbation;
    report.gate(pert.selected_pixels() == sc.transfer.k &&
                    pert.selected_frames() == sc.transfer.n &&
                    pert.magnitude().norm_linf() <= sc.transfer.tau + 1e-4f,
                "transfer: perturbation violates k, n or tau");
    rep.final_losses.push_back(res.loss_history.empty()
                                   ? 0.0
                                   : res.loss_history.back());
  }
  rep.total_s = rep.harvest_s + rep.train_s +
                std::accumulate(rep.pair_s.begin(), rep.pair_s.end(), 0.0);
  return rep;
}

void transfer_layer(const std::vector<TransferRep>& reps, Report& report) {
  std::vector<double> harvest, train, pairs, loss;
  for (const auto& r : reps) {
    harvest.push_back(r.harvest_s);
    train.push_back(r.train_s);
    pairs.insert(pairs.end(), r.pair_s.begin(), r.pair_s.end());
    loss.insert(loss.end(), r.final_losses.begin(), r.final_losses.end());
  }
  report.add_layer("attack.harvest_s", median(harvest), "s");
  report.add_layer("attack.harvest_queries",
                   static_cast<double>(reps.front().harvest_queries), "count");
  report.add_layer("attack.train_surrogate_s", median(train), "s");
  report.add_layer("attack.sparse_transfer_s", median(pairs), "s");
  report.add_layer("attack.transfer_loss_final", mean(loss), "loss");
}

}  // namespace

// ---------------------------------------------------------------------------

void run_attack_query(const RunContext& ctx, Report& report) {
  const AttackRun run =
      run_attacks(ctx, kSessions, ctx.seconds, std::numeric_limits<int>::max(),
                  kWindows);
  std::vector<double> wall_ms, final_t;
  std::int64_t steps = 0, billed = 0;
  for (const auto& r : run.records) {
    wall_ms.push_back(r.wall_s * 1e3 / run.host);
    final_t.push_back(r.final_t);
    steps += r.steps;
    billed += r.billed;
  }
  const std::size_t n = run.records.size();
  report.attempted = static_cast<std::int64_t>(n) + run.failed;
  report.failed = run.failed;
  report.gate(n > 0, "attack_query: no attack completed");
  report.gate(ledger_holds(run.stats, run.billed),
              "attack_query: billed != served + faulted + expired + shed");

  const double steps_per_s =
      static_cast<double>(steps) / run.wall_s * run.host;
  report.e2e.push_back({"rate_per_s", steps_per_s, "1/s"});

  const std::string samples = "n=" + std::to_string(n);
  report.line("attack_steps_per_s", steps_per_s, "1/s",
              "steps=" + std::to_string(steps));
  report.line("attack_s_p50", quantile(wall_ms, 0.5) / 1e3, "s", samples);
  report.line("attack_s_p90", quantile(wall_ms, 0.9) / 1e3, "s", samples);
  report.line("queries_per_attack",
              static_cast<double>(billed) / std::max<std::size_t>(1, n),
              "count", "victim-billed, incl. the two context queries");
  report.line("attack_final_t", mean(final_t), "T", "mean over attacks");
  report.line("host_factor", run.host, "x",
              fmt("median over %g windows; raw steps/s %.1f",
                  static_cast<double>(kWindows),
                  static_cast<double>(steps) / run.wall_s));

  if (ctx.tracer != nullptr) {
    attack_layer(ctx, run, report);
    report.add_layer("serve.batch_size_mean", run.stats.mean_batch_size(),
                     "items");
    report.add_layer("serve.batches", static_cast<double>(run.stats.batches),
                     "count");
    report.add_layer("serve.server_latency_ms_p50", run.stats.p50_latency_ms,
                     "ms");
    report.add_layer("serve.server_latency_ms_p95", run.stats.p95_latency_ms,
                     "ms");
    victim_layer(*ctx.tracer, report);
  } else {
    std::int64_t pipelined = 0;
    replay_gate(ctx, run, report, pipelined);
  }
}

void run_serve_open(const RunContext& ctx, Report& report) {
  const auto& pool = ctx.served->data.test;
  const std::vector<RetrievalList> refs = reference_answers(*ctx.reference);
  duo::serve::RetrievalServer server(*ctx.served->system);
  std::int64_t next_id = kRequestIdBase;

  // phases[0] = mid, phases[1] = high, then the ladder. Reserved up front:
  // the ladder keeps pointers into it.
  // Warm-up (pool threads, first clones, page faults): checked, not timed.
  std::vector<OpenLoop> phases;
  phases.reserve(2 + std::size(kLadderQps));
  const OpenLoop warm = run_open_loop(server, pool, refs, kMidQps,
                                      0.05 * ctx.seconds, mix(ctx.seed, 0),
                                      next_id);
  phases.push_back(run_open_loop(server, pool, refs, kMidQps,
                                 0.25 * ctx.seconds, mix(ctx.seed, 1),
                                 next_id));
  phases.push_back(run_open_loop(server, pool, refs, kHighQps,
                                 0.25 * ctx.seconds, mix(ctx.seed, 2),
                                 next_id));
  const Saturation sat = run_saturation(server, pool, refs, 0.2 * ctx.seconds,
                                        4, mix(ctx.seed, 3));
  const OpenLoop& mid = phases[0];
  const OpenLoop& high = phases[1];

  // Ladder: the highest rate meeting the limit, interpolated on p99
  // between the last passing phase (mid and high count as the rungs below
  // the ladder) and the first failing rung.
  const OpenLoop* last_pass =
      high.meets_limit() ? &high : (mid.meets_limit() ? &mid : nullptr);
  double max_qps = last_pass ? last_pass->rate : 0.0;
  const double rung_requests = 20.0 * ctx.seconds;
  int rung = 0;
  for (const double rate : kLadderQps) {
    if (last_pass != nullptr && last_pass->rate >= rate) continue;
    phases.push_back(run_open_loop(server, pool, refs, rate,
                                   rung_requests / rate,
                                   mix(ctx.seed, 100 + rung++), next_id));
    const OpenLoop& ph = phases.back();
    if (ph.meets_limit()) {
      last_pass = &ph;
      max_qps = rate;
      continue;
    }
    const double lo_rate = last_pass ? last_pass->rate : 0.0;
    const double lo_tail = last_pass ? last_pass->p(0.99) : 0.0;
    const double hi_tail = std::max(ph.p(0.99), lo_tail + 1e-9);
    const double frac =
        std::clamp((kP99LimitMs - lo_tail) / (hi_tail - lo_tail), 0.0, 1.0);
    max_qps = lo_rate + frac * (rate - lo_rate);
    break;
  }
  server.shutdown();

  std::int64_t attempted = 0, failed = 0, wrong = 0;
  std::vector<const OpenLoop*> checked{&warm};
  for (const auto& ph : phases) checked.push_back(&ph);
  for (const OpenLoop* ph : checked) {
    attempted += static_cast<std::int64_t>(ph->requests.size());
    failed += ph->failed();
    wrong += ph->wrong();
    report.gate(ph->ledger_ok,
                "serve_open: billed != served + faulted + expired + shed");
  }
  report.attempted = attempted + sat.attempted;
  report.failed = failed + sat.failed;
  wrong += sat.wrong;
  report.gate(wrong == 0, "serve_open: " + std::to_string(wrong) +
                              " answers differ from direct retrieve");

  report.e2e.push_back({"rate_per_s", sat.qps, "1/s"});

  const auto n_of = [](const OpenLoop& ph) {
    return "n=" + std::to_string(ph.requests.size()) +
           fmt(", tail=p%g", tail_quantile_for(ph.requests.size()) * 100);
  };
  report.line("serve_p50_ms.mid", mid.p(0.5), "ms", n_of(mid));
  report.line("serve_p99_ms.mid", mid.tail(), "ms", n_of(mid));
  report.line("serve_p50_ms.high", high.p(0.5), "ms", n_of(high));
  report.line("serve_p99_ms.high", high.tail(), "ms", n_of(high));
  report.line("serve_sat_qps", sat.qps, "1/s",
              fmt("%g closed-loop clients, n=%g", kSatClients,
                  static_cast<double>(sat.attempted)));
  report.line("serve_max_qps", max_qps, "1/s",
              fmt("limit p99<=%gms, rungs run=%g", kP99LimitMs,
                  static_cast<double>(phases.size() - 2)));
  for (std::size_t i = 2; i < phases.size(); ++i) {
    report.line("  rung", phases[i].rate, "1/s",
                fmt("p99=%.3fms lateness_p99=%.3fms", phases[i].p(0.99),
                    quantile(phases[i].lateness_ms(), 0.99)));
  }

  if (ctx.tracer != nullptr) {
    serve_layer_from_phase(high, *ctx.tracer, report, true);
    victim_layer(*ctx.tracer, report);
  }
}

void run_transfer(const RunContext& ctx, Report& report) {
  const TransferScale sc = workload_scale(ctx.seed);
  std::vector<TransferRep> reps;
  HostSamples host;
  host.take();
  const double start = now_s();
  while (reps.size() < 2 || now_s() - start < ctx.seconds) {
    reps.push_back(transfer_once(ctx, sc, report, host));
  }
  std::vector<double> total, pairs, loss;
  for (const auto& r : reps) {
    total.push_back(r.total_s);
    pairs.insert(pairs.end(), r.pair_s.begin(), r.pair_s.end());
    loss.insert(loss.end(), r.final_losses.begin(), r.final_losses.end());
    report.gate(r.epoch_losses == reps.front().epoch_losses &&
                    r.final_losses == reps.front().final_losses,
                "transfer: repetitions are not bitwise identical");
  }
  report.attempted = static_cast<std::int64_t>(pairs.size());
  report.failed = 0;

  const double h = host.median_factor();
  const double total_s = median(total) / h;
  const double pair_s = median(pairs) / h;
  report.e2e.push_back({"rate_per_s", sc.pairs / total_s, "1/s"});

  const std::string samples = "reps=" + std::to_string(reps.size()) +
                              ", pairs=" + std::to_string(pairs.size());
  report.line("transfer_total_s", total_s, "s", samples);
  report.line("sparse_transfer_s_p50", pair_s, "s", samples);
  report.line("transfer_loss_final", mean(loss), "loss",
              "mean surrogate feature loss after Alg. 1");
  report.line("host_factor", h, "x",
              fmt("median over stages; raw transfer_total_s %.4g",
                  median(total)));

  if (ctx.tracer != nullptr) {
    transfer_layer(reps, report);
    victim_layer(*ctx.tracer, report);
  }
}

// ---------------------------------------------------------------------------

void probe_serve_layer(const RunContext& ctx, Report& report, bool all) {
  const std::vector<RetrievalList> refs = reference_answers(*ctx.reference);
  duo::serve::RetrievalServer server(*ctx.served->system);
  std::int64_t next_id = kRequestIdBase;
  const OpenLoop ph = run_open_loop(server, ctx.served->data.test, refs,
                                    kMidQps, 1.0, mix(ctx.seed, 3), next_id);
  server.shutdown();
  report.gate(ph.wrong() == 0, "serve probe: answers differ");
  serve_layer_from_phase(ph, *ctx.tracer, report, all);
}

void probe_query_layer(const RunContext& ctx, Report& report) {
  const AttackRun run = run_attacks(ctx, 1, 1e9, 1, 1);
  report.gate(run.failed == 0 && !run.records.empty(),
              "query probe: attack failed");
  attack_layer(ctx, run, report);
}

void probe_transfer_layer(const RunContext& ctx, Report& report) {
  HostSamples unused;
  transfer_layer({transfer_once(ctx, probe_scale(ctx.seed), report, unused)},
                 report);
}

}  // namespace perfbench
