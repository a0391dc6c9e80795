// Serve-layer throughput sweep: client count × max_batch over a synthetic
// gallery. Each cell stands up a fresh RetrievalServer, hammers it from C
// concurrent client threads issuing Q queries each, and reports wall time,
// throughput, the batch-size histogram, and submit→fulfill latency
// percentiles from ServerStats.
//
//   ./build/bench/serve_throughput            # quick scale
//   ./build/bench/serve_throughput --smoke    # seconds-long CI smoke pass
//   DUO_BENCH_SCALE=smoke ./build/bench/serve_throughput   # same
//
// On a single hardware core the server runs one lane and batching still
// wins by amortizing its wakeups, but the latency spread under load is the
// more interesting column there; run on multicore hardware, where lanes
// serve batches side by side, for the throughput story.

#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "serve/async_handle.hpp"
#include "serve/server.hpp"

namespace {

using namespace duo;

std::string histogram_string(const serve::ServerStats& stats) {
  std::ostringstream os;
  bool first = true;
  for (std::size_t s = 1; s < stats.batch_size_counts.size(); ++s) {
    if (stats.batch_size_counts[s] == 0) continue;
    if (!first) os << " ";
    os << s << ":" << stats.batch_size_counts[s];
    first = false;
  }
  return first ? std::string("-") : os.str();
}

// "0%:119 10%:4" — lane ticks by tick-start queue occupancy decile.
std::string decile_string(const std::vector<std::int64_t>& deciles) {
  std::ostringstream os;
  bool first = true;
  for (std::size_t d = 0; d < deciles.size(); ++d) {
    if (deciles[d] == 0) continue;
    if (!first) os << " ";
    os << d * 10 << "%:" << deciles[d];
    first = false;
  }
  return first ? std::string("-") : os.str();
}

// "<=2ms:31 <=4ms:6" — retry_after hints handed out with throttle and
// admission-reject failures, power-of-two millisecond buckets.
std::string retry_after_string(const std::vector<std::int64_t>& buckets) {
  std::ostringstream os;
  bool first = true;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    if (!first) os << " ";
    if (b + 1 == buckets.size()) {
      os << ">1s:" << buckets[b];
    } else {
      os << "<=" << (1ll << b) << "ms:" << buckets[b];
    }
    first = false;
  }
  return first ? std::string("-") : os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = duo::bench::scale_from_env() == duo::bench::Scale::kSmoke;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // An untrained victim is enough: throughput depends on geometry and
  // gallery size, not on how good the features are.
  auto spec = video::DatasetSpec::hmdb51_like(13);
  spec.num_classes = 4;
  spec.train_per_class = smoke ? 4 : 8;
  spec.test_per_class = 2;
  spec.geometry = {8, 16, 16, 3};
  const video::Dataset dataset = video::SyntheticGenerator(spec).generate();

  Rng rng(29);
  auto extractor =
      models::make_extractor(models::ModelKind::kC3D, spec.geometry, 16, rng);
  retrieval::RetrievalSystem system(std::move(extractor), 2);
  system.add_all(dataset.train);

  const std::vector<std::size_t> client_counts =
      smoke ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<std::size_t> batch_sizes =
      smoke ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 4, 8, 16};
  const int queries_per_client = smoke ? 8 : 64;

  TableWriter table("Serve throughput: clients x max_batch");
  table.set_header({"clients", "max_batch", "queries", "wall_ms", "qps",
                    "mean_batch", "p50_ms", "p95_ms", "batch_histogram",
                    "occupancy_deciles"});
  table.set_precision(2);

  for (const std::size_t clients : client_counts) {
    for (const std::size_t max_batch : batch_sizes) {
      serve::ServerConfig cfg;
      cfg.max_batch = max_batch;
      cfg.queue_capacity = 2 * clients * static_cast<std::size_t>(8);
      serve::RetrievalServer server(system, cfg);
      serve::AsyncBlackBoxHandle handle(server);

      Stopwatch wall;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (std::size_t t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
          for (int q = 0; q < queries_per_client; ++q) {
            const std::size_t vi =
                (t + static_cast<std::size_t>(q) * clients) %
                dataset.test.size();
            (void)handle.retrieve(dataset.test[vi], 10);
          }
        });
      }
      for (auto& th : threads) th.join();
      const double wall_ms = wall.elapsed_ms();
      server.shutdown();

      const serve::ServerStats stats = server.stats();
      const auto total =
          static_cast<double>(clients) * queries_per_client;
      table.add_row({static_cast<long long>(clients),
                     static_cast<long long>(max_batch),
                     static_cast<long long>(stats.queries_served), wall_ms,
                     total / (wall_ms / 1e3), stats.mean_batch_size(),
                     stats.p50_latency_ms, stats.p95_latency_ms,
                     histogram_string(stats),
                     decile_string(stats.occupancy_deciles)});
    }
  }

  duo::bench::emit(table, "serve_throughput.csv");

  // Rate-limited sweep: per-client token buckets low enough that clients
  // actually bounce, so the retry_after histogram and throttle counters show
  // the hint distribution a well-behaved client would back off on. Clients
  // honor the hint — sleep retry_after_ms, then re-ask — so every query
  // eventually lands and queries_served stays exact.
  TableWriter limited("Serve throughput: rate-limited clients (retry_after)");
  limited.set_header({"clients", "rate_qps", "queries", "throttled", "wall_ms",
                      "qps", "occupancy_deciles", "retry_after_hist"});
  limited.set_precision(2);

  const std::vector<double> rates =
      smoke ? std::vector<double>{50.0} : std::vector<double>{50.0, 200.0};
  const std::vector<std::size_t> limited_clients =
      smoke ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 4};
  const int limited_queries = smoke ? 8 : 32;

  for (const std::size_t clients : limited_clients) {
    for (const double rate : rates) {
      serve::ServerConfig cfg;
      cfg.max_batch = 4;
      cfg.queue_capacity = 32;
      cfg.client_rate = rate;
      cfg.client_burst = 2.0;
      serve::RetrievalServer server(system, cfg);

      Stopwatch wall;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (std::size_t t = 0; t < clients; ++t) {
        threads.emplace_back([&, t] {
          serve::RequestOptions opt;
          opt.client_id = "client-" + std::to_string(t);
          serve::AsyncBlackBoxHandle handle(server, opt);
          for (int q = 0; q < limited_queries; ++q) {
            const std::size_t vi =
                (t + static_cast<std::size_t>(q) * clients) %
                dataset.test.size();
            for (;;) {
              try {
                (void)handle.retrieve(dataset.test[vi], 10);
                break;
              } catch (const serve::ServeError& e) {
                if (!e.retryable()) break;
                const double wait_ms =
                    e.retry_after_ms() > 0.0 ? e.retry_after_ms() : 0.5;
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(wait_ms));
              }
            }
          }
        });
      }
      for (auto& th : threads) th.join();
      const double wall_ms = wall.elapsed_ms();
      server.shutdown();

      const serve::ServerStats stats = server.stats();
      const auto total = static_cast<double>(clients) * limited_queries;
      limited.add_row({static_cast<long long>(clients), rate,
                       static_cast<long long>(stats.queries_served),
                       static_cast<long long>(stats.requests_throttled),
                       wall_ms, total / (wall_ms / 1e3),
                       decile_string(stats.occupancy_deciles),
                       retry_after_string(stats.retry_after_buckets)});
    }
  }

  duo::bench::emit(limited, "serve_throughput_rate_limited.csv");
  duo::bench::print_paper_note(
      "No paper counterpart: this models the deployed victim R(m, v) as a "
      "batched, latency-bound service (QAIR/Sparse-RS-style serving stack). "
      "Answers are bitwise identical to unbatched retrieval at every cell.");
  return 0;
}
