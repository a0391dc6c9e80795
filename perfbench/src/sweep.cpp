// Closed-loop clients x max_batch sweep over the serve_throughput bench's
// own setup (MiniC3D victim, 32-video gallery), with the victim traced.
// Each cell is run three times in the bench's order, so run-to-run swings
// show next to the per-request breakdown that explains them.

#include <cstdio>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Sample {
  std::int64_t id = 0;
  double submit_end_s = 0.0;
  double done_s = 0.0;
};

}  // namespace

int run_serve_sweep() {
  auto spec = duo::video::DatasetSpec::hmdb51_like(13);
  spec.num_classes = 4;
  spec.train_per_class = 8;
  spec.test_per_class = 2;
  spec.geometry = kGeometry;
  const auto dataset = duo::video::SyntheticGenerator(spec).generate();

  Tracer tracer;
  duo::Rng rng(29);
  auto victim = duo::models::make_extractor(duo::models::ModelKind::kC3D,
                                            kGeometry, kFeatureDim, rng);
  const double clone_ms = [&] {
    const double t0 = now_s();
    for (int i = 0; i < 200; ++i) (void)victim->clone();
    return (now_s() - t0) * 1e3 / 200.0;
  }();
  duo::retrieval::RetrievalSystem system(
      std::make_unique<TracingExtractor>(std::move(victim), tracer), 2);
  system.add_all(dataset.train);

  std::printf("# clone_ms=%.4f pool_threads=%zu\n", clone_ms,
              duo::compute_pool().size());
  std::printf("%-4s %-7s %-3s %6s %8s %6s %7s %9s %9s %9s %9s %8s %8s\n",
              "cl", "mbatch", "rep", "host", "qps", "batch", "calls", "extr_ms",
              "per_item", "busy_pct", "qwait_p50", "post_p50", "clone%");
  const int queries = 64;
  std::int64_t next_id = 1'000'000;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::size_t clients : {1, 2, 4, 8}) {
      for (const std::size_t max_batch : {1, 4, 8, 16}) {
        duo::serve::ServerConfig cfg;
        cfg.max_batch = max_batch;
        cfg.queue_capacity = 2 * clients * 8;
        tracer.clear();
        const double host = host_factor();
        std::vector<std::vector<Sample>> per_client(clients);
        double wall_s = 0.0;
        {
          duo::serve::RetrievalServer server(system, cfg);
          const double start = now_s();
          std::vector<std::thread> threads;
          for (std::size_t t = 0; t < clients; ++t) {
            const std::int64_t base = next_id + static_cast<std::int64_t>(t) * queries;
            threads.emplace_back([&, t, base] {
              for (int q = 0; q < queries; ++q) {
                const auto& src =
                    dataset.test[(t + q * clients) % dataset.test.size()];
                duo::video::Video v(src.data(), src.geometry(), src.label(),
                                    base + q);
                auto fut = server.submit(std::move(v), kTopM);
                Sample s{base + q, now_s(), 0.0};
                (void)fut.get();
                s.done_s = now_s();
                per_client[t].push_back(s);
              }
            });
          }
          for (auto& th : threads) th.join();
          wall_s = now_s() - start;
          server.shutdown();
        }
        next_id += static_cast<std::int64_t>(clients) * queries;

        const auto spans = tracer.spans("models.extract_batch");
        std::unordered_map<std::int64_t, const Span*> span_of;
        double busy_s = 0.0, clone_s = 0.0;
        std::int64_t items = 0;
        for (const auto& s : spans) {
          busy_s += s.end_s - s.start_s;
          items += s.items;
          const auto shards = std::min<std::int64_t>(
              s.items, static_cast<std::int64_t>(duo::compute_pool().size()));
          if (shards >= 2) clone_s += (shards - 1) * clone_ms / 1e3;
          for (const auto id : s.ids) span_of[id] = &s;
        }
        std::vector<double> wait, post;
        for (const auto& samples : per_client) {
          for (const auto& s : samples) {
            const auto it = span_of.find(s.id);
            if (it == span_of.end()) continue;
            wait.push_back((it->second->start_s - s.submit_end_s) * 1e3);
            post.push_back((s.done_s - it->second->end_s) * 1e3);
          }
        }
        const double n = static_cast<double>(clients * queries);
        std::printf(
            "%-4zu %-7zu %-3d %6.2f %8.1f %6.2f %7zu %9.3f %9.3f %9.1f %9.3f "
            "%8.3f %8.1f\n",
            clients, max_batch, rep, host, n / wall_s,
            static_cast<double>(items) / spans.size(), spans.size(),
            busy_s * 1e3 / spans.size(), busy_s * 1e3 / items,
            100.0 * busy_s / wall_s, quantile(wait, 0.5), quantile(post, 0.5),
            100.0 * clone_s / busy_s);
      }
    }
  }
  return 0;
}

}  // namespace perfbench
