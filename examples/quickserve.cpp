// Quickserve: the victim as a deployed service, attacked through the async
// pipeline.
//
//   1. Build a synthetic video world and train a small victim retrieval
//      service.
//   2. Stand up a RetrievalServer over it: bounded request queue plus one
//      serving lane per compute thread, each answering a micro-batch with
//      one batched extractor forward per tick.
//   3. Run a short pipelined SparseQuery attack (Vanilla-style random
//      support) through an AsyncBlackBoxHandle — both ±ε candidates of each
//      step are in flight at once, so victim latency is overlapped with the
//      attacker's bookkeeping.
//   4. Report the attack effect, the honest query bill, and the server-side
//      stats (batch-size histogram, latency percentiles).
//
// Build & run:  ./build/examples/quickserve

#include <cstdio>

#include "attack/sparse_query.hpp"
#include "baselines/vanilla.hpp"
#include "metrics/metrics.hpp"
#include "models/feature_extractor.hpp"
#include "nn/losses.hpp"
#include "retrieval/system.hpp"
#include "retrieval/trainer.hpp"
#include "serve/async_handle.hpp"
#include "serve/server.hpp"
#include "video/synthetic.hpp"

using namespace duo;

int main() {
  // --- 1. Miniature world + trained victim ---------------------------------
  auto spec = video::DatasetSpec::ucf101_like();
  spec.num_classes = 6;
  spec.train_per_class = 5;
  spec.test_per_class = 2;
  spec.geometry = {8, 16, 16, 3};
  const video::Dataset dataset = video::SyntheticGenerator(spec).generate();

  Rng rng(7);
  auto extractor =
      models::make_extractor(models::ModelKind::kTPN, spec.geometry, 16, rng);
  nn::ArcFaceLoss loss(16, spec.num_classes, rng);
  retrieval::TrainerConfig tcfg;
  tcfg.epochs = 3;
  retrieval::train_extractor(*extractor, loss, dataset.train, tcfg);

  retrieval::RetrievalSystem victim(std::move(extractor), /*num_nodes=*/2);
  victim.add_all(dataset.train);
  std::printf("gallery: %zu videos over %zu data nodes\n",
              victim.gallery_size(), victim.index().shard_count());

  const video::Video& v = dataset.train[2];
  const video::Video& v_t = dataset.train[20];
  const auto list_v = victim.retrieve(v, 10);
  const auto list_vt = victim.retrieve(v_t, 10);

  // --- 2. Serve it ----------------------------------------------------------
  serve::ServerConfig scfg;
  scfg.max_batch = 4;
  scfg.queue_capacity = 32;
  serve::RetrievalServer server(victim, scfg);
  serve::AsyncBlackBoxHandle handle(server);
  std::printf("server up: max_batch=%zu queue_capacity=%zu\n\n",
              scfg.max_batch, scfg.queue_capacity);

  // --- 3. Pipelined SparseQuery against the service -------------------------
  Rng support_rng(17);
  attack::Perturbation support =
      baselines::random_support(v.geometry(), /*k=*/150, /*n=*/3, support_rng);
  Tensor noise =
      Tensor::uniform(v.geometry().tensor_shape(), -10.0f, 10.0f, support_rng);
  support.magnitude() = noise * support.pixel_mask() * support.frame_mask();

  const auto ctx = attack::make_objective_context(handle, v, v_t, 10);
  attack::SparseQueryConfig qcfg;
  qcfg.iter_numQ = 80;
  qcfg.tau = 30.0f;
  qcfg.m = 10;
  const auto result =
      attack::sparse_query_pipelined(v, support, handle, ctx, qcfg);
  server.shutdown();  // drains the queue; victim is ours again

  // --- 4. Results ------------------------------------------------------------
  const auto list_adv = victim.retrieve(result.v_adv, 10);
  std::printf("T: %.4f -> %.4f over %zu steps\n", result.t_history.front(),
              result.final_t, result.t_history.size() - 1);
  std::printf("AP@m(R(v_adv), R(v))   = %.2f%%   (want low)\n",
              metrics::ap_at_m(list_adv, list_v) * 100.0);
  std::printf("AP@m(R(v_adv), R(v_t)) = %.2f%%   (want high)\n",
              metrics::ap_at_m(list_adv, list_vt) * 100.0);
  std::printf("queries billed to the attacker: %lld "
              "(speculative forwards included)\n",
              static_cast<long long>(handle.query_count()));

  const serve::ServerStats stats = handle.server_stats();
  std::printf("\nserver stats: %lld queries in %lld batches "
              "(mean batch %.2f)\n",
              static_cast<long long>(stats.queries_served),
              static_cast<long long>(stats.batches), stats.mean_batch_size());
  std::printf("latency: p50 %.2f ms, p95 %.2f ms, max %.2f ms\n",
              stats.p50_latency_ms, stats.p95_latency_ms,
              stats.latency.max_ms);
  std::printf("batch-size histogram:");
  for (std::size_t s = 1; s < stats.batch_size_counts.size(); ++s) {
    if (stats.batch_size_counts[s] > 0) {
      std::printf(" %zu:%lld", s,
                  static_cast<long long>(stats.batch_size_counts[s]));
    }
  }
  std::printf("\n");
  return 0;
}
