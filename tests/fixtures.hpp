#pragma once

// Shared test fixture: a tiny synthetic world (dataset + trained victim
// retrieval system + trained surrogate) built once per test binary. Keeping
// it a lazy singleton makes the attack tests fast while still exercising the
// full pipeline against a *trained* victim.

#include <memory>
#include <set>
#include <vector>

#include "attack/sparse_query.hpp"
#include "attack/surrogate.hpp"
#include "models/feature_extractor.hpp"
#include "nn/losses.hpp"
#include "retrieval/system.hpp"
#include "retrieval/trainer.hpp"
#include "video/synthetic.hpp"

namespace duo::testing {

struct TinyWorld {
  video::DatasetSpec spec;
  video::Dataset dataset;
  std::unique_ptr<retrieval::RetrievalSystem> victim;
  std::unique_ptr<models::FeatureExtractor> surrogate;
  std::unique_ptr<attack::VideoStore> store;

  static const TinyWorld& instance() {
    static TinyWorld world = build();
    return world;
  }

  // Non-const access for tests that need to mutate the victim (the retrieval
  // index itself is immutable; extractor caches are per-call state).
  static TinyWorld& mutable_instance() {
    return const_cast<TinyWorld&>(instance());
  }

 private:
  static TinyWorld build() {
    TinyWorld w;
    w.spec = video::DatasetSpec::hmdb51_like(77);
    w.spec.num_classes = 5;
    w.spec.train_per_class = 6;
    w.spec.test_per_class = 2;
    w.spec.geometry = {8, 16, 16, 3};
    w.dataset = video::SyntheticGenerator(w.spec).generate();

    // Victim: trained TPN + ArcFace.
    Rng vrng(101);
    auto extractor = models::make_extractor(models::ModelKind::kTPN,
                                            w.spec.geometry, 16, vrng);
    nn::ArcFaceLoss loss(16, w.spec.num_classes, vrng);
    retrieval::TrainerConfig tcfg;
    tcfg.epochs = 4;
    tcfg.batch_size = 10;
    tcfg.learning_rate = 3e-3f;
    retrieval::train_extractor(*extractor, loss, w.dataset.train, tcfg);
    w.victim =
        std::make_unique<retrieval::RetrievalSystem>(std::move(extractor), 2);
    w.victim->add_all(w.dataset.train);

    // Attacker-side store: gallery videos are publicly fetchable.
    w.store = std::make_unique<attack::VideoStore>(w.dataset.train);

    // Surrogate: C3D trained on query-harvested triplets.
    Rng srng(202);
    w.surrogate = models::make_extractor(models::ModelKind::kC3D,
                                         w.spec.geometry, 16, srng);
    retrieval::BlackBoxHandle handle(*w.victim);
    attack::SurrogateHarvestConfig hcfg;
    hcfg.m = 8;
    hcfg.rounds = 2;
    hcfg.target_video_count = 20;
    hcfg.target_triplets = 150;  // keep the fixture light
    const auto harvested = attack::harvest_surrogate_dataset(
        handle, *w.store, {w.dataset.train[0].id(), w.dataset.train[7].id()},
        hcfg);
    attack::SurrogateTrainConfig scfg;
    scfg.epochs = 3;
    scfg.triplets_per_epoch = 40;
    attack::train_surrogate(*w.surrogate, harvested, *w.store, scfg);
    return w;
  }
};

// Steps κ of a SparseQuery run whose coordinate group draws one support
// coordinate twice, i.e. straddles a deck reshuffle. Mirrors the driver's
// sampler: the support in index order, shuffled with the config seed, and
// reshuffled whenever it drains. Assumes an explicit coords_per_step and no
// patience stop. Tests use it to prove that a repeated-coordinate case is
// not vacuous.
inline std::vector<int> repeated_coordinate_steps(
    const attack::Perturbation& p, const attack::SparseQueryConfig& cfg) {
  const Tensor support = p.pixel_mask() * p.frame_mask();
  std::vector<std::int64_t> deck;
  for (std::int64_t i = 0; i < support.size(); ++i) {
    if (support[i] > 0.5f) deck.push_back(i);
  }
  std::vector<int> steps;
  if (deck.empty()) return steps;
  Rng rng(cfg.seed);
  rng.shuffle(deck);
  std::size_t pos = 0;
  for (int kappa = 1; kappa < cfg.iter_numQ; ++kappa) {
    std::set<std::int64_t> seen;
    bool repeat = false;
    for (int c = 0; c < cfg.coords_per_step; ++c) {
      if (pos == deck.size()) {
        rng.shuffle(deck);
        pos = 0;
      }
      repeat |= !seen.insert(deck[pos++]).second;
    }
    if (repeat) steps.push_back(kappa);
  }
  return steps;
}

}  // namespace duo::testing
