// attack_cli — flag-driven attack runner over a synthetic world.
//
//   ./build/examples/attack_cli --attack duo --victim TPN --dataset hmdb
//       --k 400 --n 3 --tau 30 --queries 120 --pairs 3 --seed 7
//
// Flags (all optional):
//   --attack    duo | duo-untargeted | vanilla | timi | heu-nes | heu-sim
//   --victim    TPN | SlowFast | I3D | Resnet34
//   --surrogate C3D | Resnet18
//   --dataset   ucf | hmdb
//   --loss      arcface | lifted | angular
//   --k --n --tau --queries --pairs --iternumh --m --seed
//   --save-adv  <path-prefix>   write adversarial videos as .duov files

#include <cstdio>
#include <string>

#include "attack/duo.hpp"
#include "attack/evaluation.hpp"
#include "attack/surrogate.hpp"
#include "baselines/heu.hpp"
#include "baselines/timi.hpp"
#include "baselines/vanilla.hpp"
#include "common/argparse.hpp"
#include "metrics/metrics.hpp"
#include "models/feature_extractor.hpp"
#include "nn/losses.hpp"
#include "retrieval/system.hpp"
#include "retrieval/trainer.hpp"
#include "video/codec.hpp"
#include "video/synthetic.hpp"

using namespace duo;

namespace {

models::ModelKind parse_model(const std::string& name) {
  if (name == "TPN") return models::ModelKind::kTPN;
  if (name == "SlowFast") return models::ModelKind::kSlowFast;
  if (name == "I3D") return models::ModelKind::kI3D;
  if (name == "Resnet34") return models::ModelKind::kResNet34;
  if (name == "C3D") return models::ModelKind::kC3D;
  if (name == "Resnet18") return models::ModelKind::kResNet18;
  DUO_CHECK_MSG(false, "unknown model: " + name);
  return models::ModelKind::kC3D;
}

nn::VictimLossKind parse_loss(const std::string& name) {
  if (name == "arcface") return nn::VictimLossKind::kArcFace;
  if (name == "lifted") return nn::VictimLossKind::kLifted;
  if (name == "angular") return nn::VictimLossKind::kAngular;
  DUO_CHECK_MSG(false, "unknown loss: " + name);
  return nn::VictimLossKind::kArcFace;
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParse args(argc, argv);
  if (args.has("help")) {
    std::printf("see the header comment of examples/attack_cli.cpp\n");
    return 0;
  }

  const std::string attack_name = args.get("attack", "duo");
  const auto victim_kind = parse_model(args.get("victim", "TPN"));
  const auto surrogate_kind = parse_model(args.get("surrogate", "C3D"));
  const auto loss_kind = parse_loss(args.get("loss", "arcface"));
  const std::int64_t k = args.get_int("k", 400);
  const std::int64_t n = args.get_int("n", 3);
  const float tau = static_cast<float>(args.get_double("tau", 30.0));
  const int queries = static_cast<int>(args.get_int("queries", 120));
  const std::size_t pairs_n = static_cast<std::size_t>(args.get_int("pairs", 2));
  const int iter_numh = static_cast<int>(args.get_int("iternumh", 2));
  const std::size_t m = static_cast<std::size_t>(args.get_int("m", 10));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  auto spec = args.get("dataset", "hmdb") == "ucf"
                  ? video::DatasetSpec::ucf101_like()
                  : video::DatasetSpec::hmdb51_like();
  spec.num_classes = args.get("dataset", "hmdb") == "ucf" ? 10 : 6;
  spec.train_per_class = 8;
  spec.test_per_class = 3;
  spec.geometry = {8, 16, 16, 3};
  const video::Dataset dataset = video::SyntheticGenerator(spec).generate();

  std::printf("world: %s, %zu train videos, victim %s/%s\n",
              spec.name.c_str(), dataset.train.size(),
              models::model_kind_name(victim_kind),
              nn::victim_loss_name(loss_kind));

  Rng rng(seed);
  auto extractor = models::make_extractor(victim_kind, spec.geometry, 16, rng);
  auto loss = nn::make_victim_loss(loss_kind, 16, spec.num_classes, rng);
  retrieval::TrainerConfig tcfg;
  tcfg.epochs = 6;
  tcfg.seed = seed;
  retrieval::train_extractor(*extractor, *loss, dataset.train, tcfg);
  retrieval::RetrievalSystem victim(std::move(extractor), 4);
  victim.add_all(dataset.train);
  std::printf("victim mAP@%zu: %.2f%%\n", m,
              retrieval::evaluate_map(victim, dataset.test, m) * 100.0);

  // Surrogate (needed by duo / timi).
  attack::VideoStore store(dataset.train);
  auto surrogate =
      models::make_extractor(surrogate_kind, spec.geometry, 16, rng);
  {
    retrieval::BlackBoxHandle handle(victim);
    attack::SurrogateHarvestConfig hcfg;
    hcfg.m = m;
    hcfg.target_triplets = 400;
    const auto harvested = attack::harvest_surrogate_dataset(
        handle, store, {dataset.train[0].id(), dataset.train[9].id()}, hcfg);
    attack::SurrogateTrainConfig scfg;
    scfg.epochs = 12;
    scfg.triplets_per_epoch = 128;
    attack::train_surrogate(*surrogate, harvested, store, scfg);
    std::printf("surrogate %s: %zu videos / %zu triplets / %lld queries\n",
                models::model_kind_name(surrogate_kind),
                harvested.video_ids.size(), harvested.triplets.size(),
                static_cast<long long>(harvested.queries_spent));
  }

  // Build the requested attack.
  std::unique_ptr<attack::Attack> attack;
  if (attack_name == "duo" || attack_name == "duo-untargeted") {
    attack::DuoConfig cfg;
    cfg.transfer.k = k;
    cfg.transfer.n = n;
    cfg.transfer.tau = tau;
    cfg.query.iter_numQ = queries;
    cfg.iter_numH = iter_numh;
    cfg.m = m;
    if (attack_name == "duo-untargeted") {
      cfg.goal = attack::AttackGoal::kUntargeted;
    }
    attack = std::make_unique<attack::DuoAttack>(*surrogate, cfg);
  } else if (attack_name == "vanilla") {
    baselines::VanillaConfig cfg;
    cfg.k = k;
    cfg.n = n;
    cfg.query.iter_numQ = queries;
    cfg.query.tau = tau;
    cfg.query.m = m;
    attack = std::make_unique<baselines::VanillaAttack>(cfg);
  } else if (attack_name == "timi") {
    baselines::TimiConfig cfg;
    cfg.tau = tau;
    attack = std::make_unique<baselines::TimiAttack>(*surrogate, cfg);
  } else if (attack_name == "heu-nes" || attack_name == "heu-sim") {
    baselines::HeuConfig cfg;
    cfg.k = k;
    cfg.n = n;
    cfg.tau = tau;
    cfg.m = m;
    cfg.nes_iterations = std::max(2, queries / 8);
    attack = std::make_unique<baselines::HeuAttack>(
        attack_name == "heu-nes" ? baselines::HeuStrategy::kNatureEstimated
                                 : baselines::HeuStrategy::kRandom,
        cfg);
  } else {
    std::fprintf(stderr, "unknown attack: %s\n", attack_name.c_str());
    return 2;
  }

  const auto pairs = attack::sample_attack_pairs(dataset.train, pairs_n, seed * 3);
  const double wo = attack::evaluate_without_attack(victim, pairs, m);
  const auto eval = attack::evaluate_attack(*attack, victim, pairs, m);
  std::printf("\n%-16s  AP@m %.2f%% → %.2f%%   Spa %.0f   PScore %.4f   "
              "queries %.0f\n",
              attack->name().c_str(), wo, eval.mean_ap_m_after_pct,
              eval.mean_spa, eval.mean_pscore, eval.mean_queries);

  if (args.has("save-adv")) {
    const std::string prefix = args.get("save-adv", "adv");
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      retrieval::BlackBoxHandle handle(victim);
      const auto outcome = attack->run(pairs[i].v, pairs[i].v_t, handle);
      const std::string path = prefix + "_" + std::to_string(i) + ".duov";
      if (video::save_video(outcome.adversarial, path)) {
        std::printf("wrote %s\n", path.c_str());
      }
    }
  }
  return 0;
}
