#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "common/logging.hpp"
#include "common/stopwatch.hpp"
#include "retrieval/trainer.hpp"

namespace duo::bench {

Scale scale_from_env() {
  const char* env = std::getenv("DUO_BENCH_SCALE");
  if (env == nullptr) return Scale::kQuick;
  const std::string value(env);
  if (value == "smoke") return Scale::kSmoke;
  if (value == "full") return Scale::kFull;
  if (value == "quick") return Scale::kQuick;
  DUO_LOG_WARN("unknown DUO_BENCH_SCALE '%s', using quick", value.c_str());
  return Scale::kQuick;
}

const char* scale_name(Scale scale) {
  switch (scale) {
    case Scale::kSmoke: return "smoke";
    case Scale::kQuick: return "quick";
    case Scale::kFull: return "full";
  }
  return "?";
}

std::int64_t BenchParams::scale_k(std::int64_t paper_k,
                                  const video::VideoGeometry& geometry) const {
  // Fraction of the paper's 16×112×112×3 tensor, applied to ours.
  const double fraction =
      static_cast<double>(paper_k) /
      static_cast<double>(video::VideoGeometry::paper_scale().total_elements());
  const auto k = static_cast<std::int64_t>(
      fraction * static_cast<double>(geometry.total_elements()));
  return std::max<std::int64_t>(k, 8);
}

BenchParams params_for(Scale scale) {
  BenchParams p;
  p.scale = scale;
  p.ucf = video::DatasetSpec::ucf101_like();
  p.hmdb = video::DatasetSpec::hmdb51_like();
  switch (scale) {
    case Scale::kSmoke:
      p.ucf.num_classes = 6;
      p.ucf.train_per_class = 4;
      p.ucf.test_per_class = 2;
      p.ucf.geometry = {8, 12, 12, 3};
      p.hmdb = p.ucf;
      p.hmdb.name = "HMDB51";
      p.hmdb.seed = 51;
      p.hmdb.num_classes = 4;
      p.pairs = 1;
      p.iter_num_q = 15;
      p.victim_epochs = 2;
      p.feature_dim = 12;
      break;
    case Scale::kQuick:
      p.ucf.num_classes = 10;
      p.ucf.train_per_class = 8;
      p.ucf.test_per_class = 3;
      p.ucf.geometry = {8, 16, 16, 3};
      p.hmdb = p.ucf;
      p.hmdb.name = "HMDB51";
      p.hmdb.seed = 51;
      p.hmdb.num_classes = 6;  // keeps the 101:51 class ratio
      p.hmdb.train_per_class = 6;
      p.pairs = 2;
      p.iter_num_q = 80;
      p.victim_epochs = 6;
      p.feature_dim = 16;
      break;
    case Scale::kFull:
      // Paper-shaped budgets on a reduced-but-larger world. Full 112×112
      // geometry is supported by the library but takes hours per bench on
      // one CPU core; this "full" profile restores the query/pair budgets.
      p.ucf.num_classes = 20;
      p.ucf.train_per_class = 8;
      p.ucf.test_per_class = 4;
      p.ucf.geometry = {16, 24, 24, 3};
      p.hmdb = p.ucf;
      p.hmdb.name = "HMDB51";
      p.hmdb.seed = 51;
      p.hmdb.num_classes = 10;
      p.pairs = 10;
      p.iter_num_q = 1000;
      p.victim_epochs = 6;
      p.feature_dim = 32;
      break;
  }
  return p;
}

VictimWorld make_victim(const video::DatasetSpec& spec,
                        models::ModelKind victim_kind,
                        nn::VictimLossKind loss_kind,
                        const BenchParams& params, std::uint64_t seed) {
  Stopwatch watch;
  VictimWorld world;
  world.dataset = video::SyntheticGenerator(spec).generate();

  Rng rng(seed);
  auto extractor = models::make_extractor(victim_kind, spec.geometry,
                                          params.feature_dim, rng);
  auto loss = nn::make_victim_loss(loss_kind, params.feature_dim,
                                   spec.num_classes, rng);
  retrieval::TrainerConfig tcfg;
  tcfg.epochs = params.victim_epochs;
  tcfg.batch_size = 12;
  tcfg.learning_rate = 3e-3f;
  tcfg.seed = seed ^ 0x5bd1e995;
  retrieval::train_extractor(*extractor, *loss, world.dataset.train, tcfg);

  world.system = std::make_unique<retrieval::RetrievalSystem>(
      std::move(extractor), params.retrieval_nodes);
  world.system->add_all(world.dataset.train);
  world.store = std::make_unique<attack::VideoStore>(world.dataset.train);
  DUO_LOG_INFO("victim %s/%s on %s ready in %.1fs",
               models::model_kind_name(victim_kind),
               nn::victim_loss_name(loss_kind), spec.name.c_str(),
               watch.elapsed_seconds());
  return world;
}

SurrogateWorld make_surrogate(VictimWorld& world,
                              models::ModelKind surrogate_kind,
                              std::size_t target_triplets,
                              std::int64_t feature_dim,
                              const BenchParams& params, std::uint64_t seed) {
  Stopwatch watch;
  SurrogateWorld out;
  Rng rng(seed);

  retrieval::BlackBoxHandle handle(*world.system);
  attack::SurrogateHarvestConfig hcfg;
  hcfg.m = params.m;
  hcfg.rounds = 8;
  hcfg.target_video_count = world.dataset.train.size() / 2;
  hcfg.target_triplets = target_triplets;
  hcfg.seed = seed ^ 0x1234567;
  // Seeds: two random videos the attacker "owns".
  const auto& train = world.dataset.train;
  std::vector<std::int64_t> seeds{
      train[rng.uniform_index(train.size())].id(),
      train[rng.uniform_index(train.size())].id()};
  if (seeds[0] == seeds[1]) seeds.pop_back();
  out.harvested =
      attack::harvest_surrogate_dataset(handle, *world.store, seeds, hcfg);

  out.model = models::make_extractor(
      surrogate_kind, world.dataset.spec.geometry, feature_dim, rng);
  attack::SurrogateTrainConfig scfg;
  scfg.epochs = params.scale == Scale::kSmoke ? 2 : 12;
  scfg.triplets_per_epoch = params.scale == Scale::kSmoke ? 16 : 128;
  scfg.seed = seed ^ 0x9e3779b9;
  attack::train_surrogate(*out.model, out.harvested, *world.store, scfg);
  DUO_LOG_INFO("surrogate %s ready (%zu videos, %zu triplets, %lld queries) in %.1fs",
               models::model_kind_name(surrogate_kind),
               out.harvested.video_ids.size(),
               out.harvested.triplets.size(),
               static_cast<long long>(out.harvested.queries_spent),
               watch.elapsed_seconds());
  return out;
}

std::vector<std::unique_ptr<attack::Attack>> make_attack_suite(
    models::FeatureExtractor& surrogate_c3d,
    models::FeatureExtractor& surrogate_res18, const BenchParams& params,
    const video::VideoGeometry& geometry) {
  std::vector<std::unique_ptr<attack::Attack>> attacks;
  const std::int64_t k = params.default_k(geometry);
  const std::int64_t n = params.default_n();

  baselines::TimiConfig timi;
  timi.iterations = params.scale == Scale::kSmoke ? 3 : 10;
  attacks.push_back(std::make_unique<baselines::TimiAttack>(surrogate_c3d, timi));
  attacks.push_back(
      std::make_unique<baselines::TimiAttack>(surrogate_res18, timi));

  baselines::HeuConfig heu;
  heu.k = k;
  heu.n = n;
  heu.tau = params.tau;
  heu.m = params.m;
  heu.nes_population = 4;
  heu.nes_iterations =
      std::max(2, params.iter_num_q / (2 * heu.nes_population));
  attacks.push_back(std::make_unique<baselines::HeuAttack>(
      baselines::HeuStrategy::kNatureEstimated, heu));
  attacks.push_back(std::make_unique<baselines::HeuAttack>(
      baselines::HeuStrategy::kRandom, heu));

  baselines::VanillaConfig vanilla;
  vanilla.k = k;
  vanilla.n = n;
  vanilla.query.iter_numQ = params.iter_num_q;
  vanilla.query.tau = params.tau;
  vanilla.query.m = params.m;
  attacks.push_back(std::make_unique<baselines::VanillaAttack>(vanilla));

  const attack::DuoConfig duo = make_duo_config(params, geometry);
  attacks.push_back(std::make_unique<attack::DuoAttack>(surrogate_c3d, duo));
  attacks.push_back(std::make_unique<attack::DuoAttack>(surrogate_res18, duo));
  return attacks;
}

attack::DuoConfig make_duo_config(const BenchParams& params,
                                  const video::VideoGeometry& geometry) {
  attack::DuoConfig cfg;
  cfg.transfer.k = params.default_k(geometry);
  cfg.transfer.n = params.default_n();
  cfg.transfer.tau = params.tau;
  cfg.transfer.outer_iterations = params.scale == Scale::kSmoke ? 2 : 4;
  cfg.transfer.theta_steps = params.scale == Scale::kSmoke ? 4 : 10;
  cfg.query.iter_numQ = params.iter_num_q;
  cfg.iter_numH = params.iter_num_h;
  cfg.m = params.m;
  return cfg;
}

void append_attack_cells(TableWriter& table, std::vector<TableWriter::Cell>& row,
                         const attack::AttackEvaluation& eval) {
  (void)table;
  row.emplace_back(eval.mean_ap_m_after_pct);
  row.emplace_back(static_cast<long long>(eval.mean_spa));
  row.emplace_back(eval.mean_pscore);
}

void emit(TableWriter& table, const std::string& csv_name) {
  table.print(std::cout);
  std::filesystem::create_directories("bench_results");
  const std::string path = "bench_results/" + csv_name;
  if (table.write_csv(path)) {
    std::cout << "[csv] " << path << "\n";
  }
}

void print_paper_note(const std::string& note) {
  std::cout << "paper reference: " << note << "\n\n";
}

SoakWorld make_soak_world(bool smoke, std::uint64_t seed) {
  auto spec = video::DatasetSpec::hmdb51_like(37);
  spec.num_classes = 4;
  spec.train_per_class = smoke ? 4 : 8;
  spec.test_per_class = 2;
  spec.geometry = {8, 16, 16, 3};

  SoakWorld world;
  world.dataset = video::SyntheticGenerator(spec).generate();
  Rng rng(seed);
  auto extractor =
      models::make_extractor(models::ModelKind::kC3D, spec.geometry, 16, rng);
  world.system = std::make_unique<retrieval::RetrievalSystem>(
      std::move(extractor), 2);
  world.system->add_all(world.dataset.train);
  return world;
}

}  // namespace duo::bench
