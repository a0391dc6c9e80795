#pragma once

// Shared infrastructure for the experiment benches (one binary per paper
// table/figure; see DESIGN.md §4).
//
// Scaling: paper experiments run on 16×112×112×3 videos (602,112 elements)
// with k up to 50K and 1,000 queries. The default "quick" scale shrinks the
// geometry and budgets proportionally so every bench completes on a laptop
// CPU core; DUO_BENCH_SCALE=full restores paper-sized budgets (slow), and
// DUO_BENCH_SCALE=smoke is a seconds-long sanity pass. Benches print both
// raw values and the paper-equivalent normalization where relevant.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "attack/duo.hpp"
#include "attack/evaluation.hpp"
#include "attack/surrogate.hpp"
#include "baselines/heu.hpp"
#include "baselines/timi.hpp"
#include "baselines/vanilla.hpp"
#include "common/table.hpp"
#include "models/feature_extractor.hpp"
#include "nn/losses.hpp"
#include "retrieval/system.hpp"
#include "video/synthetic.hpp"

namespace duo::bench {

enum class Scale { kSmoke, kQuick, kFull };

// Default surrogate dataset size (training triplets harvested via queries).
inline constexpr std::size_t kDefaultSurrogateTriplets = 400;

Scale scale_from_env();
const char* scale_name(Scale scale);

struct BenchParams {
  Scale scale = Scale::kQuick;
  video::DatasetSpec ucf;   // miniature UCF101 analogue
  video::DatasetSpec hmdb;  // miniature HMDB51 analogue
  std::size_t pairs = 2;    // paper: 10 (v, v_t) pairs
  int iter_num_q = 80;      // paper: 1,000
  int iter_num_h = 2;
  int victim_epochs = 4;
  std::int64_t feature_dim = 16;  // paper: 768 (victims), 512 (surrogate)
  std::size_t m = 15;
  float tau = 30.0f;
  std::size_t retrieval_nodes = 4;

  // Paper-k → miniature-k by fraction of total tensor elements.
  std::int64_t scale_k(std::int64_t paper_k,
                       const video::VideoGeometry& geometry) const;
  // Paper default k = 40K.
  std::int64_t default_k(const video::VideoGeometry& geometry) const {
    return scale_k(40000, geometry);
  }
  std::int64_t default_n() const { return 4; }
};

BenchParams params_for(Scale scale);
inline BenchParams default_params() { return params_for(scale_from_env()); }

// A trained victim retrieval service plus its world.
struct VictimWorld {
  video::Dataset dataset;
  std::unique_ptr<retrieval::RetrievalSystem> system;
  std::unique_ptr<attack::VideoStore> store;  // public video site
};

VictimWorld make_victim(const video::DatasetSpec& spec,
                        models::ModelKind victim_kind,
                        nn::VictimLossKind loss_kind,
                        const BenchParams& params, std::uint64_t seed);

// A trained surrogate plus its harvest statistics.
struct SurrogateWorld {
  std::unique_ptr<models::FeatureExtractor> model;
  attack::SurrogateDataset harvested;
};

// `target_triplets` is the surrogate dataset size (the quantity Table III
// and Fig. 4 sweep); the video-count target follows from the crawl.
SurrogateWorld make_surrogate(VictimWorld& world,
                              models::ModelKind surrogate_kind,
                              std::size_t target_triplets,
                              std::int64_t feature_dim,
                              const BenchParams& params, std::uint64_t seed);

// The full attack suite of Table II: TIMI-C3D, TIMI-Res18, HEU-Nes,
// HEU-Sim, Vanilla, DUO-C3D, DUO-Res18 (query budgets matched across the
// query-based attacks). The surrogates must outlive the suite.
std::vector<std::unique_ptr<attack::Attack>> make_attack_suite(
    models::FeatureExtractor& surrogate_c3d,
    models::FeatureExtractor& surrogate_res18, const BenchParams& params,
    const video::VideoGeometry& geometry);

// Standard DUO configuration from bench params.
attack::DuoConfig make_duo_config(const BenchParams& params,
                                  const video::VideoGeometry& geometry);

// Formats a (AP@m, Spa, PScore) triple into table cells.
void append_attack_cells(TableWriter& table, std::vector<TableWriter::Cell>& row,
                         const attack::AttackEvaluation& eval);

// An untrained served-victim world for campaign_soak. Fault, overload and
// crash handling depend on the serving path, not on feature quality, so no
// victim training is needed.
struct SoakWorld {
  video::Dataset dataset;
  std::unique_ptr<retrieval::RetrievalSystem> system;
};

SoakWorld make_soak_world(bool smoke, std::uint64_t seed);

// Emit the table and mirror it to CSV under bench_results/.
void emit(TableWriter& table, const std::string& csv_name);

// Paper-reported reference values for EXPERIMENTS.md cross-checks; printed
// as a reminder footer under each bench table.
void print_paper_note(const std::string& note);

}  // namespace duo::bench
