// Failure-injection and boundary-condition tests: how the library behaves
// under misuse, degenerate inputs, and adversarially unhelpful conditions.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attack/checkpoint.hpp"
#include "attack/duo.hpp"
#include "attack/evaluation.hpp"
#include "attack/sparse_query.hpp"
#include "attack/sparse_transfer.hpp"
#include "baselines/timi.hpp"
#include "baselines/vanilla.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "fixtures.hpp"
#include "metrics/metrics.hpp"
#include "nn/conv3d.hpp"
#include "nn/linear.hpp"
#include "retrieval/index.hpp"
#include "serve/admission.hpp"
#include "serve/async_handle.hpp"
#include "serve/clock.hpp"
#include "serve/errors.hpp"
#include "serve/fault_injection.hpp"
#include "serve/resilient.hpp"
#include "serve/server.hpp"

namespace duo {
namespace {

using duo::testing::TinyWorld;

attack::Perturbation noisy_support(const video::Video& v, std::uint64_t seed) {
  Rng rng(seed);
  attack::Perturbation p = baselines::random_support(v.geometry(), 150, 3, rng);
  Tensor noise =
      Tensor::uniform(v.geometry().tensor_shape(), -10.0f, 10.0f, rng);
  p.magnitude() = noise * p.pixel_mask() * p.frame_mask();
  return p;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << label << " diverges at element " << i;
  }
}

// The synchronous victim with faults: applies a FaultInjector schedule to
// direct retrieve() calls, the non-served counterpart of
// ServerConfig::fault_injector. Injected faults throw ServeError with
// billed=true — the backend did (or would have done) the forward pass; only
// the answer is lost. kDelay sleeps, then answers. Like the system it wraps,
// it is NOT safe for concurrent retrieve calls.
class FaultySystem {
 public:
  FaultySystem(retrieval::RetrievalSystem& system, serve::FaultConfig config)
      : system_(system), injector_(config) {}

  metrics::RetrievalList retrieve(const video::Video& v, std::size_t m) {
    using serve::ServeError;
    using serve::ServeErrorCode;
    switch (injector_.next()) {
      case serve::FaultKind::kTransientError:
        throw ServeError(ServeErrorCode::kTransient, /*billed=*/true,
                         "FaultySystem: injected transient error");
      case serve::FaultKind::kDrop:
        // In the synchronous world a dropped response surfaces as the
        // client's own timeout; the backend still did the work.
        throw ServeError(ServeErrorCode::kDropped, /*billed=*/true,
                         "FaultySystem: injected dropped response");
      case serve::FaultKind::kFatalError:
        throw ServeError(ServeErrorCode::kFatal, /*billed=*/true,
                         "FaultySystem: injected fatal victim error");
      case serve::FaultKind::kDelay:
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            injector_.config().delay_ms));
        break;
      case serve::FaultKind::kNone:
        break;
    }
    return system_.retrieve(v, m);
  }

  // Adapter for retrieval::BlackBoxHandle's type-erased constructor.
  retrieval::BlackBoxHandle::RetrieveFn retrieve_fn() {
    return [this](const video::Video& v, std::size_t m) {
      return retrieve(v, m);
    };
  }

 private:
  retrieval::RetrievalSystem& system_;
  serve::FaultInjector injector_;
};

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(FailureModes, ConvRejectsTooSmallInput) {
  Rng rng(1);
  nn::Conv3dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  spec.kernel = {3, 3, 3};
  spec.stride = {1, 1, 1};
  spec.padding = {0, 0, 0};
  nn::Conv3d layer(spec, rng);
  // 2×2×2 spatial extent cannot fit a 3×3×3 kernel without padding.
  EXPECT_THROW(layer.forward(Tensor({1, 2, 2, 2})), std::logic_error);
}

TEST(FailureModes, BackwardBeforeForwardThrows) {
  Rng rng(2);
  nn::Linear layer(3, 2, rng);
  EXPECT_THROW(layer.backward(Tensor({2})), std::logic_error);
}

TEST(FailureModes, MismatchedGradShapeThrows) {
  Rng rng(3);
  nn::Linear layer(3, 2, rng);
  (void)layer.forward(Tensor({3}));
  EXPECT_THROW(layer.backward(Tensor({5})), std::logic_error);
}

TEST(FailureModes, EmptyGalleryQueryReturnsEmpty) {
  retrieval::DataNode node(4);
  const auto result = node.query(Tensor({4}), 10);
  EXPECT_TRUE(result.empty());
}

TEST(FailureModes, AttackOnIdenticalSourceAndTargetIsStable) {
  // v == v_t: the targeted objective starts satisfied. The attack must not
  // crash and must return a valid (possibly unchanged) video.
  auto& w = TinyWorld::mutable_instance();
  attack::DuoConfig cfg;
  cfg.transfer.k = 100;
  cfg.transfer.n = 2;
  cfg.transfer.outer_iterations = 1;
  cfg.transfer.theta_steps = 3;
  cfg.query.iter_numQ = 10;
  cfg.iter_numH = 1;
  cfg.m = 8;
  attack::DuoAttack attack(*w.surrogate, cfg);
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto& v = w.dataset.train[0];
  const auto outcome = attack.run(v, v, handle);
  EXPECT_GE(outcome.adversarial.data().min(), 0.0f);
  EXPECT_LE(outcome.adversarial.data().max(), 255.0f);
}

TEST(FailureModes, SparseQueryWithZeroIterationsReturnsInitial) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto ctx = attack::make_objective_context(handle, v, vt, 8);
  attack::Perturbation pert(v.geometry());
  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 1;  // only the initial evaluation
  const auto result = attack::sparse_query(v, pert, handle, ctx, cfg);
  EXPECT_EQ(result.t_history.size(), 1u);
}

TEST(FailureModes, SparseTransferOnUniformVideoStaysFinite) {
  // A constant video has no texture for the surrogate to grab onto; the
  // attack must still return finite, in-budget masks.
  auto& w = TinyWorld::mutable_instance();
  video::Video flat(w.spec.geometry, 0, 4242);
  flat.data().fill(128.0f);

  attack::SparseTransferConfig cfg;
  cfg.k = 100;
  cfg.n = 2;
  cfg.outer_iterations = 2;
  cfg.theta_steps = 4;
  const auto result =
      attack::sparse_transfer(flat, w.dataset.train[3], *w.surrogate, cfg);
  EXPECT_EQ(result.perturbation.selected_pixels(), 100);
  for (const auto loss : result.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
  EXPECT_LE(result.perturbation.magnitude().norm_linf(), cfg.tau + 1e-4f);
}

TEST(FailureModes, TimiOnBlackVideoProducesValidPixels) {
  auto& w = TinyWorld::mutable_instance();
  video::Video black(w.spec.geometry, 0, 4243);  // all zeros
  baselines::TimiConfig cfg;
  cfg.iterations = 4;
  baselines::TimiAttack attack(*w.surrogate, cfg);
  retrieval::BlackBoxHandle handle(*w.victim);
  const auto outcome = attack.run(black, w.dataset.train[2], handle);
  // All perturbations must be non-negative (clamped at 0 from below).
  EXPECT_GE(outcome.adversarial.data().min(), 0.0f);
  EXPECT_LE(outcome.adversarial.data().max(), 255.0f);
  EXPECT_LE(outcome.perturbation.norm_linf(), cfg.tau + 0.5f);
}

TEST(FailureModes, EvaluateAttackWithZeroPairs) {
  auto& w = TinyWorld::mutable_instance();
  attack::DuoConfig cfg;
  cfg.transfer.k = 50;
  cfg.transfer.n = 2;
  cfg.query.iter_numQ = 5;
  cfg.iter_numH = 1;
  attack::DuoAttack attack(*w.surrogate, cfg);
  const auto eval = attack::evaluate_attack(attack, *w.victim, {}, 8);
  EXPECT_EQ(eval.pairs.size(), 0u);
  EXPECT_DOUBLE_EQ(eval.mean_ap_m_after_pct, 0.0);
}

TEST(FailureModes, SamplePairsFromSingleClassThrows) {
  // All-same-label pool cannot produce differently-labeled pairs.
  auto& w = TinyWorld::mutable_instance();
  std::vector<video::Video> single_class;
  for (const auto& v : w.dataset.train) {
    if (v.label() == 0) single_class.push_back(v);
  }
  ASSERT_GE(single_class.size(), 2u);
  EXPECT_THROW(attack::sample_attack_pairs(single_class, 1, 5),
               std::logic_error);
}

TEST(FailureModes, QuantizationNeverCreatesOutOfRangePixels) {
  auto& w = TinyWorld::mutable_instance();
  attack::Perturbation p(w.spec.geometry);
  Rng rng(5);
  p.magnitude() = Tensor::uniform(w.spec.geometry.tensor_shape(), -300.0f,
                                  300.0f, rng);  // wildly over budget
  const video::Video adv = p.apply_to(w.dataset.train[0]);
  EXPECT_GE(adv.data().min(), 0.0f);
  EXPECT_LE(adv.data().max(), 255.0f);
  for (std::int64_t i = 0; i < adv.data().size(); ++i) {
    EXPECT_FLOAT_EQ(adv.data()[i], std::round(adv.data()[i]));
  }
}

// ISSUE satellite: the serve-layer fault matrix. Against a deterministic
// victim, every retryable fault class — response timeouts, transient errors,
// dropped responses, and a mix — leaves the attack's trajectory and final
// video bitwise identical to the fault-free reference; only the victim-side
// billing (retries included) may grow.
TEST(FailureModes, ServeFaultMatrixKeepsAttacksBitwiseIdentical) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  const attack::Perturbation pert = noisy_support(v, 11);

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 16;
  cfg.m = 8;
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  // Calibrate the client's answer timeout to this machine: fault-free
  // service (an in-flight ±ε pair, like the pipelined attack submits) must
  // finish comfortably inside it — under TSan a single forward can take
  // hundreds of ms. Injected delays aim decisively past the timeout so the
  // lost-answer retry path fires, but are capped to bound the test's wall
  // time; on a machine so slow that the cap lands inside the timeout,
  // delays degrade into slow-but-correct answers and the mode still
  // verifies the bitwise contract.
  double baseline_ms = 1.0;
  {
    serve::RetrievalServer server(*w.victim);
    serve::AsyncBlackBoxHandle async(server);
    (void)async.retrieve(v, 8);  // warm-up
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch sw;
      auto plus = async.submit(v, 8);
      auto minus = async.submit(v, 8);
      (void)plus.get();
      (void)minus.get();
      baseline_ms = std::max(baseline_ms, sw.elapsed_ms());
    }
    server.shutdown();
  }
  const double timeout_ms = std::max(50.0, 8.0 * baseline_ms);
  const double injected_delay_ms = std::min(2.5 * timeout_ms, 1000.0);

  struct FaultMode {
    const char* name;
    serve::FaultConfig faults;
  };
  serve::FaultConfig timeouts;  // delays past the client's answer timeout
  timeouts.delay_prob = 0.25;
  timeouts.delay_ms = injected_delay_ms;
  serve::FaultConfig errors;
  errors.error_prob = 0.3;
  serve::FaultConfig drops;
  drops.drop_prob = 0.3;
  serve::FaultConfig mixed;
  mixed.error_prob = 0.15;
  mixed.delay_prob = 0.1;
  mixed.drop_prob = 0.15;
  mixed.delay_ms = injected_delay_ms;
  const FaultMode kModes[] = {
      {"timeout-only", timeouts},
      {"error-only", errors},
      {"drop-only", drops},
      {"mixed", mixed},
  };

  for (const FaultMode& mode : kModes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(mode.name) + " seed " + std::to_string(seed));
      serve::FaultConfig faults = mode.faults;
      faults.seed = seed;
      serve::ServerConfig scfg;
      scfg.fault_injector = std::make_shared<serve::FaultInjector>(faults);
      serve::RetrievalServer server(*w.victim, scfg);
      serve::AsyncBlackBoxHandle async(server);
      serve::RetryPolicy policy;
      policy.query_timeout =
          std::chrono::milliseconds(static_cast<int>(timeout_ms));
      policy.max_attempts = 40;
      policy.seed = 100 + seed;
      serve::ResilientHandle resilient(async, policy);

      std::optional<attack::SparseQueryResult> got;
      try {
        got = attack::sparse_query_pipelined(v, pert, resilient, ctx, cfg);
      } catch (const std::exception& e) {
        server.shutdown();
        FAIL() << "retryable faults must never surface: " << e.what();
      }
      server.shutdown();

      EXPECT_EQ(got->t_history, ref.t_history);
      expect_bitwise_equal(got->v_adv.data(), ref.v_adv.data(), "v_adv");
      // Honest accounting: the pipelined run's speculative −ε forwards and
      // every fault-replacing retry billed real victim queries.
      EXPECT_GE(got->queries_spent, ref.queries_spent);
      if (resilient.faults_seen() > 0) {
        EXPECT_GT(resilient.retries(), 0);
      }
    }
  }

  // The serial driver runs unchanged over the same faulty victim through
  // ResilientHandle::retrieve_fn(), with the same bitwise guarantee.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("serial mixed seed " + std::to_string(seed));
    serve::FaultConfig faults = mixed;
    faults.seed = seed;
    serve::ServerConfig scfg;
    scfg.fault_injector = std::make_shared<serve::FaultInjector>(faults);
    serve::RetrievalServer server(*w.victim, scfg);
    serve::AsyncBlackBoxHandle async(server);
    serve::RetryPolicy policy;
    policy.query_timeout =
        std::chrono::milliseconds(static_cast<int>(timeout_ms));
    policy.max_attempts = 40;
    policy.seed = 200 + seed;
    serve::ResilientHandle resilient(async, policy);
    retrieval::BlackBoxHandle faulty_handle(resilient.retrieve_fn());

    std::optional<attack::SparseQueryResult> got;
    try {
      got = attack::sparse_query(v, pert, faulty_handle, ctx, cfg);
    } catch (const std::exception& e) {
      server.shutdown();
      FAIL() << "retryable faults must never surface: " << e.what();
    }
    server.shutdown();

    EXPECT_EQ(got->t_history, ref.t_history);
    expect_bitwise_equal(got->v_adv.data(), ref.v_adv.data(), "serial v_adv");
    EXPECT_EQ(got->queries_spent, faulty_handle.query_count());
    EXPECT_GE(resilient.queries_billed(), got->queries_spent);
  }
}

// ISSUE acceptance: a fatally killed SparseQuery — serial and pipelined —
// resumes from its checkpoint and finishes with the trajectory and final
// video of an uninterrupted run, while the billed-query total stays honest
// across both processes.
TEST(FailureModes, CheckpointResumeReproducesUninterruptedRun) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  const attack::Perturbation pert = noisy_support(v, 12);

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 16;
  cfg.m = 8;
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  // --- Serial: kill at the 13th billed request, then resume. ---
  const std::string serial_path = ::testing::TempDir() + "duo_sq_ck.bin";
  std::remove(serial_path.c_str());
  {
    serve::FaultConfig faults;
    faults.fatal_at = 12;
    FaultySystem faulty(*w.victim, faults);
    retrieval::BlackBoxHandle handle(faulty.retrieve_fn());
    attack::SparseQueryConfig killed = cfg;
    killed.checkpoint_path = serial_path;
    killed.checkpoint_every = 4;
    EXPECT_THROW((void)attack::sparse_query(v, pert, handle, ctx, killed),
                 serve::ServeError);
  }
  {
    attack::SparseQueryConfig resumed_cfg = cfg;
    resumed_cfg.checkpoint_path = serial_path;
    resumed_cfg.resume = true;
    const auto resumed =
        attack::sparse_query(v, pert, direct, ctx, resumed_cfg);
    EXPECT_EQ(resumed.t_history, ref.t_history);
    expect_bitwise_equal(resumed.v_adv.data(), ref.v_adv.data(),
                         "serial resumed v_adv");
    // The killed process billed the fatal attempt plus at most one extra
    // query of the replayed iteration — never fewer queries than fault-free.
    EXPECT_GT(resumed.queries_spent, ref.queries_spent);
    EXPECT_LE(resumed.queries_spent, ref.queries_spent + 2);
  }
  std::remove(serial_path.c_str());

  // --- Pipelined: fatal on an always-consumed +ε request, then resume. ---
  const std::string piped_path = ::testing::TempDir() + "duo_sqp_ck.bin";
  std::remove(piped_path.c_str());
  {
    serve::FaultConfig faults;
    faults.fatal_at = 9;  // +ε request of iteration 5 (odd arrival index)
    serve::ServerConfig scfg;
    scfg.fault_injector = std::make_shared<serve::FaultInjector>(faults);
    serve::RetrievalServer server(*w.victim, scfg);
    serve::AsyncBlackBoxHandle async(server);
    serve::ResilientHandle resilient(async);
    attack::SparseQueryConfig killed = cfg;
    killed.checkpoint_path = piped_path;
    killed.checkpoint_every = 2;
    EXPECT_THROW(
        (void)attack::sparse_query_pipelined(v, pert, resilient, ctx, killed),
        serve::ServeError);
    server.shutdown();
  }
  {
    serve::RetrievalServer server(*w.victim);
    serve::AsyncBlackBoxHandle async(server);
    serve::ResilientHandle resilient(async);
    attack::SparseQueryConfig resumed_cfg = cfg;
    resumed_cfg.checkpoint_path = piped_path;
    resumed_cfg.resume = true;
    const auto resumed =
        attack::sparse_query_pipelined(v, pert, resilient, ctx, resumed_cfg);
    server.shutdown();
    EXPECT_EQ(resumed.t_history, ref.t_history);
    expect_bitwise_equal(resumed.v_adv.data(), ref.v_adv.data(),
                         "pipelined resumed v_adv");
    EXPECT_GE(resumed.queries_spent, ref.queries_spent);
  }
  std::remove(piped_path.c_str());
}

// A serial run killed on a step whose coordinate group repeats a coordinate
// (the group straddles a deck reshuffle) resumes to the uninterrupted
// trajectory: the fatal-path checkpoint holds the pre-step video, repeated
// pixel included. Each kill is checked to land on a repeating step, and the
// same checkpoint also resumes through the pipelined overload.
TEST(FailureModes, SerialResumeAcrossRepeatedCoordinateStep) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[11];
  const auto& vt = w.dataset.train[24];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  Rng rng(12);
  attack::Perturbation pert =
      baselines::random_support(v.geometry(), 6, 1, rng);
  pert.magnitude() =
      Tensor::uniform(v.geometry().tensor_shape(), -10.0f, 10.0f, rng) *
      pert.pixel_mask() * pert.frame_mask();

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 20;
  cfg.coords_per_step = 4;
  cfg.m = 8;
  const std::vector<int> repeats =
      duo::testing::repeated_coordinate_steps(pert, cfg);
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  const std::string path = ::testing::TempDir() + "duo_sq_repeat_ck.bin";
  for (const std::int64_t fatal_at : {9, 15, 33}) {
    SCOPED_TRACE("fatal_at " + std::to_string(fatal_at));
    std::remove(path.c_str());
    attack::SparseQueryConfig ck_cfg = cfg;
    ck_cfg.checkpoint_path = path;
    ck_cfg.checkpoint_every = 0;  // only the fatal-path save
    {
      serve::FaultConfig faults;
      faults.fatal_at = fatal_at;
      FaultySystem faulty(*w.victim, faults);
      retrieval::BlackBoxHandle handle(faulty.retrieve_fn());
      EXPECT_THROW((void)attack::sparse_query(v, pert, handle, ctx, ck_cfg),
                   serve::ServeError);
    }
    attack::SparseQueryCheckpoint ck;
    ASSERT_TRUE(attack::load_checkpoint(ck, path));
    EXPECT_NE(std::find(repeats.begin(), repeats.end(), ck.next_iteration),
              repeats.end())
        << "killed at step " << ck.next_iteration
        << ", which repeats no coordinate";

    ck_cfg.resume = true;
    const auto resumed = attack::sparse_query(v, pert, direct, ctx, ck_cfg);
    EXPECT_EQ(resumed.t_history, ref.t_history);
    expect_bitwise_equal(resumed.v_adv.data(), ref.v_adv.data(),
                         "serial resumed v_adv");

    serve::RetrievalServer server(*w.victim);
    serve::AsyncBlackBoxHandle async(server);
    const auto piped =
        attack::sparse_query_pipelined(v, pert, async, ctx, ck_cfg);
    server.shutdown();
    EXPECT_EQ(piped.t_history, ref.t_history);
    expect_bitwise_equal(piped.v_adv.data(), ref.v_adv.data(),
                         "pipelined resumed v_adv");
  }
  std::remove(path.c_str());
}

// ISSUE acceptance, full pipeline: DuoAttack::run is bitwise stable under
// retryable faults, and a fatal kill mid-attack resumes through the
// round-level checkpoint (plus the killed round's inner checkpoint) to the
// exact fault-free result.
TEST(FailureModes, DuoSurvivesFaultsAndKillResume) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];

  attack::DuoConfig cfg;
  cfg.transfer.k = 100;
  cfg.transfer.n = 2;
  cfg.transfer.outer_iterations = 1;
  cfg.transfer.theta_steps = 3;
  cfg.query.iter_numQ = 10;
  cfg.query.checkpoint_every = 4;
  cfg.iter_numH = 2;
  cfg.m = 8;

  retrieval::BlackBoxHandle direct(*w.victim);
  attack::DuoAttack reference_attack(*w.surrogate, cfg);
  const auto ref = reference_attack.run(v, vt, direct);

  // Retryable faults only: same videos, same logical query count; the extra
  // cost shows up in the resilient client's victim-side billing.
  {
    serve::FaultConfig faults;
    faults.error_prob = 0.2;
    faults.drop_prob = 0.1;
    faults.seed = 5;
    serve::ServerConfig scfg;
    scfg.fault_injector = std::make_shared<serve::FaultInjector>(faults);
    serve::RetrievalServer server(*w.victim, scfg);
    serve::AsyncBlackBoxHandle async(server);
    serve::ResilientHandle resilient(async);
    retrieval::BlackBoxHandle faulty_handle(resilient.retrieve_fn());

    attack::DuoAttack faulted_attack(*w.surrogate, cfg);
    const auto faulted = faulted_attack.run(v, vt, faulty_handle);
    server.shutdown();

    EXPECT_EQ(faulted.t_history, ref.t_history);
    expect_bitwise_equal(faulted.adversarial.data(), ref.adversarial.data(),
                         "faulted adversarial");
    EXPECT_EQ(faulted.queries, ref.queries);
    EXPECT_GE(resilient.queries_billed(), ref.queries);
  }

  // Kill three quarters of the way through, then resume to the same video.
  const std::string duo_path = ::testing::TempDir() + "duo_full_ck.bin";
  const std::string round_paths[] = {duo_path + ".h0", duo_path + ".h1"};
  std::remove(duo_path.c_str());
  for (const auto& p : round_paths) std::remove(p.c_str());
  attack::DuoConfig ck_cfg = cfg;
  ck_cfg.checkpoint_path = duo_path;
  {
    serve::FaultConfig faults;
    faults.fatal_at = ref.queries * 3 / 4;
    FaultySystem faulty(*w.victim, faults);
    retrieval::BlackBoxHandle handle(faulty.retrieve_fn());
    attack::DuoAttack killed_attack(*w.surrogate, ck_cfg);
    EXPECT_THROW((void)killed_attack.run(v, vt, handle), serve::ServeError);
  }
  {
    attack::DuoConfig resumed_cfg = ck_cfg;
    resumed_cfg.resume = true;
    attack::DuoAttack resumed_attack(*w.surrogate, resumed_cfg);
    const auto resumed = resumed_attack.run(v, vt, direct);
    EXPECT_EQ(resumed.t_history, ref.t_history);
    expect_bitwise_equal(resumed.adversarial.data(), ref.adversarial.data(),
                         "resumed adversarial");
    EXPECT_GE(resumed.queries, ref.queries);
  }
  std::remove(duo_path.c_str());
  for (const auto& p : round_paths) std::remove(p.c_str());
}

// ISSUE acceptance: against a server that both rate-limits the attacker's
// client_id and injects transient errors, a paced sparse_query_pipelined run
// — every submission first through a shared Pacer token, every throttle
// honored via its retry_after hint — finishes bitwise identical to the
// unthrottled fault-free reference. All policy decisions read a shared
// VirtualClock, so the throttling schedule itself is deterministic, and the
// server/client accounting reconciles exactly against the documented billing
// policy (throttles unbilled; injected faults billed).
TEST(FailureModes, OverloadMatrixKeepsPacedAttackBitwiseIdentical) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  const attack::Perturbation pert = noisy_support(v, 14);

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 16;
  cfg.m = 8;
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE("overload seed " + std::to_string(seed));
    auto clock = std::make_shared<serve::VirtualClock>();

    serve::FaultConfig faults;
    faults.error_prob = 0.2;
    faults.seed = seed;
    serve::ServerConfig scfg;
    scfg.fault_injector = std::make_shared<serve::FaultInjector>(faults);
    scfg.clock = clock;
    scfg.client_rate = 1000.0;  // 1 request/ms sustained per client
    scfg.client_burst = 2.0;
    serve::RetrievalServer server(*w.victim, scfg);

    serve::RequestOptions opts;
    opts.client_id = "attacker";
    serve::AsyncBlackBoxHandle async(server, opts);

    // The pacer is deliberately faster than the server's per-client limit,
    // so the server pushes back and the client's retry_after handling does
    // real work in this test.
    serve::PacerConfig pcfg;
    pcfg.rate_per_sec = 2000.0;
    pcfg.burst = 2.0;
    auto pacer = std::make_shared<serve::Pacer>(pcfg, clock);

    serve::RetryPolicy policy;
    policy.max_attempts = 10;
    policy.query_timeout = std::chrono::milliseconds(10000);
    policy.seed = 300 + seed;
    serve::ResilientHandle resilient(async, policy, pacer, clock);

    std::optional<attack::SparseQueryResult> got;
    try {
      got = attack::sparse_query_pipelined(v, pert, resilient, ctx, cfg);
    } catch (const std::exception& e) {
      server.shutdown();
      FAIL() << "throttling and transient faults must never surface: "
             << e.what();
    }
    server.shutdown();

    EXPECT_EQ(got->t_history, ref.t_history);
    expect_bitwise_equal(got->v_adv.data(), ref.v_adv.data(), "paced v_adv");

    const serve::ServerStats stats = server.stats();
    // The overload machinery actually engaged.
    EXPECT_GT(stats.requests_throttled, 0);
    EXPECT_GT(pacer->waits(), 0);
    // Billing policy: every accepted (billed) request terminated exactly one
    // way — served, failed by injection, expired, or shed.
    EXPECT_EQ(resilient.queries_billed(),
              stats.queries_served + stats.faults_injected +
                  stats.requests_expired + stats.requests_shed);
    // The client saw every throttle denial exactly once, and every injected
    // fault exactly once; the two families are accounted separately.
    EXPECT_EQ(resilient.overloads_seen(), stats.requests_throttled);
    EXPECT_EQ(resilient.faults_seen() - resilient.overloads_seen(),
              stats.faults_injected);
    // Every gate pass took one pacer token: accepted submissions plus the
    // ones the server then throttled.
    EXPECT_EQ(pacer->granted(),
              resilient.queries_billed() + stats.requests_throttled);
  }
}

// ISSUE satellite (overload matrix): admission kReject turn-aways carry a
// retry_after hint that ResilientHandle honors — rejected submissions are
// retried until the queue drains and are never billed, so the victim-side
// bill equals the logical query count exactly.
TEST(FailureModes, AdmissionRejectionsAreRetriedUnbilled) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto expected = direct.retrieve(v, 8);

  serve::FaultConfig faults;  // slow service keeps the queue occupied
  faults.delay_prob = 1.0;
  faults.delay_ms = 150.0;
  serve::ServerConfig scfg;
  scfg.max_batch = 1;
  scfg.queue_capacity = 2;
  scfg.admission = serve::AdmissionPolicy::kReject;
  scfg.fault_injector = std::make_shared<serve::FaultInjector>(faults);
  serve::RetrievalServer server(*w.victim, scfg);
  serve::AsyncBlackBoxHandle async(server);

  serve::RetryPolicy policy;
  policy.max_attempts = 100;  // rejections are cheap; let the queue drain
  policy.backoff_base = std::chrono::milliseconds(8);
  policy.query_timeout = std::chrono::milliseconds(10000);
  serve::ResilientHandle resilient(async, policy);

  // lanes + 3 rapid pipelined submissions against capacity one in service
  // per lane + 2 queued: at least one is rejected at the door.
  const int burst = static_cast<int>(server.lanes()) + 3;
  std::vector<serve::PendingRetrieval> pending;
  for (int i = 0; i < burst; ++i) pending.push_back(resilient.submit(v, 8));
  for (auto& p : pending) EXPECT_EQ(p.get(), expected);
  server.shutdown();

  const serve::ServerStats stats = server.stats();
  EXPECT_GE(stats.requests_rejected, 1);
  EXPECT_EQ(resilient.overloads_seen(), stats.requests_rejected);
  // Rejections never reached the victim: the bill is the logical count.
  EXPECT_EQ(resilient.queries_billed(), burst);
  EXPECT_EQ(stats.queries_served, burst);
}

// ISSUE 9 acceptance: an AIMD-paced attack against an *undisclosed* server
// rate limit bills no more than a static pacer hand-tuned to the exact
// limit, stays bitwise identical to the unthrottled reference, and is
// decision-for-decision reproducible — including a mid-run limit change
// (the server drops client_rate between two attack runs; AIMD re-converges
// while the hand-tuned setting silently goes stale).
TEST(FailureModes, AimdPacedAttackBillsNoMoreThanHandTunedStatic) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  const attack::Perturbation pert = noisy_support(v, 14);

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 16;
  cfg.m = 8;
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  struct Trace {
    std::int64_t billed = 0;
    std::int64_t throttled = 0;
    std::int64_t granted = 0;
    std::int64_t decreases = 0;
    double elapsed_ms = 0.0;
    double final_rate = 0.0;
  };
  // One paced campaign: two back-to-back pipelined attacks against a server
  // whose undisclosed per-client limit drops from 20/s to 10/s in between.
  const auto run = [&](bool aimd) {
    auto clock = std::make_shared<serve::VirtualClock>();
    serve::ServerConfig scfg;
    scfg.clock = clock;
    scfg.client_rate = 20.0;
    scfg.client_burst = 2.0;
    serve::RetrievalServer server(*w.victim, scfg);
    serve::AsyncBlackBoxHandle async(server);

    serve::PacerConfig pcfg;
    // The static baseline is hand-tuned to the exact opening limit; AIMD
    // starts from a deliberately bad guess and has to discover it.
    pcfg.rate_per_sec = aimd ? 4.0 : 20.0;
    pcfg.burst = 1.0;
    pcfg.aimd = aimd;
    pcfg.aimd_increase = 100.0;
    auto pacer = std::make_shared<serve::Pacer>(pcfg, clock);

    serve::RetryPolicy policy;
    policy.max_attempts = 10;
    policy.backoff_base = std::chrono::milliseconds(0);
    policy.query_timeout = std::chrono::milliseconds(10000);
    policy.seed = 17;
    serve::ResilientHandle resilient(async, policy, pacer, clock);

    const auto first =
        attack::sparse_query_pipelined(v, pert, resilient, ctx, cfg);
    EXPECT_EQ(first.t_history, ref.t_history);
    expect_bitwise_equal(first.v_adv.data(), ref.v_adv.data(),
                         aimd ? "aimd v_adv (phase 1)" : "static v_adv (1)");

    server.set_client_rate(10.0);
    const auto second =
        attack::sparse_query_pipelined(v, pert, resilient, ctx, cfg);
    EXPECT_EQ(second.t_history, ref.t_history);
    expect_bitwise_equal(second.v_adv.data(), ref.v_adv.data(),
                         aimd ? "aimd v_adv (phase 2)" : "static v_adv (2)");
    server.shutdown();

    // Ledger identity: billed == served + faulted + expired + shed (the
    // only terminal states an accepted request has).
    const serve::ServerStats stats = server.stats();
    EXPECT_EQ(resilient.queries_billed(),
              stats.queries_served + stats.faults_injected +
                  stats.requests_expired + stats.requests_shed);
    EXPECT_EQ(resilient.overloads_seen(), stats.requests_throttled);
    EXPECT_EQ(pacer->granted(),
              resilient.queries_billed() + stats.requests_throttled);

    Trace t;
    t.billed = resilient.queries_billed();
    t.throttled = stats.requests_throttled;
    t.granted = pacer->granted();
    t.decreases = pacer->rate_decreases();
    t.elapsed_ms = clock->now_ms();
    t.final_rate = pacer->current_rate();
    return t;
  };

  const Trace adaptive = run(/*aimd=*/true);
  const Trace tuned = run(/*aimd=*/false);

  // The acceptance inequality: discovery costs no extra bill. Throttles are
  // unbilled and retried, so both pacers pay exactly the logical count.
  EXPECT_LE(adaptive.billed, tuned.billed);
  EXPECT_EQ(adaptive.billed, tuned.billed);  // and in fact exactly equal
  // AIMD actually engaged: it probed past the limit and backed off, and
  // after the drop its estimate sits near the *new* limit, not the old one.
  EXPECT_GT(adaptive.throttled, 0);
  EXPECT_GT(adaptive.decreases, 0);
  EXPECT_GE(adaptive.final_rate, 4.0);
  EXPECT_LE(adaptive.final_rate, 22.0);

  // Decision-for-decision reproducible: the identical scenario replays to an
  // identical trace — and the compute-pool width (the DUO_THREADS analogue)
  // must not leak into a single pacer decision.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
    ThreadPool pool(threads);
    set_compute_pool(&pool);
    const Trace replay = run(/*aimd=*/true);
    set_compute_pool(nullptr);
    EXPECT_EQ(replay.billed, adaptive.billed) << threads;
    EXPECT_EQ(replay.throttled, adaptive.throttled) << threads;
    EXPECT_EQ(replay.granted, adaptive.granted) << threads;
    EXPECT_EQ(replay.decreases, adaptive.decreases) << threads;
    EXPECT_DOUBLE_EQ(replay.elapsed_ms, adaptive.elapsed_ms) << threads;
    EXPECT_DOUBLE_EQ(replay.final_rate, adaptive.final_rate) << threads;
  }
}

// ISSUE satellites (circuit breaker + checkpoint GC): when the victim goes
// down mid-attack and stays down, the circuit opens after the configured
// number of consecutive failures and the attack surfaces a typed
// ServeError{kUnavailable} instead of burning its whole retry budget — after
// writing a checkpoint. remove_on_success never deletes the checkpoint of an
// interrupted run; the resumed run reproduces the fault-free result and only
// then garbage-collects the file.
TEST(FailureModes, CircuitBreakerSurfacesUnavailableAndCheckpoints) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  const attack::Perturbation pert = noisy_support(v, 13);

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 16;
  cfg.m = 8;
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  const std::string ck_path = ::testing::TempDir() + "duo_circuit_ck.bin";
  std::remove(ck_path.c_str());
  {
    serve::FaultConfig faults;
    faults.error_from = 10;  // victim dies at request 10 and stays dead
    serve::ServerConfig scfg;
    scfg.fault_injector = std::make_shared<serve::FaultInjector>(faults);
    serve::RetrievalServer server(*w.victim, scfg);
    serve::AsyncBlackBoxHandle async(server);

    auto clock = std::make_shared<serve::VirtualClock>();
    serve::RetryPolicy policy;
    policy.max_attempts = 5;
    policy.backoff_base = std::chrono::milliseconds(0);
    policy.query_timeout = std::chrono::milliseconds(10000);
    policy.circuit_threshold = 3;
    policy.circuit_cooldown_ms = 1e9;  // no probe: stays open once tripped
    serve::ResilientHandle resilient(async, policy, nullptr, clock);

    attack::SparseQueryConfig killed = cfg;
    killed.checkpoint_path = ck_path;
    killed.checkpoint_every = 3;
    killed.remove_on_success = true;  // must NOT fire on the fatal path

    bool surfaced = false;
    try {
      (void)attack::sparse_query_pipelined(v, pert, resilient, ctx, killed);
    } catch (const serve::ServeError& e) {
      surfaced = true;
      EXPECT_EQ(e.code(), serve::ServeErrorCode::kUnavailable);
      EXPECT_FALSE(e.retryable());
      EXPECT_FALSE(e.billed());
    }
    server.shutdown();
    EXPECT_TRUE(surfaced) << "a dead victim must surface as kUnavailable";
    EXPECT_EQ(resilient.circuit_state(), serve::CircuitState::kOpen);
    EXPECT_EQ(resilient.circuit_opens(), 1);
    EXPECT_GE(resilient.fast_failures(), 1);
    // The breaker cut the loss early: far fewer billed queries than the
    // retry budget (5 attempts per query) could have burned.
    EXPECT_LT(resilient.queries_billed(), 20);
    // Interrupted runs keep their checkpoint, remove_on_success or not.
    EXPECT_TRUE(file_exists(ck_path));
  }
  {
    serve::RetrievalServer server(*w.victim);  // the victim came back
    serve::AsyncBlackBoxHandle async(server);
    serve::ResilientHandle resilient(async);
    attack::SparseQueryConfig resumed_cfg = cfg;
    resumed_cfg.checkpoint_path = ck_path;
    resumed_cfg.resume = true;
    resumed_cfg.remove_on_success = true;
    const auto resumed =
        attack::sparse_query_pipelined(v, pert, resilient, ctx, resumed_cfg);
    server.shutdown();
    EXPECT_EQ(resumed.t_history, ref.t_history);
    expect_bitwise_equal(resumed.v_adv.data(), ref.v_adv.data(),
                         "circuit resumed v_adv");
    // Clean finish: the checkpoint was garbage-collected.
    EXPECT_FALSE(file_exists(ck_path));
  }
}

// ISSUE satellite (pacing matrix): two attack clients sharing one API key's
// Pacer, against a rate-limiting fault-injecting server — both finish
// bitwise identical to the reference, the shared-bucket schedule is
// reproducible decision-for-decision across identical runs, and the joint
// bill reconciles with the server's accounting.
TEST(FailureModes, PacingSharedAcrossClientsStaysDeterministic) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];
  retrieval::BlackBoxHandle direct(*w.victim);
  const auto ctx = attack::make_objective_context(direct, v, vt, 8);
  const attack::Perturbation pert = noisy_support(v, 14);

  attack::SparseQueryConfig cfg;
  cfg.iter_numQ = 16;
  cfg.m = 8;
  const auto ref = attack::sparse_query(v, pert, direct, ctx, cfg);

  struct RunTrace {
    std::int64_t granted = 0;
    std::int64_t waits = 0;
    double waited_ms = 0.0;
    std::int64_t throttled = 0;
    std::int64_t billed_a = 0;
    std::int64_t billed_b = 0;
  };

  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    std::vector<RunTrace> traces;
    for (int rep = 0; rep < 2; ++rep) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " rep " +
                   std::to_string(rep));
      auto clock = std::make_shared<serve::VirtualClock>();

      serve::FaultConfig faults;
      faults.error_prob = 0.15;
      faults.seed = seed;
      serve::ServerConfig scfg;
      scfg.fault_injector = std::make_shared<serve::FaultInjector>(faults);
      scfg.clock = clock;
      scfg.client_rate = 1000.0;
      scfg.client_burst = 2.0;
      serve::RetrievalServer server(*w.victim, scfg);

      serve::PacerConfig pcfg;
      pcfg.rate_per_sec = 2000.0;
      pcfg.burst = 2.0;
      auto pacer = std::make_shared<serve::Pacer>(pcfg, clock);

      serve::RequestOptions opts_a;
      opts_a.client_id = "proc-a";
      serve::RequestOptions opts_b;
      opts_b.client_id = "proc-b";
      serve::AsyncBlackBoxHandle async_a(server, opts_a);
      serve::AsyncBlackBoxHandle async_b(server, opts_b);
      serve::RetryPolicy policy;
      policy.max_attempts = 10;
      policy.query_timeout = std::chrono::milliseconds(10000);
      policy.seed = 400 + seed;
      serve::ResilientHandle res_a(async_a, policy, pacer, clock);
      serve::ResilientHandle res_b(async_b, policy, pacer, clock);

      const auto got_a = attack::sparse_query_pipelined(v, pert, res_a, ctx, cfg);
      const auto got_b = attack::sparse_query_pipelined(v, pert, res_b, ctx, cfg);
      server.shutdown();

      EXPECT_EQ(got_a.t_history, ref.t_history);
      EXPECT_EQ(got_b.t_history, ref.t_history);
      expect_bitwise_equal(got_a.v_adv.data(), ref.v_adv.data(), "client A");
      expect_bitwise_equal(got_b.v_adv.data(), ref.v_adv.data(), "client B");

      const serve::ServerStats stats = server.stats();
      EXPECT_EQ(res_a.queries_billed() + res_b.queries_billed(),
                stats.queries_served + stats.faults_injected);
      traces.push_back({pacer->granted(), pacer->waits(), pacer->waited_ms(),
                        stats.requests_throttled, res_a.queries_billed(),
                        res_b.queries_billed()});
    }
    // Same seed, same configuration: the whole pacing/throttling schedule
    // replays decision-for-decision.
    EXPECT_EQ(traces[0].granted, traces[1].granted) << "seed " << seed;
    EXPECT_EQ(traces[0].waits, traces[1].waits) << "seed " << seed;
    EXPECT_DOUBLE_EQ(traces[0].waited_ms, traces[1].waited_ms)
        << "seed " << seed;
    EXPECT_EQ(traces[0].throttled, traces[1].throttled) << "seed " << seed;
    EXPECT_EQ(traces[0].billed_a, traces[1].billed_a) << "seed " << seed;
    EXPECT_EQ(traces[0].billed_b, traces[1].billed_b) << "seed " << seed;
  }
}

// ISSUE satellite (checkpoint GC at the Duo level): remove_on_success wipes
// the outer and every per-round checkpoint after a clean finish, keeps them
// all after an interrupt, and the resumed run both reproduces the clean
// result and garbage-collects on its own clean exit.
TEST(FailureModes, DuoCheckpointGcRemovesFilesOnlyOnCleanFinish) {
  auto& w = TinyWorld::mutable_instance();
  const auto& v = w.dataset.train[1];
  const auto& vt = w.dataset.train[9];

  attack::DuoConfig cfg;
  cfg.transfer.k = 100;
  cfg.transfer.n = 2;
  cfg.transfer.outer_iterations = 1;
  cfg.transfer.theta_steps = 3;
  cfg.query.iter_numQ = 10;
  cfg.query.checkpoint_every = 4;
  cfg.iter_numH = 2;
  cfg.m = 8;
  const std::string duo_path = ::testing::TempDir() + "duo_gc_ck.bin";
  const std::string round_paths[] = {duo_path + ".h0", duo_path + ".h1"};
  std::remove(duo_path.c_str());
  for (const auto& p : round_paths) std::remove(p.c_str());
  cfg.checkpoint_path = duo_path;
  cfg.remove_on_success = true;

  retrieval::BlackBoxHandle direct(*w.victim);
  attack::DuoAttack clean_attack(*w.surrogate, cfg);
  const auto clean = clean_attack.run(v, vt, direct);
  // Clean finish: every checkpoint file is gone.
  EXPECT_FALSE(file_exists(duo_path));
  for (const auto& p : round_paths) EXPECT_FALSE(file_exists(p));

  // Interrupted: the kill leaves the durable state on disk even with
  // remove_on_success set.
  {
    serve::FaultConfig faults;
    faults.fatal_at = clean.queries / 2;
    FaultySystem faulty(*w.victim, faults);
    retrieval::BlackBoxHandle handle(faulty.retrieve_fn());
    attack::DuoAttack killed_attack(*w.surrogate, cfg);
    EXPECT_THROW((void)killed_attack.run(v, vt, handle), serve::ServeError);
    EXPECT_TRUE(file_exists(duo_path));
  }

  // Resume reproduces the clean result bitwise, then cleans up after itself.
  {
    attack::DuoConfig resumed_cfg = cfg;
    resumed_cfg.resume = true;
    attack::DuoAttack resumed_attack(*w.surrogate, resumed_cfg);
    const auto resumed = resumed_attack.run(v, vt, direct);
    EXPECT_EQ(resumed.t_history, clean.t_history);
    expect_bitwise_equal(resumed.adversarial.data(), clean.adversarial.data(),
                         "gc resumed adversarial");
    EXPECT_FALSE(file_exists(duo_path));
    for (const auto& p : round_paths) EXPECT_FALSE(file_exists(p));
  }
}

}  // namespace
}  // namespace duo
