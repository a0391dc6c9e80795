#include "campaign/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <utility>

#include "attack/duo.hpp"
#include "attack/objective.hpp"
#include "attack/sparse_query.hpp"
#include "baselines/vanilla.hpp"
#include "common/rng.hpp"
#include "models/serialization.hpp"
#include "serve/errors.hpp"

namespace duo::campaign {

namespace {

namespace io = models::io;

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
constexpr char kBenignMagic[8] = {'D', 'U', 'O', 'C', 'A', 'M', 'P', '2'};

std::uint64_t fold_list(std::uint64_t hash,
                        const metrics::RetrievalList& list) {
  return io::fnv1a(list.data(), list.size() * sizeof(list[0]), hash);
}

// Benign-stream checkpoint: fingerprint (seed, m, stream length, roster
// size) + progress (next query index, Rng state, running answer hash,
// cumulative billed count from prior processes).
struct BenignCheckpoint {
  std::uint64_t seed = 0;
  std::int64_t m = 0;
  std::int64_t queries = 0;
  std::int64_t roster_size = 0;

  std::int64_t next = 0;
  std::uint64_t rng_state = 0;
  std::uint64_t answer_hash = kFnvBasis;
  std::int64_t billed_before = 0;
};

bool save_benign(const BenignCheckpoint& ck, const std::string& path) {
  return io::save_sealed(path, kBenignMagic, [&](std::ostream& out) {
    io::write_u64(out, ck.seed);
    io::write_i64(out, ck.m);
    io::write_i64(out, ck.queries);
    io::write_i64(out, ck.roster_size);
    io::write_i64(out, ck.next);
    io::write_u64(out, ck.rng_state);
    io::write_u64(out, ck.answer_hash);
    io::write_i64(out, ck.billed_before);
  });
}

bool load_benign(BenignCheckpoint& ck, const std::string& path) {
  BenignCheckpoint staged;
  if (!io::load_sealed(path, kBenignMagic, [&](std::istream& in) {
        return io::read_u64(in, staged.seed) && io::read_i64(in, staged.m) &&
               io::read_i64(in, staged.queries) &&
               io::read_i64(in, staged.roster_size) &&
               io::read_i64(in, staged.next) &&
               io::read_u64(in, staged.rng_state) &&
               io::read_u64(in, staged.answer_hash) &&
               io::read_i64(in, staged.billed_before);
      })) {
    return false;
  }
  ck = staged;
  return true;
}

SessionResult run_benign(const SessionSpec& spec,
                         const std::vector<video::Video>& roster,
                         serve::ResilientHandle& victim, serve::Clock& clock) {
  SessionResult out;
  out.client_id = spec.client_id;
  out.role = spec.role;

  Rng rng(spec.seed);
  std::int64_t next = 0;
  std::uint64_t hash = kFnvBasis;
  std::int64_t billed_before = 0;
  const bool checkpointing = !spec.checkpoint.empty();
  if (checkpointing) {
    BenignCheckpoint ck;
    // A checkpoint for a different stream shape is silently ignored — the
    // session falls back to a fresh start, mirroring attack::checkpoint.
    if (load_benign(ck, spec.checkpoint) && ck.seed == spec.seed &&
        ck.m == static_cast<std::int64_t>(spec.m) &&
        ck.queries == spec.queries &&
        ck.roster_size == static_cast<std::int64_t>(roster.size())) {
      next = ck.next;
      rng = Rng(ck.rng_state);
      hash = ck.answer_hash;
      billed_before = ck.billed_before;
    }
  }

  const std::int64_t billed_at_start = victim.queries_billed();
  const auto save = [&](std::uint64_t rng_state) {
    BenignCheckpoint ck;
    ck.seed = spec.seed;
    ck.m = static_cast<std::int64_t>(spec.m);
    ck.queries = spec.queries;
    ck.roster_size = static_cast<std::int64_t>(roster.size());
    ck.next = next;
    ck.rng_state = rng_state;
    ck.answer_hash = hash;
    ck.billed_before =
        billed_before + (victim.queries_billed() - billed_at_start);
    save_benign(ck, spec.checkpoint);
  };

  // State of the stream at the top of the current query, BEFORE its rng
  // draws: a fatal mid-retrieve must checkpoint this state, not rng.state()
  // (which has already consumed the interrupted query's index/think draws —
  // resuming from it would redraw a different index and fork the stream).
  std::uint64_t rng_at_query = rng.state();
  try {
    while (next < spec.queries) {
      rng_at_query = rng.state();
      const auto idx = rng.uniform_index(roster.size());
      if (spec.think_ms > 0.0) {
        // Exponential inter-arrival gap with mean think_ms; 1 - u keeps the
        // argument in (0, 1] so log never sees zero.
        clock.sleep_ms(-spec.think_ms * std::log(1.0 - rng.uniform()));
      }
      const auto list = victim.retrieve(roster[idx], spec.m);
      hash = fold_list(hash, list);
      ++next;
      if (checkpointing) save(rng.state());
    }
    out.completed = true;
    if (checkpointing) std::remove(spec.checkpoint.c_str());
  } catch (const std::exception& e) {
    // Fatal for this session (circuit open, fatal fault, retry budget dry,
    // shutdown): persist progress as of the last completed query so a
    // resumed campaign re-runs the interrupted one from scratch.
    if (checkpointing) save(rng_at_query);
    out.error = e.what();
  }

  out.logical_queries = next;
  out.queries_billed = victim.queries_billed() - billed_at_start;
  out.queries_reported = billed_before + out.queries_billed;
  out.outcome_hash = hash;
  return out;
}

SessionResult run_sparse(const SessionSpec& spec,
                         const std::vector<video::Video>& roster,
                         serve::ResilientHandle& victim) {
  SessionResult out;
  out.client_id = spec.client_id;
  out.role = spec.role;

  const video::Video& v = roster[static_cast<std::size_t>(spec.source_index)];
  const video::Video& v_t =
      roster[static_cast<std::size_t>(spec.target_index)];

  // Seeded random support + uniform magnitudes: the surrogate-free starting
  // perturbation (the support is what SparseQuery searches over; quality of
  // the start only shifts how far T falls, not whether the session runs).
  Rng rng(spec.seed);
  const auto geometry = v.geometry();
  const std::int64_t k =
      spec.support_k > 0
          ? std::min(spec.support_k, geometry.pixels_per_frame())
          : std::min<std::int64_t>(150, geometry.pixels_per_frame());
  const std::int64_t n = std::min(spec.support_n, geometry.frames);
  attack::Perturbation pert = baselines::random_support(geometry, k, n, rng);
  Tensor noise = Tensor::uniform(geometry.tensor_shape(), -10.0f, 10.0f, rng);
  pert.magnitude() = noise * pert.pixel_mask() * pert.frame_mask();

  const std::int64_t billed_at_start = victim.queries_billed();
  try {
    const attack::ObjectiveContext ctx =
        attack::make_objective_context(victim, v, v_t, spec.m);
    // The reference lists are part of the attack's spend; the driver counts
    // only what it bills itself, plus what its checkpoint carries.
    const std::int64_t context_billed =
        victim.queries_billed() - billed_at_start;
    attack::SparseQueryConfig qcfg;
    qcfg.iter_numQ = spec.iterations;
    qcfg.m = spec.m;
    qcfg.seed = spec.seed;
    qcfg.checkpoint_path = spec.checkpoint;
    qcfg.resume = !spec.checkpoint.empty();
    qcfg.remove_on_success = true;
    const attack::SparseQueryResult sq =
        attack::sparse_query_pipelined(v, pert, victim, ctx, qcfg);
    out.completed = true;
    out.final_t = sq.final_t;
    out.t_history = sq.t_history;
    out.outcome_hash = io::fnv1a(sq.v_adv.data());
    out.queries_reported = context_billed + sq.queries_spent;
  } catch (const std::exception& e) {
    // sparse_query_pipelined checkpoints before rethrowing a fatal error, so
    // nothing extra to persist here.
    out.error = e.what();
  }
  out.logical_queries = static_cast<std::int64_t>(out.t_history.size());
  out.queries_billed = victim.queries_billed() - billed_at_start;
  if (!out.completed) out.queries_reported = out.queries_billed;
  return out;
}

SessionResult run_duo(const SessionSpec& spec,
                      const std::vector<video::Video>& roster,
                      serve::ResilientHandle& victim,
                      models::FeatureExtractor* surrogate) {
  SessionResult out;
  out.client_id = spec.client_id;
  out.role = spec.role;
  if (surrogate == nullptr) {
    out.error = "duo session requires a campaign surrogate";
    return out;
  }

  const video::Video& v = roster[static_cast<std::size_t>(spec.source_index)];
  const video::Video& v_t =
      roster[static_cast<std::size_t>(spec.target_index)];

  attack::DuoConfig cfg;
  // Surrogate-side budgets stay small: campaign sessions measure the serving
  // path (queries, retries, fairness), not transfer quality; victim billing
  // is unaffected by transfer effort.
  cfg.transfer.k = spec.support_k > 0 ? spec.support_k : 100;
  cfg.transfer.n = std::min(spec.support_n, v.geometry().frames);
  cfg.transfer.outer_iterations = 1;
  cfg.transfer.theta_steps = 3;
  cfg.iter_numH = spec.rounds;
  cfg.m = spec.m;
  cfg.query.iter_numQ = spec.iterations;
  cfg.query.seed = spec.seed;
  cfg.checkpoint_path = spec.checkpoint;
  cfg.resume = !spec.checkpoint.empty();
  cfg.remove_on_success = true;

  const std::int64_t billed_at_start = victim.queries_billed();
  try {
    attack::DuoAttack attack(*surrogate, cfg);
    const attack::AttackOutcome outcome = attack.run(v, v_t, victim);
    out.completed = true;
    out.t_history = outcome.t_history;
    out.final_t =
        outcome.t_history.empty() ? 0.0 : outcome.t_history.back();
    out.outcome_hash = io::fnv1a(outcome.adversarial.data());
    out.queries_reported = outcome.queries;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.logical_queries = static_cast<std::int64_t>(out.t_history.size());
  out.queries_billed = victim.queries_billed() - billed_at_start;
  if (!out.completed) out.queries_reported = out.queries_billed;
  return out;
}

}  // namespace

SessionResult run_session(const SessionSpec& spec,
                          const std::vector<video::Video>& roster,
                          serve::ResilientHandle& victim, serve::Clock& clock,
                          models::FeatureExtractor* surrogate) {
  const double started_ms = clock.now_ms();
  SessionResult out;
  switch (spec.role) {
    case SessionRole::kBenign:
      out = run_benign(spec, roster, victim, clock);
      break;
    case SessionRole::kSparse:
      out = run_sparse(spec, roster, victim);
      break;
    case SessionRole::kDuo:
      out = run_duo(spec, roster, victim, surrogate);
      break;
  }
  out.retries = victim.retries();
  out.overloads = victim.overloads_seen();
  out.reconnects = victim.connection_losses();
  out.circuit_opens = victim.circuit_opens();
  out.wall_ms = clock.now_ms() - started_ms;
  if (victim.pacer() != nullptr) {
    out.discovered_rate = victim.pacer()->current_rate();
  }
  return out;
}

}  // namespace duo::campaign
