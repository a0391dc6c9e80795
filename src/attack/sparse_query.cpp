#include "attack/sparse_query.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "attack/checkpoint.hpp"
#include "models/serialization.hpp"

namespace duo::attack {

namespace {

// CLIP of Eq. 3: pixel validity and the per-pixel ℓ∞ budget around v.
float clip_pixel(float candidate, float original, float tau) {
  const float lo = std::max(0.0f, original - tau);
  const float hi = std::min(255.0f, original + tau);
  return std::clamp(candidate, lo, hi);
}

video::Video quantized(const video::Video& v) {
  Tensor data = v.data();
  for (auto& x : data.flat()) x = std::round(x);
  return video::Video(std::move(data), v.geometry(), v.label(), v.id());
}

// Alg. 2 step plan: the support of φ (Eq. 4), the step magnitude ε (line 3),
// and the coordinate group size. Pure computation — no Rng draws.
struct StepPlan {
  std::vector<std::int64_t> support;
  float eps = 0.0f;
  std::size_t group = 1;
};

StepPlan make_step_plan(const Perturbation& perturbation,
                        const SparseQueryConfig& config) {
  StepPlan plan;
  // Support of φ (Eq. 4): only these coordinates may be perturbed further.
  // The mask product I⊙F defines the support; θ supplies the step magnitude
  // (a coordinate with θ = 0 is still selectable — Vanilla starts that way).
  const Tensor phi = perturbation.combined();
  const Tensor support_mask =
      perturbation.pixel_mask() * perturbation.frame_mask();
  for (std::int64_t i = 0; i < support_mask.size(); ++i) {
    if (support_mask[i] > 0.5f) plan.support.push_back(i);
  }
  if (plan.support.empty()) return plan;

  // Line 3: ε from θ — the step magnitude is the mean |θ| over the support.
  // When θ carries no signal (e.g. Vanilla's random support starts at θ = 0)
  // fall back to τ/4, and always floor at 1 pixel level so quantization
  // cannot swallow accepted steps.
  double theta_mass = 0.0;
  for (const auto i : plan.support) theta_mass += std::fabs(phi[i]);
  const float theta_mean = static_cast<float>(
      theta_mass / static_cast<double>(plan.support.size()));
  plan.eps =
      std::max(1.0f, theta_mean >= 1.0f ? theta_mean : config.tau * 0.25f);

  plan.group =
      config.coords_per_step > 0
          ? static_cast<std::size_t>(config.coords_per_step)
          : std::clamp<std::size_t>(plan.support.size() / 12, 1, 64);
  return plan;
}

// Checkpoint plumbing. `enabled` gates all of it; periodic saves are
// best-effort (an unwritable path must not kill an attack that is otherwise
// making progress), while the fatal-path save right before a rethrow is also
// best-effort but leaves the previous checkpoint intact on failure thanks to
// the atomic commit.
struct CheckpointContext {
  bool enabled = false;
  bool remove_on_success = false;
  std::string path;
  int every = 0;
  video::VideoGeometry geometry;
  std::uint64_t seed = 0;
  std::int64_t support_size = 0;
  std::uint64_t source_hash = 0;

  static CheckpointContext make(const SparseQueryConfig& config,
                                const video::Video& v, const StepPlan& plan) {
    CheckpointContext cc;
    cc.enabled = !config.checkpoint_path.empty();
    if (!cc.enabled && !config.resume) return cc;
    cc.remove_on_success = config.remove_on_success;
    cc.path = config.checkpoint_path;
    cc.every = config.checkpoint_every;
    cc.geometry = v.geometry();
    cc.seed = config.seed;
    cc.support_size = static_cast<std::int64_t>(plan.support.size());
    cc.source_hash = models::io::fnv1a(v.data());
    return cc;
  }

  bool matches(const SparseQueryCheckpoint& ck) const {
    return ck.geometry == geometry && ck.seed == seed &&
           ck.support_size == support_size && ck.source_hash == source_hash;
  }

  void save(int next_kappa, double t_current,
            const std::vector<double>& t_history, std::int64_t queries,
            int stall, std::uint64_t rng_state,
            const std::vector<std::int64_t>& deck, std::int64_t deck_pos,
            const Tensor& v_adv) const {
    SparseQueryCheckpoint ck;
    ck.geometry = geometry;
    ck.seed = seed;
    ck.support_size = support_size;
    ck.source_hash = source_hash;
    ck.next_iteration = next_kappa;
    ck.t_current = t_current;
    ck.t_history = t_history;
    ck.queries = queries;
    ck.stall = stall;
    ck.rng_state = rng_state;
    ck.deck = deck;
    ck.deck_pos = deck_pos;
    ck.v_adv = v_adv;
    save_checkpoint(ck, path);
  }

  // GC on the successful-return path only: an interrupted run keeps its
  // checkpoint. Best-effort, like the saves.
  void finished() const {
    if (enabled && remove_on_success) std::remove(path.c_str());
  }
};

// Restores checkpointed driver state when resume is requested and a matching
// checkpoint exists. Returns the iteration to continue from and sets
// `resumed`; the flag (not the returned index) distinguishes a fresh start
// from a checkpoint taken during the very first iteration, whose
// next_iteration is also 1 but whose baseline/deck state must NOT be rebuilt.
int try_resume(const SparseQueryConfig& config, const CheckpointContext& cc,
               const StepPlan& plan, video::Video& v_adv, double& t_current,
               std::vector<double>& t_history, std::int64_t& queries_carried,
               int& stall, Rng& rng, std::vector<std::int64_t>& deck,
               std::size_t& deck_pos, bool& resumed) {
  resumed = false;
  if (!config.resume || config.checkpoint_path.empty()) return 1;
  SparseQueryCheckpoint ck;
  if (!load_checkpoint(ck, config.checkpoint_path) || !cc.matches(ck)) {
    return 1;
  }
  if (ck.deck.size() != plan.support.size()) return 1;
  v_adv.data() = std::move(ck.v_adv);
  t_current = ck.t_current;
  t_history = std::move(ck.t_history);
  queries_carried = ck.queries;
  stall = static_cast<int>(ck.stall);
  rng = Rng(ck.rng_state);
  deck = std::move(ck.deck);
  deck_pos = static_cast<std::size_t>(ck.deck_pos);
  resumed = true;
  return static_cast<int>(ck.next_iteration);
}

// The Alg. 2 driver, over any handle exposing
//   submit(video::Video, std::size_t) -> awaitable with .get()
//   query_count() -> std::int64_t
// i.e. serve::AsyncBlackBoxHandle (raw futures), serve::ResilientHandle
// (retrying PendingRetrievals) and DeferredHandle (a synchronous
// BlackBoxHandle). One body gives the three public overloads the same
// trajectory for the same seed and config.
template <typename Handle>
SparseQueryResult sparse_query_impl(const video::Video& v,
                                    const Perturbation& perturbation,
                                    Handle& victim, const ObjectiveContext& ctx,
                                    const SparseQueryConfig& config) {
  const video::VideoGeometry& g = v.geometry();
  DUO_CHECK_MSG(perturbation.geometry() == g, "perturbation geometry mismatch");
  Rng rng(config.seed);
  const StepPlan plan = make_step_plan(perturbation, config);
  const CheckpointContext cc = CheckpointContext::make(config, v, plan);

  SparseQueryResult result;
  const std::int64_t queries_before = victim.query_count();
  std::int64_t queries_carried = 0;
  const auto queries_total = [&] {
    return queries_carried + victim.query_count() - queries_before;
  };

  // Line 1: v_adv⁰ = v + φ (the paper's Alg. 2 writes v; the pipeline passes
  // the SparseTransfer output by handing us φ).
  video::Video v_adv = perturbation.apply_to(v);
  double t_current = 0.0;
  std::vector<std::int64_t> deck;
  std::size_t deck_pos = 0;
  int stall = 0;

  bool resumed = false;
  const int start_kappa =
      try_resume(config, cc, plan, v_adv, t_current, result.t_history,
                 queries_carried, stall, rng, deck, deck_pos, resumed);
  // Quantized shadow of v_adv, kept in sync per touched coordinate: every
  // victim query sees round(v_adv) without re-rounding the whole tensor.
  video::Video q_adv = quantized(v_adv);
  if (!resumed) {
    // Line 2: T⁰. A resumed run restored T from the checkpoint instead —
    // the initial query was already billed by the first process.
    t_current = t_loss_from_list(victim.submit(q_adv, ctx.m).get(), ctx);
    result.t_history.push_back(t_current);
  }

  if (plan.support.empty()) {
    result.v_adv = std::move(v_adv);
    result.final_t = t_current;
    result.queries_spent = queries_total();
    cc.finished();
    return result;
  }

  if (!resumed) {
    // Without-replacement sampling: shuffled support, reshuffled on drain.
    deck = plan.support;
    rng.shuffle(deck);
    deck_pos = 0;
  }

  std::vector<std::int64_t> coords;
  std::vector<float> plus_vals;
  std::vector<float> minus_vals;
  std::vector<std::int64_t> deck_backup;
  coords.reserve(plan.group);
  plus_vals.reserve(plan.group);
  minus_vals.reserve(plan.group);

  using Awaitable = decltype(victim.submit(std::declval<video::Video>(),
                                           std::declval<std::size_t>()));

  for (int kappa = start_kappa;
       kappa < config.iter_numQ &&
       !(config.patience > 0 && stall >= config.patience);
       ++kappa) {
    if (cc.enabled && cc.every > 0 && kappa % cc.every == 0) {
      cc.save(kappa, t_current, result.t_history, queries_total(), stall,
              rng.state(), deck, static_cast<std::int64_t>(deck_pos),
              v_adv.data());
    }
    // Sampler state at the top of the iteration, so a fatal victim error
    // checkpoints a state that re-executes this iteration exactly. The deck
    // itself is copied lazily — only if this iteration's draws reshuffle it.
    const std::uint64_t rng_before = rng.state();
    const std::size_t deck_pos_before = deck_pos;
    bool deck_reshuffled = false;

    coords.clear();
    for (std::size_t c = 0; c < plan.group; ++c) {
      if (deck_pos >= deck.size()) {
        if (cc.enabled && !deck_reshuffled) deck_backup = deck;
        deck_reshuffled = true;
        rng.shuffle(deck);
        deck_pos = 0;
      }
      coords.push_back(deck[deck_pos++]);
    }

    // Both sign candidates from the pre-step values. A group that straddles
    // a reshuffle can draw a coordinate twice; it still moves by one ε.
    plus_vals.clear();
    minus_vals.clear();
    bool changed_plus = false;
    bool changed_minus = false;
    for (const auto coord : coords) {
      const float prev = v_adv.data()[coord];
      const float up = clip_pixel(prev + plan.eps, v.data()[coord], config.tau);
      const float dn = clip_pixel(prev - plan.eps, v.data()[coord], config.tau);
      if (up != prev) changed_plus = true;
      if (dn != prev) changed_minus = true;
      plus_vals.push_back(up);
      minus_vals.push_back(dn);
    }

    // Launch +ε, then build and launch −ε while the first forward is in
    // flight: candidate evaluation overlaps the perturbation bookkeeping.
    const auto launch = [&](const std::vector<float>& vals) {
      video::Video cand = q_adv;
      for (std::size_t c = 0; c < coords.size(); ++c) {
        cand.data()[coords[c]] = std::round(vals[c]);
      }
      return victim.submit(std::move(cand), ctx.m);
    };
    std::optional<Awaitable> f_plus;
    std::optional<Awaitable> f_minus;
    if (changed_plus) f_plus = launch(plus_vals);
    if (changed_minus) f_minus = launch(minus_vals);

    // Acceptance order: +ε wins if it improves (Alg. 2 line 11), −ε is
    // consulted only otherwise. A speculative −ε forward whose answer goes
    // unused already cost an async victim a query and stays counted.
    // v_adv/q_adv are committed only after a successful get(), so a fatal
    // fault leaves them at the pre-iteration state — exactly what gets
    // checkpointed.
    const auto consult = [&](Awaitable& pending,
                             const std::vector<float>& vals) {
      const double t_candidate = t_loss_from_list(pending.get(), ctx);
      if (!(t_candidate < t_current)) return false;
      t_current = t_candidate;
      for (std::size_t c = 0; c < coords.size(); ++c) {
        v_adv.data()[coords[c]] = vals[c];
        q_adv.data()[coords[c]] = std::round(vals[c]);
      }
      return true;
    };
    bool accepted = false;
    try {
      accepted = (changed_plus && consult(*f_plus, plus_vals)) ||
                 (changed_minus && consult(*f_minus, minus_vals));
    } catch (...) {
      if (cc.enabled) {
        // An accepted +ε commit before a fatal −ε get() is impossible: −ε is
        // only consulted when +ε was rejected (no commit happened).
        cc.save(kappa, t_current, result.t_history, queries_total(), stall,
                rng_before, deck_reshuffled ? deck_backup : deck,
                static_cast<std::int64_t>(deck_pos_before), v_adv.data());
      }
      throw;
    }
    result.t_history.push_back(t_current);
    stall = accepted ? 0 : stall + 1;
  }

  result.v_adv = std::move(q_adv);
  result.final_t = t_current;
  result.queries_spent = queries_total();
  cc.finished();
  return result;
}

// A synchronous BlackBoxHandle behind the driver's submit/get interface.
// submit() only stores the candidate; get() runs victim.retrieve and so
// bills it. A −ε candidate the acceptance order never consults is never
// evaluated, so the serial driver queries exactly what one-at-a-time SimBA
// would, in the same order.
struct DeferredHandle {
  struct Pending {
    retrieval::BlackBoxHandle* victim;
    video::Video candidate;
    std::size_t m;
    metrics::RetrievalList get() { return victim->retrieve(candidate, m); }
  };
  retrieval::BlackBoxHandle& victim;

  Pending submit(video::Video candidate, std::size_t m) {
    return {&victim, std::move(candidate), m};
  }
  std::int64_t query_count() const { return victim.query_count(); }
};

template <typename Handle>
ObjectiveContext make_objective_context_impl(Handle& victim,
                                             const video::Video& v,
                                             const video::Video& v_t,
                                             std::size_t m, double eta) {
  ObjectiveContext ctx;
  ctx.m = m;
  ctx.eta = eta;
  auto list_v = victim.submit(v, m);
  auto list_vt = victim.submit(v_t, m);
  ctx.list_v = list_v.get();
  ctx.list_vt = list_vt.get();
  return ctx;
}

}  // namespace

SparseQueryResult sparse_query(const video::Video& v,
                               const Perturbation& perturbation,
                               retrieval::BlackBoxHandle& victim,
                               const ObjectiveContext& ctx,
                               const SparseQueryConfig& config) {
  DeferredHandle deferred{victim};
  return sparse_query_impl(v, perturbation, deferred, ctx, config);
}

SparseQueryResult sparse_query_pipelined(const video::Video& v,
                                         const Perturbation& perturbation,
                                         serve::AsyncBlackBoxHandle& victim,
                                         const ObjectiveContext& ctx,
                                         const SparseQueryConfig& config) {
  return sparse_query_impl(v, perturbation, victim, ctx, config);
}

SparseQueryResult sparse_query_pipelined(const video::Video& v,
                                         const Perturbation& perturbation,
                                         serve::ResilientHandle& victim,
                                         const ObjectiveContext& ctx,
                                         const SparseQueryConfig& config) {
  return sparse_query_impl(v, perturbation, victim, ctx, config);
}

ObjectiveContext make_objective_context(serve::AsyncBlackBoxHandle& victim,
                                        const video::Video& v,
                                        const video::Video& v_t, std::size_t m,
                                        double eta) {
  return make_objective_context_impl(victim, v, v_t, m, eta);
}

ObjectiveContext make_objective_context(serve::ResilientHandle& victim,
                                        const video::Video& v,
                                        const video::Video& v_t, std::size_t m,
                                        double eta) {
  return make_objective_context_impl(victim, v, v_t, m, eta);
}

}  // namespace duo::attack
