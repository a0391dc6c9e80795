#pragma once

// SparseQuery (Algorithm 2): SimBA-style query attack restricted to the
// support of φ = I ⊙ F ⊙ θ. Each iteration samples a Cartesian-basis
// direction q from the support without replacement (Eq. 4 zeroes directions
// outside the support) and tries ±ε steps, keeping whichever decreases the
// ranking loss T (Eq. 2 / Eq. 3).
//
// One driver runs every overload below. Each step builds both the +ε and the
// −ε candidate from the pre-step video, submits both, and consults +ε first
// and −ε only if +ε did not improve T. The overloads differ only in what
// submit means: an async handle starts the victim forward at once, so both
// candidates are in flight together; the synchronous BlackBoxHandle defers
// the query until the candidate is consulted, so serial runs evaluate −ε
// only when +ε was rejected. For the same seed and config all overloads
// accept the same perturbations, so t_history and the final v_adv are
// bitwise identical across them; only queries_spent differs.

#include <cstdint>
#include <string>
#include <vector>

#include "attack/objective.hpp"
#include "attack/perturbation.hpp"
#include "retrieval/system.hpp"
#include "serve/async_handle.hpp"
#include "serve/resilient.hpp"
#include "video/video.hpp"

namespace duo::attack {

struct SparseQueryConfig {
  int iter_numQ = 300;  // paper default 1,000; quick-scale default 300
  float tau = 30.0f;    // keeps ‖v_adv − v‖∞ ≤ τ (matches Eq. 1)
  std::size_t m = 10;
  double eta = 1.0;
  std::uint64_t seed = 17;
  // Coordinates flipped together per query step. The paper samples single
  // Cartesian basis vectors (= 1); at miniature geometry a one-pixel step
  // cannot move the feature across any ranking boundary, so the bench scale
  // groups several support coordinates into one step (0 = adaptive:
  // support/12, clamped to [1, 64]). Grouped steps still satisfy Eq. 4 —
  // every touched coordinate lies in the support of I⊙F⊙θ.
  int coords_per_step = 0;
  // Stop early after this many consecutive rejected iterations (0 = never).
  int patience = 0;

  // Checkpoint/resume (attack/checkpoint.hpp). With a non-empty
  // checkpoint_path the driver atomically saves its full state every
  // checkpoint_every iterations and — crucially — right before rethrowing a
  // fatal victim error, so no billed query is ever more than one iteration
  // from a durable record. With resume = true a matching checkpoint (same
  // geometry, seed, support size, and source-video hash) is restored and the
  // run continues from it; a missing or mismatched checkpoint falls back to
  // a fresh start. A resumed run finishes with the same final video and
  // t_history as an uninterrupted one, and queries_spent counts the billed
  // queries of every contributing process.
  std::string checkpoint_path;
  int checkpoint_every = 25;
  bool resume = false;
  // Checkpoint GC: delete the checkpoint file after a clean finish, so long
  // campaigns do not accumulate stale state. Interrupted runs (fatal victim
  // error, process kill) always keep theirs — the file is removed only on
  // the successful-return path.
  bool remove_on_success = false;
};

struct SparseQueryResult {
  video::Video v_adv;
  std::vector<double> t_history;  // T after each iteration (Fig. 5 series)
  std::int64_t queries_spent = 0;
  double final_t = 0.0;
};

// Runs Algorithm 2 starting from v_adv⁰ = v + φ. `ctx` carries the reference
// lists R^m(v) and R^m(v_t). One query per consulted candidate, in order.
SparseQueryResult sparse_query(const video::Video& v,
                               const Perturbation& perturbation,
                               retrieval::BlackBoxHandle& victim,
                               const ObjectiveContext& ctx,
                               const SparseQueryConfig& config);

// The same loop against an asynchronously served victim: both candidate
// forwards run concurrently, hiding victim latency. Query accounting is
// honest: a speculative −ε forward counts even when the +ε candidate is
// accepted and its answer goes unused, so queries_spent is ≥ the serial
// count.
SparseQueryResult sparse_query_pipelined(const video::Video& v,
                                         const Perturbation& perturbation,
                                         serve::AsyncBlackBoxHandle& victim,
                                         const ObjectiveContext& ctx,
                                         const SparseQueryConfig& config);

// The same loop through the retrying client policy
// (serve/resilient.hpp): transient victim faults are absorbed by retries —
// against a deterministic victim the answers, and therefore the final video,
// stay bitwise identical to a fault-free run; only queries_spent (victim-side
// billing, retries included) and wall time grow. Fatal faults propagate as
// serve::ServeError after a best-effort checkpoint (when configured).
SparseQueryResult sparse_query_pipelined(const video::Video& v,
                                         const Perturbation& perturbation,
                                         serve::ResilientHandle& victim,
                                         const ObjectiveContext& ctx,
                                         const SparseQueryConfig& config);

// Async twin of make_objective_context (attack/objective.hpp): fetches
// R^m(v) and R^m(v_t) with both queries in flight at once.
ObjectiveContext make_objective_context(serve::AsyncBlackBoxHandle& victim,
                                        const video::Video& v,
                                        const video::Video& v_t, std::size_t m,
                                        double eta = 1.0);

// Same, through the retry policy.
ObjectiveContext make_objective_context(serve::ResilientHandle& victim,
                                        const video::Video& v,
                                        const video::Video& v_t, std::size_t m,
                                        double eta = 1.0);

}  // namespace duo::attack
