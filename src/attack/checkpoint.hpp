#pragma once

// Checkpoint/resume for long-running query attacks. A paper-scale attack
// spends thousands of victim queries; when the victim faults unrecoverably
// (or the attacking process is killed), restarting from scratch re-bills the
// whole budget. These checkpoints capture the full deterministic state of a
// SparseQuery run (working video, support cursor, Rng state, t_history,
// query accounting) and of the DUO outer loop (round index, current base
// video, carried masks), so a resumed attack continues exactly where it
// stopped and finishes with a final adversarial video bitwise identical to
// an uninterrupted run.
//
// Format notes: binary, host byte order, written atomically (tmp + rename,
// models::io::atomic_write) so a crash mid-checkpoint never corrupts the
// previous one. Every checkpoint embeds a fingerprint of the inputs it was
// taken against (geometry, seed, source-video hash); load_* rejects a
// checkpoint whose fingerprint does not match, returning false so the
// caller falls back to a fresh start.

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "video/video.hpp"

namespace duo::attack {

// Full state of the Alg. 2 driver at the top of iteration `next_iteration`
// (before that iteration's coordinate draw). sparse_query and
// sparse_query_pipelined run the same loop and write the same state, so a
// run killed in one overload resumes in either.
struct SparseQueryCheckpoint {
  // Fingerprint — binds the checkpoint to (v, perturbation support, config).
  video::VideoGeometry geometry;
  std::uint64_t seed = 0;
  std::int64_t support_size = 0;
  std::uint64_t source_hash = 0;  // fnv1a of the source video's pixels

  // Progress.
  std::int64_t next_iteration = 1;  // kappa to execute next
  double t_current = 0.0;
  std::vector<double> t_history;
  std::int64_t queries = 0;  // victim queries billed so far (all processes)
  std::int64_t stall = 0;    // consecutive rejected iterations (patience)

  // Sampler state: the without-replacement deck, the cursor into it, and the
  // raw Rng state, captured before the next iteration's draws.
  std::uint64_t rng_state = 0;
  std::vector<std::int64_t> deck;
  std::int64_t deck_pos = 0;

  // The unquantized working video v_adv (the quantized shadow is recomputed
  // on load).
  Tensor v_adv;
};

bool save_checkpoint(const SparseQueryCheckpoint& ck, const std::string& path);
bool load_checkpoint(SparseQueryCheckpoint& ck, const std::string& path);

// State of DuoAttack::run at the top of outer round `next_round`: the round
// input v_cur, the {I, F} masks seeding the round's SparseTransfer (absent
// for round 0), the t_history accumulated over completed rounds, and the
// queries billed for completed rounds plus every process's objective-context
// fetches. The checkpoint also carries the objective context's reference
// lists R^m(v) / R^m(v_t), so a resumed process restores them instead of
// re-billing the 2-query fetch. Mid-round progress lives in the round's own
// SparseQueryCheckpoint (DuoAttack derives a per-round path).
struct DuoCheckpoint {
  video::VideoGeometry geometry;
  std::uint64_t source_hash = 0;
  std::int64_t iter_numH = 0;

  std::int64_t next_round = 0;
  std::vector<double> t_history;
  std::int64_t queries = 0;

  // Objective context (attack/objective.hpp): the two reference retrieval
  // lists, already paid for by the process that fetched them.
  bool has_ctx = false;
  std::vector<std::int64_t> list_v;   // valid when has_ctx
  std::vector<std::int64_t> list_vt;  // valid when has_ctx

  Tensor v_cur;
  bool has_init = false;
  Tensor pixel_mask;  // valid when has_init
  Tensor frame_mask;  // valid when has_init
};

bool save_checkpoint(const DuoCheckpoint& ck, const std::string& path);
bool load_checkpoint(DuoCheckpoint& ck, const std::string& path);

}  // namespace duo::attack
