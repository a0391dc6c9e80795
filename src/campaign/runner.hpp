#pragma once

// CampaignRunner: executes a CampaignManifest — one RetrievalServer victim,
// one thread per session (attack or benign), an optional shared client-side
// Pacer, rate limiting / admission / faults per the manifest — and collects
// the per-session results, the server's per-client breakdown, and the
// fairness summary into a CampaignOutcome.
//
// Clocking: with manifest.virtual_clock (the default) the server, pacer,
// every ResilientHandle, and every think-time sleep share one VirtualClock,
// so the campaign's policy decisions never wall-wait. Outcome determinism
// follows the session contract (campaign/session.hpp): per-session outcomes
// are bitwise reproducible across runs, DUO_THREADS settings, and
// kill/resume points; billing attribution is schedule-dependent but the
// campaign ledger reconciles exactly (CampaignOutcome::ledger_ok, checked
// both client-side vs server-side and per-client vs global).
//
// Kill/resume: run a manifest whose victim dies mid-campaign
// (fault_error_from + circuit_threshold), then run the SAME manifest again
// against a healthy victim — every session resumes from its checkpoint
// (manifest.checkpoint_dir or per-session paths) and the resumed campaign's
// per-session outcomes are bitwise identical to an uninterrupted campaign's
// (tests/test_campaign.cpp pins this, the ISSUE 8 acceptance criterion).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/fairness.hpp"
#include "campaign/manifest.hpp"
#include "campaign/session.hpp"
#include "models/feature_extractor.hpp"
#include "retrieval/system.hpp"
#include "serve/server.hpp"
#include "video/video.hpp"

namespace duo::campaign {

struct CampaignOutcome {
  std::vector<SessionResult> sessions;  // manifest order
  serve::ServerStats server;
  FairnessSummary fairness;

  // Ledger: Σ session queries_billed (client-side, this run) must equal the
  // server-side serve::Ledger::billed(). ledger_ok also folds in the
  // per-client reconciliation (FairnessSummary).
  std::int64_t client_billed = 0;
  std::int64_t server_billed = 0;
  bool ledger_ok = false;

  double elapsed_ms = 0.0;  // campaign-clock time, start → all joined

  // Shared-pacer observability (zeroes when the manifest has no pacer).
  std::int64_t pacer_granted = 0;
  std::int64_t pacer_waits = 0;
  double pacer_waited_ms = 0.0;
  double pacer_tokens_available = 0.0;
  // AIMD observability: the shared rate when the campaign ended (the
  // discovered limit estimate) and the step counts that got it there.
  // final rate == pacer_rate when AIMD is off.
  double pacer_final_rate = 0.0;
  std::int64_t pacer_rate_increases = 0;
  std::int64_t pacer_rate_decreases = 0;

  // Crash-recovery observability (all zero without a crash schedule).
  // crashes_survived counts executed crash/restart cycles; queries_replayed
  // is the total of per-session reconnect resubmissions (each one a query
  // replayed across a restart); requests_lost is the server-side count of
  // accepted requests that died in a crash (subset of faults, so the ledger
  // reconciles unchanged).
  std::int64_t crashes_survived = 0;
  std::int64_t queries_replayed = 0;
  std::int64_t requests_lost = 0;

  bool all_completed() const noexcept {
    for (const auto& s : sessions) {
      if (!s.completed) return false;
    }
    return true;
  }
};

class CampaignRunner {
 public:
  // `system` is the victim backend (server takes exclusive use while the
  // campaign runs); `roster` provides benign query material and attack
  // source/target videos; `surrogate` is required iff any session role is
  // kDuo. All three must outlive the runner. Throws std::invalid_argument
  // for an unrunnable manifest (no sessions, empty roster, out-of-range
  // attack indices, duo without surrogate).
  CampaignRunner(retrieval::RetrievalSystem& system,
                 const std::vector<video::Video>& roster,
                 CampaignManifest manifest,
                 models::FeatureExtractor* surrogate = nullptr);

  // Executes the campaign: starts the server, runs every session on its own
  // thread, joins, shuts the server down, reconciles the ledger. Re-runnable
  // (each run builds a fresh server); resuming a killed campaign is exactly
  // "run the same manifest again".
  CampaignOutcome run();

  const CampaignManifest& manifest() const noexcept { return manifest_; }

 private:
  retrieval::RetrievalSystem& system_;
  const std::vector<video::Video>& roster_;
  CampaignManifest manifest_;
  models::FeatureExtractor* surrogate_;
};

}  // namespace duo::campaign
