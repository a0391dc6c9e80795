#pragma once

// Campaign manifest: the declarative spec of a mixed-traffic campaign — one
// RetrievalServer victim, N attack sessions, M benign query streams — that
// campaign::CampaignRunner executes. The manifest is plain text ("key value"
// lines, one session block per client) so a campaign is diffable, editable,
// and committable next to its results; save_manifest writes it through
// models::io::atomic_write (never a torn file) and load_manifest parses it
// back to an identical manifest (doubles print with %.17g, so the round trip
// is exact — pinned by tests/test_campaign.cpp).
//
// Format:
//
//   # comment
//   campaign soak-a
//   seed 7
//   virtual_clock 1
//   max_batch 8
//   ...global server / fault / client-policy keys...
//   session attacker-0
//   role sparse
//   seed 11
//   iterations 40
//   ...per-session keys...
//   session reader-0
//   role benign
//   queries 32
//
// `session <client_id>` opens a block; every later key applies to that
// session until the next `session` line. Keys before the first session are
// campaign-global. Unknown keys and malformed values fail the parse (typos
// must not silently reconfigure a campaign): a number must parse whole as
// its field's type and fit its range ("1e3" is not an int, "-5" is not a
// seed), reals must be finite, every `_ms` duration must lie within
// ±kMaxDurationMs, and the 0/1 flags take nothing else.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/admission.hpp"

namespace duo::campaign {

// Largest magnitude any `_ms` manifest key accepts: 10^9 ms, about 11.6
// days. Far below the ~9.2e12 ms at which a std::chrono nanosecond
// conversion of the value (as in future::wait_for) overflows int64.
inline constexpr double kMaxDurationMs = 1e9;

// What a session does with its client thread.
enum class SessionRole {
  kBenign,  // seeded query mix: `queries` retrievals over the roster
  kSparse,  // sparse_query_pipelined from a seeded random support
  kDuo,     // full DuoAttack (needs the runner's surrogate)
};

const char* role_name(SessionRole role);
bool role_from_name(const std::string& name, SessionRole& role);

// One client of the campaign. Attack sessions read their source/target
// videos from the campaign roster by index; benign sessions draw query
// indices from their seeded stream.
struct SessionSpec {
  std::string client_id;
  SessionRole role = SessionRole::kBenign;
  std::uint64_t seed = 1;
  std::size_t m = 10;
  // Per-request freshness budget (RequestOptions::ttl_ms); 0 = no deadline.
  double ttl_ms = 0.0;
  // Benign arrival process: mean think time between queries, exponentially
  // distributed from the session seed. 0 = closed loop (back-to-back).
  double think_ms = 0.0;
  int queries = 32;     // benign: stream length
  int iterations = 40;  // sparse/duo: SparseQueryConfig::iter_numQ
  int rounds = 2;       // duo: DuoConfig::iter_numH
  // Sparse support size (pixels per frame / frames); 0 = geometry default.
  std::int64_t support_k = 0;
  std::int64_t support_n = 3;
  // Roster indices of the attack's source and target videos (benign ignores).
  std::int64_t source_index = 0;
  std::int64_t target_index = 1;
  // Per-session checkpoint path. Empty + a campaign checkpoint_dir =
  // "<checkpoint_dir>/<client_id>.ck"; empty + no dir = no checkpointing.
  std::string checkpoint;

  friend bool operator==(const SessionSpec&, const SessionSpec&) = default;
};

// Scheduled victim crash: at `at_ms` of campaign clock time the server
// crashes abruptly (queued and in-flight requests die with
// ServeError{kConnectionLost}); `restart_after_ms` later it restarts from
// its accounting snapshot (round-tripped through durable files when the
// campaign has a checkpoint_dir). In the manifest, `crash_at_ms <t>` opens
// a new event and an optional following `restart_after_ms <d>` sets its
// downtime; crash times must be positive and strictly increasing.
struct CrashEvent {
  double at_ms = 0.0;
  double restart_after_ms = 5.0;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

// The whole campaign: victim/server config, fault schedule, shared client
// policy, and the session roster.
struct CampaignManifest {
  std::string name = "campaign";
  std::uint64_t seed = 1;
  // Drive server, pacer, retries, and deadlines on one VirtualClock (the
  // deterministic default) instead of wall time.
  bool virtual_clock = true;

  // Server knobs (serve::ServerConfig).
  std::size_t max_batch = 8;
  std::size_t queue_capacity = 64;
  serve::AdmissionPolicy admission = serve::AdmissionPolicy::kBlock;
  double admission_threshold = 1.0;
  double reject_retry_after_ms = 5.0;
  double client_rate = 0.0;  // per-client_id token bucket; 0 = off
  double client_burst = 4.0;
  // Latency-aware batching timeout (ServerConfig::batch_timeout_ms); 0 =
  // drain immediately.
  double batch_timeout_ms = 0.0;
  // Graceful-degradation ladder (ServerConfig::degrade_high/degrade_low);
  // degrade_high 0 = disabled.
  double degrade_high = 0.0;
  double degrade_low = 0.25;

  // Fault schedule (serve::FaultConfig); all zero/disabled = healthy victim.
  double fault_error_prob = 0.0;
  double fault_delay_prob = 0.0;
  double fault_drop_prob = 0.0;
  double fault_delay_ms = 5.0;
  std::int64_t fault_error_from = -1;  // victim dies at this arrival index
  std::uint64_t fault_seed = 1;

  // Shared client-side pacer ("one API key"); 0 = no pacer.
  double pacer_rate = 0.0;
  double pacer_burst = 4.0;
  // AIMD closed-loop pacing (serve::PacerConfig): when on, pacer_rate is
  // only the initial rate and the loop converges on the victim's limit.
  bool pacer_aimd = false;
  double aimd_increase = 4.0;
  double aimd_decrease = 0.5;
  double aimd_floor = 0.1;
  double aimd_ceiling = 1e6;

  // Client retry policy (serve::RetryPolicy), shared shape across sessions;
  // each session's jitter stream is reseeded from its own seed.
  int max_attempts = 10;
  double query_timeout_ms = 250.0;
  double submit_deadline_ms = 250.0;
  int circuit_threshold = 0;
  double circuit_cooldown_ms = 100.0;

  // Default directory for per-session checkpoints (created on demand).
  std::string checkpoint_dir;

  // Scheduled crash/restart cycles the runner executes (chaos schedule).
  std::vector<CrashEvent> crashes;

  std::vector<SessionSpec> sessions;

  friend bool operator==(const CampaignManifest&,
                         const CampaignManifest&) = default;
};

// Stream forms, for embedding in other formats and for tests.
void write_manifest(std::ostream& out, const CampaignManifest& manifest);
bool parse_manifest(std::istream& in, CampaignManifest& manifest);

// File forms. save_manifest commits atomically (models::io::atomic_write);
// load_manifest returns false on I/O failure or any malformed line.
bool save_manifest(const CampaignManifest& manifest, const std::string& path);
bool load_manifest(CampaignManifest& manifest, const std::string& path);

}  // namespace duo::campaign
