#include "campaign/runner.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/async_handle.hpp"
#include "serve/clock.hpp"
#include "serve/fault_injection.hpp"
#include "serve/resilient.hpp"

namespace duo::campaign {

namespace {

// Session checkpoint path resolution: an explicit per-session path wins;
// otherwise a campaign checkpoint_dir yields "<dir>/<client_id>.ck"; neither
// means the session runs checkpoint-free.
std::string resolve_checkpoint(const CampaignManifest& manifest,
                               const SessionSpec& spec) {
  if (!spec.checkpoint.empty()) return spec.checkpoint;
  if (manifest.checkpoint_dir.empty()) return {};
  return manifest.checkpoint_dir + "/" + spec.client_id + ".ck";
}

bool wants_faults(const CampaignManifest& m) {
  return m.fault_error_prob > 0.0 || m.fault_delay_prob > 0.0 ||
         m.fault_drop_prob > 0.0 || m.fault_error_from >= 0;
}

std::chrono::milliseconds to_ms(double ms) {
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

}  // namespace

CampaignRunner::CampaignRunner(retrieval::RetrievalSystem& system,
                               const std::vector<video::Video>& roster,
                               CampaignManifest manifest,
                               models::FeatureExtractor* surrogate)
    : system_(system),
      roster_(roster),
      manifest_(std::move(manifest)),
      surrogate_(surrogate) {
  if (manifest_.sessions.empty()) {
    throw std::invalid_argument("campaign: no sessions in manifest");
  }
  if (roster_.empty()) {
    throw std::invalid_argument("campaign: empty video roster");
  }
  const auto roster_size = static_cast<std::int64_t>(roster_.size());
  for (const auto& spec : manifest_.sessions) {
    if (spec.client_id.empty()) {
      throw std::invalid_argument("campaign: session without client_id");
    }
    if (spec.role != SessionRole::kBenign) {
      if (spec.source_index < 0 || spec.source_index >= roster_size ||
          spec.target_index < 0 || spec.target_index >= roster_size) {
        throw std::invalid_argument("campaign: attack index outside roster: " +
                                    spec.client_id);
      }
    }
    if (spec.role == SessionRole::kDuo && surrogate_ == nullptr) {
      throw std::invalid_argument("campaign: duo session '" + spec.client_id +
                                  "' requires a surrogate");
    }
  }
}

CampaignOutcome CampaignRunner::run() {
  // One clock for everything — server policies, pacer, retry backoffs,
  // think-time sleeps — so a virtual-clocked campaign never wall-waits on a
  // policy decision.
  std::shared_ptr<serve::Clock> clock =
      manifest_.virtual_clock
          ? std::shared_ptr<serve::Clock>(std::make_shared<serve::VirtualClock>())
          : std::shared_ptr<serve::Clock>(std::make_shared<serve::SystemClock>());

  serve::ServerConfig scfg;
  scfg.max_batch = manifest_.max_batch;
  scfg.queue_capacity = manifest_.queue_capacity;
  scfg.clock = clock;
  scfg.admission = manifest_.admission;
  scfg.admission_threshold = manifest_.admission_threshold;
  scfg.reject_retry_after_ms = manifest_.reject_retry_after_ms;
  scfg.client_rate = manifest_.client_rate;
  scfg.client_burst = manifest_.client_burst;
  scfg.batch_timeout_ms = manifest_.batch_timeout_ms;
  scfg.degrade_high = manifest_.degrade_high;
  scfg.degrade_low = manifest_.degrade_low;
  if (wants_faults(manifest_)) {
    serve::FaultConfig fcfg;
    fcfg.error_prob = manifest_.fault_error_prob;
    fcfg.delay_prob = manifest_.fault_delay_prob;
    fcfg.drop_prob = manifest_.fault_drop_prob;
    fcfg.delay_ms = manifest_.fault_delay_ms;
    fcfg.error_from = manifest_.fault_error_from;
    fcfg.seed = manifest_.fault_seed;
    scfg.fault_injector = std::make_shared<serve::FaultInjector>(fcfg);
  }

  std::shared_ptr<serve::Pacer> pacer;
  if (manifest_.pacer_rate > 0.0) {
    serve::PacerConfig pcfg;
    pcfg.rate_per_sec = manifest_.pacer_rate;
    pcfg.burst = manifest_.pacer_burst;
    pcfg.aimd = manifest_.pacer_aimd;
    pcfg.aimd_increase = manifest_.aimd_increase;
    pcfg.aimd_decrease = manifest_.aimd_decrease;
    pcfg.aimd_floor = manifest_.aimd_floor;
    pcfg.aimd_ceiling = manifest_.aimd_ceiling;
    pacer = std::make_shared<serve::Pacer>(pcfg, clock);
  }

  if (!manifest_.checkpoint_dir.empty()) {
    std::error_code ec;  // best effort; sessions fail loudly if it matters
    std::filesystem::create_directories(manifest_.checkpoint_dir, ec);
  }

  CampaignOutcome out;
  out.sessions.resize(manifest_.sessions.size());
  const double started_ms = clock->now_ms();
  {
    serve::RetrievalServer server(system_, scfg);

    // Chaos schedule: a dedicated thread watches the campaign clock and
    // executes each manifest crash event — abrupt crash, accounting snapshot
    // (round-tripped through durable files when the campaign has a
    // checkpoint_dir, so what restart() restores is what came back off
    // disk), a downtime sleep, restart. Session outcomes are pure functions
    // of (spec, roster, gallery), so crash timing perturbs only billing
    // schedules — and the ledger still reconciles exactly.
    std::atomic<bool> sessions_done{false};
    std::int64_t crashes_survived = 0;
    std::thread chaos;
    if (!manifest_.crashes.empty()) {
      chaos = std::thread([this, &server, &sessions_done, &crashes_survived,
                           clock, started_ms] {
        for (const auto& event : manifest_.crashes) {
          // The campaign clock only moves when some thread sleeps on it
          // (virtual runs), so poll in real time rather than sleeping on the
          // clock — a clocked wait here would itself advance virtual time.
          while (!sessions_done.load(std::memory_order_acquire) &&
                 clock->now_ms() - started_ms < event.at_ms) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          if (sessions_done.load(std::memory_order_acquire)) break;
          server.crash();
          serve::ServerSnapshot snap = server.snapshot();
          if (!manifest_.checkpoint_dir.empty()) {
            const std::string snap_path =
                manifest_.checkpoint_dir + "/server.snap";
            const std::string index_path =
                manifest_.checkpoint_dir + "/gallery.idx";
            if (serve::save_snapshot(snap, snap_path) &&
                system_.save_gallery_index(index_path)) {
              serve::ServerSnapshot loaded;
              if (serve::load_snapshot(loaded, snap_path) &&
                  system_.load_gallery_index(index_path)) {
                snap = loaded;
              }
            }
          }
          clock->sleep_ms(event.restart_after_ms);
          server.restart(snap);
          ++crashes_survived;
        }
      });
    }

    std::vector<std::thread> threads;
    threads.reserve(manifest_.sessions.size());
    for (std::size_t i = 0; i < manifest_.sessions.size(); ++i) {
      threads.emplace_back([this, i, &server, &out, pacer, clock] {
        SessionSpec spec = manifest_.sessions[i];
        spec.checkpoint = resolve_checkpoint(manifest_, spec);

        serve::RequestOptions options;
        options.client_id = spec.client_id;
        options.ttl_ms = spec.ttl_ms;
        serve::AsyncBlackBoxHandle async(server, options);

        serve::RetryPolicy policy;
        policy.submit_deadline = to_ms(manifest_.submit_deadline_ms);
        policy.query_timeout = to_ms(manifest_.query_timeout_ms);
        policy.max_attempts = manifest_.max_attempts;
        policy.circuit_threshold = manifest_.circuit_threshold;
        policy.circuit_cooldown_ms = manifest_.circuit_cooldown_ms;
        // Per-session jitter stream: deterministic in (campaign, session)
        // seeds, distinct across sessions (Knuth multiplicative mix).
        policy.seed =
            (manifest_.seed ^ spec.seed) * 0x9E3779B97F4A7C15ULL + 1;
        serve::ResilientHandle victim(async, policy, pacer, clock);

        out.sessions[i] =
            run_session(spec, roster_, victim, *clock, surrogate_);
      });
    }
    for (auto& t : threads) t.join();
    sessions_done.store(true, std::memory_order_release);
    if (chaos.joinable()) chaos.join();
    out.crashes_survived = crashes_survived;

    out.elapsed_ms = clock->now_ms() - started_ms;
    if (pacer != nullptr) {
      out.pacer_granted = pacer->granted();
      out.pacer_waits = pacer->waits();
      out.pacer_waited_ms = pacer->waited_ms();
      out.pacer_tokens_available = pacer->tokens_available();
      out.pacer_final_rate = pacer->current_rate();
      out.pacer_rate_increases = pacer->rate_increases();
      out.pacer_rate_decreases = pacer->rate_decreases();
    }
    server.shutdown();
    out.server = server.stats();
  }

  out.fairness = summarize_fairness(out.server);
  out.requests_lost = out.server.requests_lost;
  for (const auto& s : out.sessions) out.queries_replayed += s.reconnects;
  for (const auto& s : out.sessions) out.client_billed += s.queries_billed;
  out.server_billed = out.server.billed();
  // Client-side billing counts accepted submissions; every accepted request
  // terminates as exactly one of served/faulted/expired/shed, so the two
  // sides must agree — and the client entries must sum to the globals.
  out.ledger_ok =
      out.client_billed == out.server_billed && out.fairness.ledger_ok;
  return out;
}

}  // namespace duo::campaign
