// Campaign soak: runs every committed manifest under bench/soaks/<scale>/
// through CampaignRunner and applies the checks the manifest's own keys
// call for:
//
//   every run           the billing ledger reconciles: client-side billed ==
//                       served + faulted + expired + shed, globally and per
//                       client;
//   a completed run     bills at least one query per logical query, and its
//                       per-session outcomes (answer-stream hashes, attack
//                       video hashes and T trajectories) are bitwise equal
//                       to a reference run of the same manifest on a healthy
//                       victim (faults, kill and crashes cleared);
//   fault_error_from    the victim dies mid-run, so the run must end
//                       incomplete; rerunning the manifest with the kill
//                       cleared must resume every session from its
//                       checkpoint to the reference outcomes;
//   crash_at_ms         the run survives exactly the listed crash/restart
//                       cycles (epoch = cycles + 1), replays at least every
//                       request a crash lost, and leaves the durable
//                       server.snap and gallery.idx in checkpoint_dir;
//   pacer_aimd 1        the run bills no more than the same manifest with a
//                       static pacer.
//
// Committed scenarios: fault (resilient readers vs 10% mixed faults),
// overload (paced readers vs rate limits, shedding, deadlines and faults),
// campaign (attack + benign sessions killed mid-run and resumed) and crash
// (the same mix across two victim crash/restart cycles). Each runs against
// an untrained C3D victim over a small synthetic gallery seeded by the
// manifest's `seed`: fault, overload and crash handling depend on the
// serving path, not on feature quality.
//
//   ./build/bench/campaign_soak            # quick scale: bench/soaks/quick
//   ./build/bench/campaign_soak --smoke    # CI smoke pass: bench/soaks/smoke
//
// Exits nonzero on any failed check.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "campaign/runner.hpp"
#include "common/stopwatch.hpp"

using namespace duo;
namespace fs = std::filesystem;

namespace {

bool same_outcomes(const campaign::CampaignOutcome& a,
                   const campaign::CampaignOutcome& b) {
  if (a.sessions.size() != b.sessions.size()) return false;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const auto& sa = a.sessions[i];
    const auto& sb = b.sessions[i];
    if (!sa.completed || !sb.completed) return false;
    if (sa.outcome_hash != sb.outcome_hash || sa.final_t != sb.final_t ||
        sa.t_history != sb.t_history) {
      std::fprintf(stderr, "outcome mismatch: %s\n", sa.client_id.c_str());
      return false;
    }
  }
  return true;
}

std::int64_t logical_queries(const campaign::CampaignOutcome& out) {
  std::int64_t total = 0;
  for (const auto& s : out.sessions) total += s.logical_queries;
  return total;
}

// Runs one manifest and every run its keys call for, adding a row per run
// to `table`. Returns false if any check failed.
bool soak(const campaign::CampaignManifest& m, bool smoke, TableWriter& table) {
  bench::SoakWorld world = bench::make_soak_world(smoke, m.seed);
  bool ok = true;
  const auto expect = [&](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "CAMPAIGN SOAK FAILED (%s): %s\n", m.name.c_str(),
                   what.c_str());
      ok = false;
    }
  };
  const auto run = [&](const campaign::CampaignManifest& spec,
                       const std::string& label) {
    Stopwatch wall;
    campaign::CampaignOutcome out =
        campaign::CampaignRunner(*world.system, world.dataset.test, spec).run();
    const serve::ServerStats& sv = out.server;
    table.add_row({m.name, label,
                   std::string(out.all_completed() ? "yes" : "no"),
                   static_cast<long long>(logical_queries(out)),
                   static_cast<long long>(out.client_billed),
                   static_cast<long long>(sv.faults_injected),
                   static_cast<long long>(sv.requests_throttled),
                   static_cast<long long>(sv.requests_shed),
                   static_cast<long long>(sv.requests_expired),
                   static_cast<long long>(out.requests_lost),
                   static_cast<long long>(out.queries_replayed),
                   static_cast<long long>(sv.server_epoch),
                   out.pacer_final_rate, wall.elapsed_ms()});
    expect(out.ledger_ok,
           label + ": ledger mismatch (client " +
               std::to_string(out.client_billed) + " vs server " +
               std::to_string(out.server_billed) + ")");
    return out;
  };

  campaign::CampaignManifest healthy = m;
  healthy.fault_error_prob = 0.0;
  healthy.fault_delay_prob = 0.0;
  healthy.fault_drop_prob = 0.0;
  healthy.fault_error_from = -1;
  healthy.crashes.clear();
  healthy.checkpoint_dir.clear();
  const campaign::CampaignOutcome reference = run(healthy, "reference");
  const auto expect_reference = [&](const campaign::CampaignOutcome& out,
                                    const std::string& label) {
    expect(out.all_completed(), label + ": a session did not complete");
    expect(out.client_billed >= logical_queries(out),
           label + ": billed fewer queries than logical");
    expect(same_outcomes(reference, out),
           label + ": outcomes diverge from the healthy reference");
  };
  expect_reference(reference, "reference");

  const auto clear_checkpoints = [&] {
    if (!m.checkpoint_dir.empty()) fs::remove_all(m.checkpoint_dir);
  };
  clear_checkpoints();
  const campaign::CampaignOutcome soaked = run(m, "soak");
  if (m.fault_error_from >= 0) {
    expect(!soaked.all_completed(),
           "the killed run finished unscathed (fault_error_from too high?)");
    campaign::CampaignManifest resume = m;
    resume.fault_error_from = -1;
    const campaign::CampaignOutcome resumed = run(resume, "resumed");
    expect(same_outcomes(reference, resumed),
           "resumed outcomes diverge from the healthy reference");
  } else {
    expect_reference(soaked, "soak");
  }

  if (!m.crashes.empty()) {
    const auto cycles = static_cast<std::int64_t>(m.crashes.size());
    expect(soaked.crashes_survived == cycles,
           std::to_string(soaked.crashes_survived) + " crash/restart cycles, " +
               std::to_string(cycles) + " scheduled");
    expect(soaked.server.server_epoch == cycles + 1,
           "epoch " + std::to_string(soaked.server.server_epoch) + " after " +
               std::to_string(cycles) + " restarts");
    expect(soaked.queries_replayed >= soaked.requests_lost,
           std::to_string(soaked.requests_lost) + " requests lost but " +
               std::to_string(soaked.queries_replayed) + " replayed");
    expect(fs::exists(m.checkpoint_dir + "/server.snap") &&
               fs::exists(m.checkpoint_dir + "/gallery.idx"),
           "durable server.snap / gallery.idx missing from checkpoint_dir");
  }

  if (m.pacer_aimd) {
    campaign::CampaignManifest fixed = m;
    fixed.pacer_aimd = false;
    clear_checkpoints();
    const campaign::CampaignOutcome fixed_run = run(fixed, "static");
    expect_reference(fixed_run, "static");
    expect(soaked.client_billed <= fixed_run.client_billed,
           "AIMD billed " + std::to_string(soaked.client_billed) +
               " > static " + std::to_string(fixed_run.client_billed));
  }
  clear_checkpoints();
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = bench::scale_from_env() == bench::Scale::kSmoke;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const fs::path dir =
      fs::path(DUO_SOAK_MANIFEST_DIR) / (smoke ? "smoke" : "quick");
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "CAMPAIGN SOAK FAILED: no manifests in %s\n",
                 dir.c_str());
    return 1;
  }

  TableWriter table(std::string("Campaign soak: committed manifests (") +
                    (smoke ? "smoke" : "quick") + ")");
  table.set_header({"manifest", "run", "done", "logical", "billed", "faulted",
                    "throttled", "shed", "expired", "lost", "replayed",
                    "epoch", "pacer_rate", "wall_ms"});
  table.set_precision(1);
  Stopwatch wall;
  bool ok = true;
  for (const auto& file : files) {
    campaign::CampaignManifest m;
    if (!campaign::load_manifest(m, file.string())) {
      std::fprintf(stderr, "CAMPAIGN SOAK FAILED: cannot load %s\n",
                   file.c_str());
      ok = false;
      continue;
    }
    ok = soak(m, smoke, table) && ok;
  }

  bench::emit(table, "campaign_soak.csv");
  bench::print_paper_note(
      "No paper counterpart: soaks the serve and campaign stack a "
      "query-budgeted attacker runs against (faults, overload pushback, a "
      "victim killed mid-run, crash/restart cycles). Every completed run "
      "must reproduce the healthy victim's per-session outcomes bitwise, "
      "and every run's billing ledger must reconcile.");
  std::printf("campaign soak %s: %zu manifests in %.1f s\n",
              ok ? "OK" : "FAILED", files.size(), wall.elapsed_seconds());
  return ok ? 0 : 1;
}
