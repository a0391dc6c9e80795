// Campaign subsystem tests: manifest round-trip, mixed-traffic ledger
// reconciliation, the ISSUE kill-and-resume acceptance campaign, thread-count
// determinism, and duo-session equivalence against a direct DuoAttack run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "attack/duo.hpp"
#include "campaign/fairness.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "common/thread_pool.hpp"
#include "fixtures.hpp"
#include "models/serialization.hpp"
#include "retrieval/system.hpp"

namespace duo {
namespace {

using campaign::CampaignManifest;
using campaign::CampaignOutcome;
using campaign::CampaignRunner;
using campaign::SessionRole;
using campaign::SessionSpec;

template <typename Fn>
auto with_compute_threads(std::size_t threads, Fn&& fn) {
  const testing::PinnedComputePool pinned(threads);
  return fn();
}

// Fresh per-test scratch directory for campaign checkpoints.
std::string scratch_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "duo_campaign_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

const std::vector<video::Video>& roster() {
  return testing::TinyWorld::instance().dataset.test;
}

SessionSpec benign_spec(const std::string& id, std::uint64_t seed, int queries,
                        double think_ms = 0.0) {
  SessionSpec s;
  s.client_id = id;
  s.role = SessionRole::kBenign;
  s.seed = seed;
  s.m = 6;
  s.queries = queries;
  s.think_ms = think_ms;
  return s;
}

SessionSpec sparse_spec(const std::string& id, std::uint64_t seed,
                        int iterations, std::int64_t source,
                        std::int64_t target) {
  SessionSpec s;
  s.client_id = id;
  s.role = SessionRole::kSparse;
  s.seed = seed;
  s.m = 8;
  s.iterations = iterations;
  s.support_k = 60;
  s.support_n = 3;
  s.source_index = source;
  s.target_index = target;
  return s;
}

SessionSpec duo_spec(const std::string& id, std::uint64_t seed, int iterations,
                     int rounds, std::int64_t source, std::int64_t target) {
  SessionSpec s;
  s.client_id = id;
  s.role = SessionRole::kDuo;
  s.seed = seed;
  s.m = 8;
  s.iterations = iterations;
  s.rounds = rounds;
  s.support_k = 60;
  s.support_n = 2;
  s.source_index = source;
  s.target_index = target;
  return s;
}

// Shared retry shape for served campaigns: no circuit breaker (a fatal kill
// is detected by retry exhaustion, which checkpoints deterministically) and
// enough attempts that 5% transient faults never exhaust the budget.
void harden_policies(CampaignManifest& m) {
  m.max_attempts = 8;
  m.circuit_threshold = 0;
  m.query_timeout_ms = 5000.0;
  m.submit_deadline_ms = 5000.0;
}

void expect_same_outcomes(const CampaignOutcome& a, const CampaignOutcome& b,
                          const char* what) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size()) << what;
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    const auto& sa = a.sessions[i];
    const auto& sb = b.sessions[i];
    EXPECT_EQ(sa.client_id, sb.client_id) << what;
    EXPECT_TRUE(sa.completed) << what << ": " << sa.client_id << " "
                              << sa.error;
    EXPECT_TRUE(sb.completed) << what << ": " << sb.client_id << " "
                              << sb.error;
    EXPECT_EQ(sa.outcome_hash, sb.outcome_hash)
        << what << ": " << sa.client_id;
    EXPECT_EQ(sa.final_t, sb.final_t) << what << ": " << sa.client_id;
    if (sa.t_history.size() != sb.t_history.size()) {
      std::ostringstream dbg;
      dbg << "a:";
      for (double t : sa.t_history) dbg << " " << t;
      dbg << "\nb:";
      for (double t : sb.t_history) dbg << " " << t;
      ADD_FAILURE() << what << ": " << sa.client_id << "\n" << dbg.str();
      continue;
    }
    ASSERT_EQ(sa.t_history.size(), sb.t_history.size())
        << what << ": " << sa.client_id;
    for (std::size_t j = 0; j < sa.t_history.size(); ++j) {
      EXPECT_EQ(sa.t_history[j], sb.t_history[j])
          << what << ": " << sa.client_id << " iter " << j;
    }
  }
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

CampaignManifest full_manifest() {
  CampaignManifest m;
  m.name = "roundtrip";
  m.seed = 99;
  m.virtual_clock = false;
  m.max_batch = 5;
  m.queue_capacity = 33;
  m.admission = serve::AdmissionPolicy::kShed;
  m.admission_threshold = 0.75;
  m.reject_retry_after_ms = 7.25;
  m.client_rate = 123.5;
  m.client_burst = 3.0;
  m.batch_timeout_ms = 1.75;
  m.degrade_high = 0.875;
  m.degrade_low = 0.375;
  m.fault_error_prob = 0.05;
  m.fault_delay_prob = 0.125;
  m.fault_drop_prob = 0.0625;
  m.fault_delay_ms = 2.5;
  m.fault_error_from = 42;
  m.fault_seed = 17;
  m.pacer_rate = 456.125;
  m.pacer_burst = 6.0;
  m.pacer_aimd = true;
  m.aimd_increase = 2.5;
  m.aimd_decrease = 0.625;
  m.aimd_floor = 0.25;
  m.aimd_ceiling = 5000.0;
  m.max_attempts = 11;
  m.query_timeout_ms = 321.5;
  m.submit_deadline_ms = 222.25;
  m.circuit_threshold = 4;
  m.circuit_cooldown_ms = 55.5;
  m.checkpoint_dir = "ck/dir";
  campaign::CrashEvent first_crash;
  first_crash.at_ms = 40.0;
  first_crash.restart_after_ms = 5.0;
  campaign::CrashEvent second_crash;
  second_crash.at_ms = 90.5;
  second_crash.restart_after_ms = 2.25;
  m.crashes = {first_crash, second_crash};

  SessionSpec b = benign_spec("reader-0", 5, 12, 3.5);
  b.ttl_ms = 250.0;
  b.checkpoint = "custom/reader.ck";
  SessionSpec sp = sparse_spec("attacker-0", 7, 9, 2, 4);
  SessionSpec du = duo_spec("attacker-1", 8, 6, 2, 1, 3);
  m.sessions = {b, sp, du};
  return m;
}

TEST(Manifest, RoundTripsThroughStream) {
  const CampaignManifest m = full_manifest();
  std::stringstream ss;
  campaign::write_manifest(ss, m);

  CampaignManifest parsed;
  ASSERT_TRUE(campaign::parse_manifest(ss, parsed)) << ss.str();
  EXPECT_TRUE(parsed == m) << ss.str();
}

TEST(Manifest, RoundTripsThroughFile) {
  const CampaignManifest m = full_manifest();
  const std::string path = ::testing::TempDir() + "duo_campaign_manifest.txt";
  ASSERT_TRUE(campaign::save_manifest(m, path));
  CampaignManifest loaded;
  ASSERT_TRUE(campaign::load_manifest(loaded, path));
  EXPECT_TRUE(loaded == m);
  std::remove(path.c_str());
}

TEST(Manifest, RejectsUnknownKeysAndBadRoles) {
  CampaignManifest out;
  out.name = "untouched";

  std::stringstream bad_global("campaign x\nbogus_knob 3\n");
  EXPECT_FALSE(campaign::parse_manifest(bad_global, out));

  std::stringstream bad_session("session a\nrole sparse\nbogus_knob 1\n");
  EXPECT_FALSE(campaign::parse_manifest(bad_session, out));

  std::stringstream bad_role("session a\nrole wizard\n");
  EXPECT_FALSE(campaign::parse_manifest(bad_role, out));

  // A failed parse is all-or-nothing: the output manifest is untouched.
  EXPECT_EQ(out.name, "untouched");
  EXPECT_TRUE(out.sessions.empty());
}

TEST(Manifest, ParsesCommentsAndBlankLines) {
  std::stringstream in(
      "# a campaign\r\n"
      "campaign tiny\n"
      "\n"
      "seed 3\n"
      "session reader\n"
      "# per-session\n"
      "role benign\n"
      "queries 4\n");
  CampaignManifest m;
  ASSERT_TRUE(campaign::parse_manifest(in, m));
  EXPECT_EQ(m.name, "tiny");
  EXPECT_EQ(m.seed, 3u);
  ASSERT_EQ(m.sessions.size(), 1u);
  EXPECT_EQ(m.sessions[0].client_id, "reader");
  EXPECT_EQ(m.sessions[0].role, SessionRole::kBenign);
  EXPECT_EQ(m.sessions[0].queries, 4);
}

// Each value must parse whole as its field's type. A prefix or wrapping
// parse would load these lines as a different campaign than written
// (1 query, 40 iterations, max_batch 8, 0.05, seed 2^64 - 5) or as NaN /
// inf, and an infinite timeout overflows the runner's int64 millisecond
// cast.
TEST(Manifest, RejectsMalformedNumbers) {
  const char* const bad[] = {
      "session a\nqueries 1e3\n",
      "session a\niterations 4294967336\n",
      "max_batch 8x\n",
      "fault_error_prob 0.05%\n",
      "seed -5\n",
      "client_rate nan\n",
      "query_timeout_ms inf\n",
  };
  const CampaignManifest before = full_manifest();
  for (const char* text : bad) {
    CampaignManifest out = before;
    std::stringstream in(text);
    EXPECT_FALSE(campaign::parse_manifest(in, out)) << text;
    EXPECT_TRUE(out == before) << text;
  }

  // Every duration key takes kMaxDurationMs and refuses the next double up
  // (a larger value would overflow a nanosecond chrono conversion later).
  auto spelled = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  const std::string at = spelled(campaign::kMaxDurationMs);
  const std::string past =
      spelled(std::nextafter(campaign::kMaxDurationMs, 1e300));
  // Each entry is the manifest text before the value.
  const std::string duration_keys[] = {
      "reject_retry_after_ms ", "batch_timeout_ms ",
      "fault_delay_ms ",        "query_timeout_ms ",
      "submit_deadline_ms ",    "circuit_cooldown_ms ",
      "crash_at_ms ",           "crash_at_ms 10\nrestart_after_ms ",
      "session a\nttl_ms ",     "session a\nttl_ms -",
      "session a\nthink_ms "};
  for (const auto& prefix : duration_keys) {
    std::stringstream ok(prefix + at + "\n");
    CampaignManifest parsed;
    EXPECT_TRUE(campaign::parse_manifest(ok, parsed)) << prefix << at;
    CampaignManifest out = before;
    std::stringstream in(prefix + past + "\n");
    EXPECT_FALSE(campaign::parse_manifest(in, out)) << prefix << past;
    EXPECT_TRUE(out == before) << prefix << past;
  }

  // The well-formed spellings of the same values still parse.
  std::stringstream good(
      "seed 18446744073709551611\nmax_batch 8\nfault_error_prob 5e-4\n"
      "session a\nqueries 1000\niterations 2147483647\n");
  CampaignManifest out;
  ASSERT_TRUE(campaign::parse_manifest(good, out));
  EXPECT_EQ(out.seed, 18446744073709551611ull);
  EXPECT_EQ(out.max_batch, 8u);
  EXPECT_EQ(out.fault_error_prob, 5e-4);
  EXPECT_EQ(out.sessions[0].queries, 1000);
  EXPECT_EQ(out.sessions[0].iterations, 2147483647);
}

// Every committed soak manifest (bench/soaks, run by bench/campaign_soak)
// loads and survives write_manifest -> parse_manifest unchanged.
TEST(Manifest, CommittedSoakManifestsParseAndRoundTrip) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(DUO_SOAK_MANIFEST_DIR)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    const std::string path = entry.path().string();
    CampaignManifest loaded;
    ASSERT_TRUE(campaign::load_manifest(loaded, path)) << path;
    EXPECT_FALSE(loaded.sessions.empty()) << path;
    std::stringstream ss;
    campaign::write_manifest(ss, loaded);
    CampaignManifest reparsed;
    ASSERT_TRUE(campaign::parse_manifest(ss, reparsed)) << path;
    EXPECT_TRUE(reparsed == loaded) << path;
  }
  EXPECT_EQ(files, 8u);  // fault, overload, campaign, crash × smoke, quick
}

// ---------------------------------------------------------------------------
// Fairness ledger
// ---------------------------------------------------------------------------

TEST(Fairness, JainIndex) {
  EXPECT_DOUBLE_EQ(campaign::jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(campaign::jain_index({0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(campaign::jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_NEAR(campaign::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
}

TEST(Fairness, SummarizeDetectsLedgerMismatch) {
  serve::ServerStats stats;
  serve::ClientLedger a;
  a.served = 4;
  a.faulted = 1;
  serve::ClientLedger b;
  b.served = 2;
  b.throttled = 3;
  stats.clients = {{"a", a}, {"b", b}};
  stats.queries_served = 6;
  stats.faults_injected = 1;
  stats.requests_throttled = 3;

  campaign::FairnessSummary ok = campaign::summarize_fairness(stats);
  EXPECT_TRUE(ok.ledger_ok);
  EXPECT_EQ(ok.clients, 2);
  EXPECT_EQ(ok.billed_total, 7);
  EXPECT_EQ(ok.most_served_client, "a");
  EXPECT_EQ(ok.least_served_client, "b");
  EXPECT_GT(ok.jain_served, 0.0);
  EXPECT_LE(ok.jain_served, 1.0);

  // Losing a served request from the global counter breaks reconciliation.
  stats.queries_served = 5;
  EXPECT_FALSE(campaign::summarize_fairness(stats).ledger_ok);
}

// ---------------------------------------------------------------------------
// Runner validation
// ---------------------------------------------------------------------------

TEST(Campaign, RejectsUnrunnableManifests) {
  auto& world = testing::TinyWorld::mutable_instance();
  CampaignManifest empty;
  EXPECT_THROW(CampaignRunner(*world.victim, roster(), empty),
               std::invalid_argument);

  CampaignManifest no_roster;
  no_roster.sessions = {benign_spec("r", 1, 2)};
  const std::vector<video::Video> none;
  EXPECT_THROW(CampaignRunner(*world.victim, none, no_roster),
               std::invalid_argument);

  CampaignManifest bad_index;
  bad_index.sessions = {
      sparse_spec("a", 1, 2, 0, static_cast<std::int64_t>(roster().size()))};
  EXPECT_THROW(CampaignRunner(*world.victim, roster(), bad_index),
               std::invalid_argument);

  CampaignManifest duo_no_surrogate;
  duo_no_surrogate.sessions = {duo_spec("d", 1, 2, 1, 0, 1)};
  EXPECT_THROW(CampaignRunner(*world.victim, roster(), duo_no_surrogate),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Mixed traffic: ledger + fairness + determinism across reruns
// ---------------------------------------------------------------------------

CampaignManifest mixed_manifest() {
  CampaignManifest m;
  m.name = "mixed";
  m.seed = 21;
  harden_policies(m);
  m.client_rate = 500.0;  // per-client throttling is in play
  m.client_burst = 2.0;
  m.fault_error_prob = 0.05;  // transient faults absorbed by retries
  m.fault_seed = 9;
  m.pacer_rate = 4000.0;  // shared "one API key" pacer
  m.pacer_burst = 4.0;
  m.sessions = {
      sparse_spec("attacker-0", 31, 6, 0, 3),
      sparse_spec("attacker-1", 32, 6, 2, 5),
      benign_spec("reader-0", 41, 6, 2.0),
      benign_spec("reader-1", 42, 6),
      benign_spec("reader-2", 43, 6, 1.0),
      benign_spec("reader-3", 44, 6),
  };
  return m;
}

TEST(Campaign, MixedTrafficLedgerReconciles) {
  auto& world = testing::TinyWorld::mutable_instance();
  const CampaignManifest m = mixed_manifest();

  CampaignOutcome out = CampaignRunner(*world.victim, roster(), m).run();
  EXPECT_TRUE(out.all_completed());
  EXPECT_TRUE(out.ledger_ok);
  EXPECT_EQ(out.client_billed, out.server_billed);
  EXPECT_TRUE(out.fairness.ledger_ok);
  EXPECT_EQ(out.fairness.clients,
            static_cast<std::int64_t>(m.sessions.size()));
  EXPECT_GT(out.fairness.jain_served, 0.0);
  EXPECT_LE(out.fairness.jain_served, 1.0 + 1e-12);
  EXPECT_GT(out.pacer_granted, 0);
  for (const auto& spec : m.sessions) {
    ASSERT_EQ(out.server.clients.count(spec.client_id), 1u)
        << spec.client_id;
  }
  for (const auto& s : out.sessions) {
    EXPECT_GT(s.queries_billed, 0) << s.client_id;
    EXPECT_NE(s.outcome_hash, 0u) << s.client_id;
  }

  // The report renders from any outcome without touching the server again.
  std::ostringstream report;
  campaign::print_report(report, out);
  EXPECT_NE(report.str().find("reconciled"), std::string::npos)
      << report.str();

  // Outcomes are bitwise stable across reruns even though throttle/fault
  // attribution depends on scheduling.
  CampaignOutcome again = CampaignRunner(*world.victim, roster(), m).run();
  EXPECT_TRUE(again.ledger_ok);
  expect_same_outcomes(out, again, "rerun");
}

// ---------------------------------------------------------------------------
// Kill-and-resume acceptance campaign (ISSUE 8):
// 4 attack sessions + 8 benign streams under per-client rate limiting and 5%
// injected faults; killed mid-run via fault_error_from, resumed healthy, and
// required to match an uninterrupted reference bitwise per session.
// ---------------------------------------------------------------------------

CampaignManifest acceptance_manifest() {
  CampaignManifest m;
  m.name = "acceptance";
  m.seed = 77;
  harden_policies(m);
  m.client_rate = 500.0;
  m.client_burst = 2.0;
  m.fault_error_prob = 0.05;
  m.fault_seed = 13;
  m.sessions = {
      sparse_spec("attacker-0", 301, 8, 0, 4),
      sparse_spec("attacker-1", 302, 8, 1, 5),
      sparse_spec("attacker-2", 303, 8, 2, 6),
      duo_spec("attacker-3", 304, 6, 1, 3, 7),
  };
  for (int i = 0; i < 8; ++i) {
    m.sessions.push_back(benign_spec("reader-" + std::to_string(i),
                                     400 + static_cast<std::uint64_t>(i), 6,
                                     i % 2 == 0 ? 2.0 : 0.0));
  }
  return m;
}

TEST(Campaign, KillAndResumeMatchesUninterrupted) {
  auto& world = testing::TinyWorld::mutable_instance();
  const CampaignManifest healthy = acceptance_manifest();

  // Reference: the uninterrupted campaign (no checkpointing involved).
  CampaignOutcome reference =
      CampaignRunner(*world.victim, roster(), healthy, world.surrogate.get())
          .run();
  ASSERT_TRUE(reference.all_completed());
  EXPECT_TRUE(reference.ledger_ok);
  // Uninterrupted, every session reports exactly what it was billed: an
  // attack's reference-list queries are part of its spend.
  for (const auto& s : reference.sessions) {
    EXPECT_EQ(s.queries_reported, s.queries_billed) << s.client_id;
  }

  // Kill: from arrival 45 every request fails transiently forever, so every
  // session exhausts its retry budget and dies, with a checkpoint on disk
  // unless it dies before its first one. Arrival order across sessions is
  // the schedule's: while one session's thread waits for a core, the
  // server's lanes can answer 45 requests of the others.
  const std::string dir = scratch_dir("acceptance");
  CampaignManifest killed_manifest = healthy;
  killed_manifest.checkpoint_dir = dir;
  killed_manifest.fault_error_from = 45;
  CampaignOutcome killed = CampaignRunner(*world.victim, roster(),
                                          killed_manifest,
                                          world.surrogate.get())
                               .run();
  EXPECT_FALSE(killed.all_completed());
  // Even a dying campaign keeps its books: every accepted submission is
  // accounted as served/faulted/expired/shed on both sides.
  EXPECT_TRUE(killed.ledger_ok);
  bool attack_recorded = false;
  for (const auto& s : killed.sessions) {
    attack_recorded =
        attack_recorded ||
        (s.role != SessionRole::kBenign &&
         std::filesystem::exists(dir + "/" + s.client_id + ".ck"));
  }
  EXPECT_TRUE(attack_recorded) << "no attack session reached a checkpoint";

  // Resume: the same manifest against a healthy victim picks every session
  // up from its checkpoint and must land bitwise on the reference outcomes.
  CampaignManifest resumed_manifest = killed_manifest;
  resumed_manifest.fault_error_from = -1;
  CampaignOutcome resumed = CampaignRunner(*world.victim, roster(),
                                           resumed_manifest,
                                           world.surrogate.get())
                                .run();
  EXPECT_TRUE(resumed.ledger_ok);
  expect_same_outcomes(reference, resumed, "kill/resume");

  // Cumulative reported spend covers both processes; this run's billing
  // alone does not (some progress was restored, not re-bought) for at least
  // the sessions that had advanced before the kill.
  std::int64_t restored = 0;
  for (std::size_t i = 0; i < resumed.sessions.size(); ++i) {
    EXPECT_GE(resumed.sessions[i].queries_reported,
              resumed.sessions[i].queries_billed)
        << resumed.sessions[i].client_id;
    restored += resumed.sessions[i].queries_reported -
                resumed.sessions[i].queries_billed;
  }
  EXPECT_GT(restored, 0);

  // Clean completion removed every per-session checkpoint.
  for (const auto& spec : resumed_manifest.sessions) {
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/" + spec.client_id + ".ck"))
        << spec.client_id;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash/restart acceptance campaign (ISSUE 10): sparse + duo + benign traffic
// with two abrupt mid-run crash/restart cycles, snapshot round-tripped
// through durable files, required to match the crash-free campaign bitwise
// with the billing ledger reconciled globally and per client.
// ---------------------------------------------------------------------------

TEST(Campaign, CrashRestartCyclesMatchCrashFreeBitwise) {
  auto& world = testing::TinyWorld::mutable_instance();
  CampaignManifest m;
  m.name = "crashy";
  m.seed = 88;
  harden_policies(m);
  m.client_rate = 500.0;  // token-bucket levels must survive the restarts
  m.client_burst = 2.0;
  m.sessions = {
      sparse_spec("attacker-0", 311, 6, 0, 4),
      duo_spec("attacker-1", 312, 5, 1, 2, 6),
      // Think-time readers keep the campaign clock moving so the crash
      // schedule is reached while the attack sessions are still in flight.
      benign_spec("reader-0", 411, 10, 3.0),
      benign_spec("reader-1", 412, 10, 2.0),
  };

  CampaignOutcome reference =
      CampaignRunner(*world.victim, roster(), m, world.surrogate.get()).run();
  ASSERT_TRUE(reference.all_completed());
  EXPECT_TRUE(reference.ledger_ok);
  EXPECT_EQ(reference.crashes_survived, 0);
  EXPECT_EQ(reference.server.server_epoch, 1);

  const std::string dir = scratch_dir("crashy");
  CampaignManifest crashy = m;
  crashy.checkpoint_dir = dir;
  campaign::CrashEvent first;
  first.at_ms = 2.0;
  first.restart_after_ms = 1.0;
  campaign::CrashEvent second;
  second.at_ms = 5.0;
  second.restart_after_ms = 1.0;
  crashy.crashes = {first, second};

  CampaignOutcome crashed =
      CampaignRunner(*world.victim, roster(), crashy, world.surrogate.get())
          .run();
  EXPECT_TRUE(crashed.all_completed());
  EXPECT_EQ(crashed.crashes_survived, 2);
  EXPECT_EQ(crashed.server.crashes, 2);
  EXPECT_EQ(crashed.server.server_epoch, 3);
  // The ledger reconciles across both restarts — client vs server and per
  // client vs global, with crash casualties folded in as faulted+lost.
  EXPECT_TRUE(crashed.ledger_ok);
  EXPECT_EQ(crashed.requests_lost, crashed.server.requests_lost);
  // Every billed crash casualty was replayed by its session's reconnect
  // policy (replays also count unbilled bounces off the down server).
  EXPECT_GE(crashed.queries_replayed, crashed.requests_lost);

  // Tentpole acceptance: attack outcomes are bitwise identical to the
  // crash-free campaign — crash timing perturbs only billing schedules.
  expect_same_outcomes(reference, crashed, "crash/restart");

  // The chaos schedule round-tripped the accounting snapshot and the gallery
  // index through durable files in checkpoint_dir.
  EXPECT_TRUE(std::filesystem::exists(dir + "/server.snap"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/gallery.idx"));

  // The report surfaces the crash line.
  std::ostringstream report;
  campaign::print_report(report, crashed);
  EXPECT_NE(report.str().find("crashes: survived=2"), std::string::npos)
      << report.str();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Determinism across compute-thread counts
// ---------------------------------------------------------------------------

TEST(Campaign, OutcomesIndependentOfComputeThreads) {
  auto& world = testing::TinyWorld::mutable_instance();
  CampaignManifest m;
  m.name = "threads";
  m.seed = 5;
  harden_policies(m);
  m.sessions = {
      sparse_spec("attacker-0", 61, 5, 0, 3),
      benign_spec("reader-0", 62, 5),
      benign_spec("reader-1", 63, 5, 1.5),
  };

  const CampaignOutcome one = with_compute_threads(1, [&] {
    return CampaignRunner(*world.victim, roster(), m).run();
  });
  const CampaignOutcome four = with_compute_threads(4, [&] {
    return CampaignRunner(*world.victim, roster(), m).run();
  });
  EXPECT_TRUE(one.ledger_ok);
  EXPECT_TRUE(four.ledger_ok);
  expect_same_outcomes(one, four, "compute threads");
}

// ---------------------------------------------------------------------------
// A campaign duo session is the same attack as a direct DuoAttack run
// ---------------------------------------------------------------------------

TEST(Campaign, DuoSessionMatchesDirectAttack) {
  auto& world = testing::TinyWorld::mutable_instance();
  const SessionSpec spec = duo_spec("attacker-duo", 501, 5, 1, 0, 3);
  CampaignManifest m;
  m.name = "duo-equiv";
  m.seed = 11;
  harden_policies(m);
  m.sessions = {spec};

  CampaignOutcome out =
      CampaignRunner(*world.victim, roster(), m, world.surrogate.get()).run();
  ASSERT_TRUE(out.all_completed()) << out.sessions[0].error;

  // Mirror of run_duo's config construction (campaign/session.cpp).
  attack::DuoConfig cfg;
  cfg.transfer.k = spec.support_k;
  cfg.transfer.n = std::min(spec.support_n, roster()[0].geometry().frames);
  cfg.transfer.outer_iterations = 1;
  cfg.transfer.theta_steps = 3;
  cfg.iter_numH = spec.rounds;
  cfg.m = spec.m;
  cfg.query.iter_numQ = spec.iterations;
  cfg.query.seed = spec.seed;
  attack::DuoAttack direct(*world.surrogate, cfg);
  retrieval::BlackBoxHandle handle(*world.victim);
  const attack::AttackOutcome expected =
      direct.run(roster()[static_cast<std::size_t>(spec.source_index)],
                 roster()[static_cast<std::size_t>(spec.target_index)],
                 handle);

  EXPECT_EQ(out.sessions[0].outcome_hash,
            models::io::fnv1a(expected.adversarial.data()));
  ASSERT_EQ(out.sessions[0].t_history.size(), expected.t_history.size());
  for (std::size_t i = 0; i < expected.t_history.size(); ++i) {
    EXPECT_EQ(out.sessions[0].t_history[i], expected.t_history[i]) << i;
  }
  // The campaign session pipelines candidate queries: a speculative −ε
  // forward whose answer goes unused is still billed, so the session may
  // spend slightly more than the serial direct run — never less.
  EXPECT_GE(out.sessions[0].queries_reported, expected.queries);
}

}  // namespace
}  // namespace duo
