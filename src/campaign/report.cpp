#include "campaign/report.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace duo::campaign {

namespace {

std::string hash_hex(std::uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

long long ll(std::int64_t v) { return static_cast<long long>(v); }

}  // namespace

TableWriter session_table(const CampaignOutcome& outcome) {
  TableWriter table("campaign sessions");
  table.set_header({"client", "role", "done", "progress", "billed",
                    "cumulative", "retries", "overloads", "rate", "final_T",
                    "outcome_hash"});
  table.set_precision(4);
  for (const auto& s : outcome.sessions) {
    table.add_row({s.client_id, std::string(role_name(s.role)),
                   std::string(s.completed ? "yes" : "no"),
                   ll(s.logical_queries), ll(s.queries_billed),
                   ll(s.queries_reported), ll(s.retries), ll(s.overloads),
                   s.discovered_rate, s.final_t, hash_hex(s.outcome_hash)});
  }
  return table;
}

TableWriter fairness_table(const CampaignOutcome& outcome) {
  TableWriter table("per-client fairness");
  table.set_header({"client", "served", "faulted", "lost", "throttled",
                    "rejected", "shed", "expired", "billed", "p50_ms",
                    "p95_ms"});
  table.set_precision(3);
  for (const auto& [id, c] : outcome.server.clients) {
    table.add_row({id, ll(c.served), ll(c.faulted), ll(c.lost),
                   ll(c.throttled), ll(c.rejected), ll(c.shed), ll(c.expired),
                   ll(c.billed()), c.latency.percentile(0.50),
                   c.latency.percentile(0.95)});
  }
  return table;
}

void print_report(std::ostream& os, const CampaignOutcome& outcome) {
  session_table(outcome).print(os);
  os << "\n";
  fairness_table(outcome).print(os);
  os << "\n";
  const auto& f = outcome.fairness;
  os << "ledger: client_billed=" << outcome.client_billed
     << " server_billed=" << outcome.server_billed << " ("
     << (outcome.ledger_ok ? "reconciled" : "MISMATCH") << ")\n";
  os << "fairness: clients=" << f.clients << " jain_served=" << f.jain_served
     << " jain_billed=" << f.jain_billed;
  if (f.clients > 0) {
    os << " most=" << f.most_served_client << "(" << f.most_served << ")"
       << " least=" << f.least_served_client << "(" << f.least_served << ")";
  }
  os << "\n";
  os << "elapsed_ms=" << outcome.elapsed_ms;
  if (outcome.pacer_granted > 0 || outcome.pacer_waits > 0) {
    os << " pacer: granted=" << outcome.pacer_granted
       << " waits=" << outcome.pacer_waits
       << " waited_ms=" << outcome.pacer_waited_ms
       << " tokens_available=" << outcome.pacer_tokens_available
       << " final_rate=" << outcome.pacer_final_rate
       << " increases=" << outcome.pacer_rate_increases
       << " decreases=" << outcome.pacer_rate_decreases;
  }
  os << "\n";
  const auto& sv = outcome.server;
  if (outcome.crashes_survived > 0 || sv.crashes > 0) {
    os << "crashes: survived=" << outcome.crashes_survived
       << " requests_lost=" << outcome.requests_lost
       << " queries_replayed=" << outcome.queries_replayed
       << " server_epoch=" << sv.server_epoch << "\n";
  }
  if (sv.degrade_entries > 0 || sv.degraded_now) {
    const double share =
        outcome.elapsed_ms > 0.0 ? sv.degraded_ms / outcome.elapsed_ms : 0.0;
    os << "degraded: entries=" << sv.degrade_entries
       << " time_ms=" << sv.degraded_ms << " share=" << share
       << " served_degraded=" << sv.degraded_served
       << (sv.degraded_now ? " (still degraded)" : "") << "\n";
  }
}

}  // namespace duo::campaign
