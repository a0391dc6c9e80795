#pragma once

// Per-client fairness over a serve::Ledger (a ServerStats is one). Jain's index
//   J(x) = (Σxᵢ)² / (n · Σxᵢ²)
// over per-client served counts is 1.0 when every client got the same
// service and → 1/n as one client monopolizes the victim; a starved client
// is detectable from the summary without reading n rows. The summary also
// checks that the client entries sum to the global counters
// (Ledger::clients_sum_to_counters), so with the billing identity of
// serve::Ledger a campaign report that prints `reconciled` has proven its
// accounting end to end.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace duo::campaign {

struct FairnessSummary {
  std::int64_t clients = 0;
  double jain_served = 1.0;   // Jain's index over per-client served counts
  double jain_billed = 1.0;   // same over per-client billed counts
  std::string most_served_client;
  std::string least_served_client;
  std::int64_t most_served = 0;
  std::int64_t least_served = 0;
  // Σ per-client billed — equals Ledger::billed() when the ledger
  // reconciles.
  std::int64_t billed_total = 0;
  bool ledger_ok = false;
};

// Jain's fairness index of `xs`; 1.0 for empty/all-zero input (nobody is
// starved when nobody asked).
double jain_index(const std::vector<double>& xs);

// Summarize the per-client entries of one ledger. ledger_ok checks that
// they sum to the global counters.
FairnessSummary summarize_fairness(const serve::Ledger& ledger);

}  // namespace duo::campaign
