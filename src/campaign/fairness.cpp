#include "campaign/fairness.hpp"

namespace duo::campaign {

double jain_index(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (xs.empty() || sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

FairnessSummary summarize_fairness(const serve::Ledger& ledger) {
  FairnessSummary out;
  out.clients = static_cast<std::int64_t>(ledger.clients.size());

  std::vector<double> served;
  std::vector<double> billed;
  served.reserve(ledger.clients.size());
  billed.reserve(ledger.clients.size());
  bool first = true;
  for (const auto& [id, c] : ledger.clients) {
    served.push_back(static_cast<double>(c.served));
    billed.push_back(static_cast<double>(c.billed()));
    out.billed_total += c.billed();
    if (first || c.served > out.most_served) {
      out.most_served = c.served;
      out.most_served_client = id;
    }
    if (first || c.served < out.least_served) {
      out.least_served = c.served;
      out.least_served_client = id;
    }
    first = false;
  }
  out.jain_served = jain_index(served);
  out.jain_billed = jain_index(billed);

  // Each client entry satisfies the billing identity by construction; what
  // must be PROVEN is that the entries sum exactly to the global counters —
  // no request double-counted or lost between the two accountings. Billed
  // totals then agree too, since billed() is a sum of those counters.
  out.ledger_ok = ledger.clients_sum_to_counters();
  return out;
}

}  // namespace duo::campaign
