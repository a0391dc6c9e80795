#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "models/serialization.hpp"
#include "serve/server.hpp"

namespace duo::serve {

namespace {

namespace io = models::io;

// A sealed state file (models::io::save_sealed): the digest makes torn or
// bit-flipped files fail loudly instead of restoring a subtly wrong ledger.
constexpr char kSnapshotMagic[8] = {'D', 'U', 'O', 'S', 'N', '1', '\0', '\0'};

void write_bool(std::ostream& out, bool b) {
  io::write_i64(out, b ? 1 : 0);
}

bool read_bool(std::istream& in, bool& b) {
  std::int64_t v = 0;
  if (!io::read_i64(in, v)) return false;
  if (v != 0 && v != 1) return false;
  b = v != 0;
  return true;
}

// Every double in a snapshot (latencies, degraded time, limiter rates,
// bursts, tokens and clocks) is finite in a running server. A NaN passes the
// range checks below unnoticed: a NaN limiter rate is neither <= 0 nor
// rejected by `burst < 1`, and the restored limiter then grants every
// request. So the loader rejects every non-finite double.
bool read_finite(std::istream& in, double& v) {
  return io::read_f64(in, v) && std::isfinite(v);
}

void write_reservoir(std::ostream& out, const LatencyReservoir& r) {
  io::write_f64_vec(out, r.samples);
  io::write_i64(out, r.count);
  io::write_f64(out, r.max_ms);
  io::write_u64(out, r.rng.state());
}

// A reservoir holds a sample of the latencies counted so far, so its count
// can never be below its size. Algorithm R draws a slot from [0, count] once
// the reservoir is full; a smaller count would draw from an empty range.
bool read_reservoir(std::istream& in, LatencyReservoir& r) {
  std::uint64_t rng_state = 0;
  if (!io::read_f64_vec(in, r.samples) ||
      !std::all_of(r.samples.begin(), r.samples.end(),
                   [](double v) { return std::isfinite(v); }) ||
      !io::read_i64(in, r.count) ||
      r.count < static_cast<std::int64_t>(r.samples.size()) ||
      !read_finite(in, r.max_ms) || !io::read_u64(in, rng_state)) {
    return false;
  }
  r.rng = Rng(rng_state);
  return true;
}

void write_client(std::ostream& out, const std::string& id,
                  const ClientLedger& c) {
  io::write_string(out, id);
  io::write_i64(out, c.served);
  io::write_i64(out, c.faulted);
  io::write_i64(out, c.throttled);
  io::write_i64(out, c.rejected);
  io::write_i64(out, c.shed);
  io::write_i64(out, c.expired);
  io::write_i64(out, c.lost);
  write_reservoir(out, c.latency);
}

bool read_client(std::istream& in, std::string& id, ClientLedger& c) {
  return io::read_string(in, id) && io::read_i64(in, c.served) &&
         io::read_i64(in, c.faulted) && io::read_i64(in, c.throttled) &&
         io::read_i64(in, c.rejected) && io::read_i64(in, c.shed) &&
         io::read_i64(in, c.expired) && io::read_i64(in, c.lost) &&
         read_reservoir(in, c.latency);
}

void write_payload(std::ostream& out, const ServerSnapshot& snap) {
  const Ledger& l = snap.ledger;
  io::write_i64(out, snap.epoch);
  io::write_i64(out, l.queries_served);
  io::write_i64(out, l.batches);
  io::write_i64(out, l.faults_injected);
  io::write_i64(out, l.requests_throttled);
  io::write_i64(out, l.requests_rejected);
  io::write_i64(out, l.requests_shed);
  io::write_i64(out, l.requests_expired);
  io::write_i64(out, l.requests_lost);
  io::write_i64(out, l.crashes);
  io::write_i64_vec(out, l.batch_size_counts);
  io::write_i64_vec(out, l.occupancy_deciles);
  io::write_i64_vec(out, l.retry_after_buckets);
  write_reservoir(out, l.latency);
  io::write_i64(out, l.degrade_entries);
  io::write_f64(out, l.degraded_accum_ms);
  io::write_i64(out, l.degraded_served);
  io::write_i64(out, static_cast<std::int64_t>(l.clients.size()));
  for (const auto& [id, c] : l.clients) write_client(out, id, c);
  write_bool(out, snap.has_limiter);
  if (snap.has_limiter) {
    io::write_f64(out, snap.limiter.rate);
    io::write_f64(out, snap.limiter.burst);
    io::write_i64(out,
                  static_cast<std::int64_t>(snap.limiter.buckets.size()));
    for (const auto& [id, bucket] : snap.limiter.buckets) {
      io::write_string(out, id);
      io::write_f64(out, bucket.rate);
      io::write_f64(out, bucket.burst);
      io::write_f64(out, bucket.tokens);
      io::write_f64(out, bucket.last_ms);
      write_bool(out, bucket.primed);
    }
  }
}

bool read_payload(std::istream& in, ServerSnapshot& snap) {
  Ledger& l = snap.ledger;
  if (!io::read_i64(in, snap.epoch) || snap.epoch < 1) return false;
  if (!io::read_i64(in, l.queries_served)) return false;
  if (!io::read_i64(in, l.batches)) return false;
  if (!io::read_i64(in, l.faults_injected)) return false;
  if (!io::read_i64(in, l.requests_throttled)) return false;
  if (!io::read_i64(in, l.requests_rejected)) return false;
  if (!io::read_i64(in, l.requests_shed)) return false;
  if (!io::read_i64(in, l.requests_expired)) return false;
  if (!io::read_i64(in, l.requests_lost)) return false;
  if (!io::read_i64(in, l.crashes)) return false;
  if (!io::read_i64_vec(in, l.batch_size_counts)) return false;
  if (!io::read_i64_vec(in, l.occupancy_deciles)) return false;
  if (!io::read_i64_vec(in, l.retry_after_buckets)) return false;
  if (!read_reservoir(in, l.latency)) return false;
  if (!io::read_i64(in, l.degrade_entries)) return false;
  if (!read_finite(in, l.degraded_accum_ms)) return false;
  if (!io::read_i64(in, l.degraded_served)) return false;
  std::int64_t client_count = 0;
  if (!io::read_i64(in, client_count)) return false;
  if (client_count < 0 || client_count > (1 << 24)) return false;
  for (std::int64_t i = 0; i < client_count; ++i) {
    std::string id;
    ClientLedger c;
    if (!read_client(in, id, c)) return false;
    // The writer emits entries sorted by id; enforce it so a restored ledger
    // cannot smuggle in duplicate client entries.
    if (!l.clients.empty() && id <= l.clients.rbegin()->first) return false;
    l.clients.emplace_hint(l.clients.end(), std::move(id), std::move(c));
  }
  if (!read_bool(in, snap.has_limiter)) return false;
  snap.limiter = RateLimiter::State{};
  if (snap.has_limiter) {
    if (!read_finite(in, snap.limiter.rate)) return false;
    if (!read_finite(in, snap.limiter.burst)) return false;
    if (snap.limiter.rate <= 0.0 || snap.limiter.burst < 1.0) return false;
    std::int64_t bucket_count = 0;
    if (!io::read_i64(in, bucket_count)) return false;
    if (bucket_count < 0 || bucket_count > (1 << 24)) return false;
    std::string prev_bucket;
    for (std::int64_t i = 0; i < bucket_count; ++i) {
      std::pair<std::string, TokenBucketState> entry;
      if (!io::read_string(in, entry.first)) return false;
      if (i > 0 && entry.first <= prev_bucket) return false;
      prev_bucket = entry.first;
      if (!read_finite(in, entry.second.rate)) return false;
      if (!read_finite(in, entry.second.burst)) return false;
      if (!read_finite(in, entry.second.tokens)) return false;
      if (!read_finite(in, entry.second.last_ms)) return false;
      if (!read_bool(in, entry.second.primed)) return false;
      if (entry.second.rate <= 0.0 || entry.second.burst < 1.0) return false;
      snap.limiter.buckets.push_back(std::move(entry));
    }
  }
  return true;
}

}  // namespace

bool save_snapshot(const ServerSnapshot& snap, const std::string& path) {
  return io::save_sealed(path, kSnapshotMagic, [&](std::ostream& out) {
    write_payload(out, snap);
  });
}

bool load_snapshot(ServerSnapshot& snap, const std::string& path) {
  // Stage into a scratch snapshot so a file that fails validation halfway
  // leaves the caller's snapshot untouched.
  ServerSnapshot staged;
  if (!io::load_sealed(path, kSnapshotMagic, [&](std::istream& in) {
        return read_payload(in, staged);
      })) {
    return false;
  }
  snap = std::move(staged);
  return true;
}

}  // namespace duo::serve
