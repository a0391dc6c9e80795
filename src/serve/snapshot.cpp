#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "models/serialization.hpp"
#include "serve/server.hpp"

namespace duo::serve {

namespace {

namespace io = models::io;

// File layout mirrors the checkpoint formats (DUOW1 params, DUOIX1 index):
// magic, FNV-1a fingerprint over the payload, payload size, payload. The
// fingerprint makes torn or bit-flipped files fail loudly instead of
// restoring a subtly wrong ledger.
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

void write_payload(std::ostream& out, const ServerSnapshot& snap) {
  io::write_i64(out, snap.epoch);
  io::write_i64(out, snap.queries_served);
  io::write_i64(out, snap.batches);
  io::write_i64(out, snap.faults_injected);
  io::write_i64(out, snap.requests_throttled);
  io::write_i64(out, snap.requests_rejected);
  io::write_i64(out, snap.requests_shed);
  io::write_i64(out, snap.requests_expired);
  io::write_i64(out, snap.requests_lost);
  io::write_i64(out, snap.crashes);
  io::write_i64_vec(out, snap.batch_size_counts);
  io::write_i64_vec(out, snap.occupancy_deciles);
  io::write_i64_vec(out, snap.retry_after_buckets);
  io::write_f64_vec(out, snap.latency_reservoir);
  io::write_i64(out, snap.latency_count);
  io::write_f64(out, snap.max_latency_ms);
  io::write_u64(out, snap.reservoir_rng_state);
  io::write_i64(out, snap.degrade_entries);
  io::write_f64(out, snap.degraded_accum_ms);
  io::write_i64(out, snap.degraded_served);
  io::write_i64(out, static_cast<std::int64_t>(snap.clients.size()));
  for (const auto& c : snap.clients) {
    io::write_string(out, c.id);
    io::write_i64(out, c.served);
    io::write_i64(out, c.faulted);
    io::write_i64(out, c.throttled);
    io::write_i64(out, c.rejected);
    io::write_i64(out, c.shed);
    io::write_i64(out, c.expired);
    io::write_i64(out, c.lost);
    io::write_f64_vec(out, c.reservoir);
    io::write_i64(out, c.latency_count);
    io::write_f64(out, c.max_latency_ms);
    io::write_u64(out, c.rng_state);
  }
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

// A reservoir holds a sample of the latencies counted so far, so its count
// can never be below its size. Algorithm R draws a slot from [0, count] once
// the reservoir is full; a smaller count would draw from an empty range.
bool count_covers(std::int64_t count, const std::vector<double>& reservoir) {
  return count >= static_cast<std::int64_t>(reservoir.size());
}

bool read_payload(std::istream& in, ServerSnapshot& snap) {
  if (!io::read_i64(in, snap.epoch) || snap.epoch < 1) return false;
  if (!io::read_i64(in, snap.queries_served)) return false;
  if (!io::read_i64(in, snap.batches)) return false;
  if (!io::read_i64(in, snap.faults_injected)) return false;
  if (!io::read_i64(in, snap.requests_throttled)) return false;
  if (!io::read_i64(in, snap.requests_rejected)) return false;
  if (!io::read_i64(in, snap.requests_shed)) return false;
  if (!io::read_i64(in, snap.requests_expired)) return false;
  if (!io::read_i64(in, snap.requests_lost)) return false;
  if (!io::read_i64(in, snap.crashes)) return false;
  if (!io::read_i64_vec(in, snap.batch_size_counts)) return false;
  if (!io::read_i64_vec(in, snap.occupancy_deciles)) return false;
  if (!io::read_i64_vec(in, snap.retry_after_buckets)) return false;
  if (!io::read_f64_vec(in, snap.latency_reservoir)) return false;
  if (!io::read_i64(in, snap.latency_count)) return false;
  if (!count_covers(snap.latency_count, snap.latency_reservoir)) return false;
  if (!io::read_f64(in, snap.max_latency_ms)) return false;
  if (!io::read_u64(in, snap.reservoir_rng_state)) return false;
  if (!io::read_i64(in, snap.degrade_entries)) return false;
  if (!io::read_f64(in, snap.degraded_accum_ms)) return false;
  if (!io::read_i64(in, snap.degraded_served)) return false;
  std::int64_t client_count = 0;
  if (!io::read_i64(in, client_count)) return false;
  if (client_count < 0 || client_count > (1 << 24)) return false;
  snap.clients.clear();
  snap.clients.reserve(static_cast<std::size_t>(client_count));
  std::string prev_id;
  for (std::int64_t i = 0; i < client_count; ++i) {
    ServerSnapshot::ClientSlice c;
    if (!io::read_string(in, c.id)) return false;
    // The writer emits slices sorted by id; enforce it so a restored ledger
    // cannot smuggle in duplicate client slices.
    if (i > 0 && c.id <= prev_id) return false;
    prev_id = c.id;
    if (!io::read_i64(in, c.served)) return false;
    if (!io::read_i64(in, c.faulted)) return false;
    if (!io::read_i64(in, c.throttled)) return false;
    if (!io::read_i64(in, c.rejected)) return false;
    if (!io::read_i64(in, c.shed)) return false;
    if (!io::read_i64(in, c.expired)) return false;
    if (!io::read_i64(in, c.lost)) return false;
    if (!io::read_f64_vec(in, c.reservoir)) return false;
    if (!io::read_i64(in, c.latency_count)) return false;
    if (!count_covers(c.latency_count, c.reservoir)) return false;
    if (!io::read_f64(in, c.max_latency_ms)) return false;
    if (!io::read_u64(in, c.rng_state)) return false;
    snap.clients.push_back(std::move(c));
  }
  if (!read_bool(in, snap.has_limiter)) return false;
  snap.limiter = RateLimiter::State{};
  if (snap.has_limiter) {
    if (!io::read_f64(in, snap.limiter.rate)) return false;
    if (!io::read_f64(in, snap.limiter.burst)) return false;
    if (snap.limiter.rate <= 0.0 || snap.limiter.burst < 1.0) return false;
    std::int64_t bucket_count = 0;
    if (!io::read_i64(in, bucket_count)) return false;
    if (bucket_count < 0 || bucket_count > (1 << 24)) return false;
    snap.limiter.buckets.reserve(static_cast<std::size_t>(bucket_count));
    std::string prev_bucket;
    for (std::int64_t i = 0; i < bucket_count; ++i) {
      std::pair<std::string, TokenBucketState> entry;
      if (!io::read_string(in, entry.first)) return false;
      if (i > 0 && entry.first <= prev_bucket) return false;
      prev_bucket = entry.first;
      if (!io::read_f64(in, entry.second.rate)) return false;
      if (!io::read_f64(in, entry.second.burst)) return false;
      if (!io::read_f64(in, entry.second.tokens)) return false;
      if (!io::read_f64(in, entry.second.last_ms)) return false;
      if (!read_bool(in, entry.second.primed)) return false;
      if (entry.second.rate <= 0.0 || entry.second.burst < 1.0) return false;
      snap.limiter.buckets.push_back(std::move(entry));
    }
  }
  return true;
}

}  // namespace

bool save_snapshot(const ServerSnapshot& snap, const std::string& path) {
  std::ostringstream payload_stream;
  write_payload(payload_stream, snap);
  if (!payload_stream) return false;
  const std::string payload = payload_stream.str();
  return io::atomic_write(path, [&](std::ostream& out) {
    out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
    io::write_u64(out, io::fnv1a(payload.data(), payload.size()));
    io::write_i64(out, static_cast<std::int64_t>(payload.size()));
    out.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
  });
}

bool load_snapshot(ServerSnapshot& snap, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[sizeof(kSnapshotMagic)] = {};
  if (!in.read(magic, sizeof(magic))) return false;
  for (std::size_t i = 0; i < sizeof(magic); ++i) {
    if (magic[i] != kSnapshotMagic[i]) return false;
  }
  std::uint64_t fingerprint = 0;
  std::int64_t size = 0;
  if (!io::read_u64(in, fingerprint)) return false;
  if (!io::read_i64(in, size)) return false;
  if (size < 0 || size > (std::int64_t{1} << 31)) return false;
  std::string payload(static_cast<std::size_t>(size), '\0');
  if (!in.read(payload.data(), size)) return false;
  if (io::fnv1a(payload.data(), payload.size()) != fingerprint) return false;
  // Stage into a scratch snapshot so a file that fails validation halfway
  // leaves the caller's snapshot untouched.
  ServerSnapshot staged;
  std::istringstream payload_in(payload);
  if (!read_payload(payload_in, staged)) return false;
  snap = std::move(staged);
  return true;
}

}  // namespace duo::serve
