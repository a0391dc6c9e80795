#pragma once

// Test helpers for sealed state files (models::io::save_sealed): read a
// file's payload, re-seal an edited payload so a format's parser runs on it
// rather than stopping at the digest, write an envelope with hostile fields,
// and draw seeded payload mutants. heap_peak.hpp measures what a loader
// allocates.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "models/serialization.hpp"

namespace duo::testing {

// The magics of the library's sealed formats, pinned here: a test that
// re-seals under one also pins it.
constexpr char kIndexMagic[8] = "DUOIX1\0";
constexpr char kSnapshotMagic[8] = "DUOSN1\0";
constexpr char kSparseQueryMagic[8] = "DUOA2\0\0";
constexpr char kDuoMagic[8] = "DUOD3\0\0";

// Magic, FNV-1a digest of the payload, payload size.
constexpr std::size_t kEnvelopeBytes = 24;

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The payload of the sealed file at `path`, without its envelope.
inline std::string sealed_payload(const std::string& path) {
  return read_file(path).substr(kEnvelopeBytes);
}

// Writes an envelope claiming `size` payload bytes with digest `digest`,
// followed by `payload` as given.
inline void write_envelope(const std::string& path, const char (&magic)[8],
                           std::uint64_t digest, std::int64_t size,
                           const std::string& payload) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(magic, sizeof(magic));
  out.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
  out.write(reinterpret_cast<const char*>(&size), sizeof(size));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

// Re-seals `payload` under `magic` with its true size and digest, so the
// format's parser meets whatever the payload holds.
inline void write_sealed(const std::string& path, const char (&magic)[8],
                         const std::string& payload) {
  write_envelope(path, magic,
                 models::io::fnv1a(payload.data(), payload.size()),
                 static_cast<std::int64_t>(payload.size()), payload);
}

// Mutant `i` of a seeded sequence over the payload `base`. i % 5 picks a
// bit flip, an extreme byte, a truncation, a splice (a prefix of `base`, a
// suffix of `donor`), or an edit to one of the length fields at byte offsets
// `lengths`: each field gets every hostile length in turn, then nearby
// values (±32).
inline std::string seeded_mutant(int i, const std::string& base,
                                 const std::string& donor,
                                 const std::vector<std::size_t>& lengths,
                                 Rng& rng) {
  constexpr unsigned char kExtremes[] = {0x00, 0x7F, 0x80, 0xFF};
  const std::int64_t kLengths[] = {-1,
                                   0,
                                   1,
                                   7,
                                   1 << 20,
                                   (1 << 20) + 1,
                                   1 << 24,
                                   (std::int64_t{1} << 24) + 1,
                                   std::int64_t{1} << 31,
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_index(n));
  };
  std::string m = base;
  switch (i % 5) {
    case 0:  // bit flip
      m[pick(m.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1:  // extreme byte
      m[pick(m.size())] = static_cast<char>(kExtremes[pick(4)]);
      break;
    case 2:  // truncation
      m.resize(pick(m.size()));
      break;
    case 3:  // splice: a prefix of one valid payload, a suffix of another
      m = base.substr(0, pick(base.size() + 1)) +
          donor.substr(pick(donor.size() + 1));
      break;
    default: {  // length field: each gets every extreme, then ±32
      const auto k = static_cast<std::size_t>(i / 5);
      const std::size_t at = lengths[k % lengths.size()];
      const std::size_t round = k / lengths.size();
      std::int64_t value = 0;
      std::memcpy(&value, m.data() + at, sizeof(value));
      value = round < std::size(kLengths)
                  ? kLengths[round]
                  : value + static_cast<std::int64_t>(pick(65)) - 32;
      std::memcpy(m.data() + at, &value, sizeof(value));
      break;
    }
  }
  return m;
}

}  // namespace duo::testing
