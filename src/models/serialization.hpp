#pragma once

// Binary serialization. Three layers:
//
//  - models::io primitives — integers, doubles, tensors, vectors, FNV-1a
//    fingerprints and atomic file commit. All multi-byte values are written
//    in the host's native byte order; state files are a single-machine
//    resume/deploy mechanism, not an interchange format.
//  - models::io::save_sealed / load_sealed — the one sealed state file.
//    Every binary state format in the library (gallery index, server
//    snapshot, model weights, the SparseQuery and DUO checkpoints, the
//    campaign benign checkpoint) is a payload inside this envelope; a format
//    owns only its magic, its payload writer and reader, and the staging
//    that leaves its target untouched when a load fails.
//  - save_parameters / load_parameters — every parameter tensor of a
//    FeatureExtractor, in parameter-iteration order. A file only loads back
//    into the identical architecture/feature-dim/geometry (every parameter's
//    shape must match), which is exactly the deployment story the library
//    needs: train a victim once, attack it across bench runs.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "models/feature_extractor.hpp"
#include "tensor/tensor.hpp"

namespace duo::models {

namespace io {

// Primitive writes never fail by themselves; check the stream after a batch
// of writes (ofstream reports failure at flush/close). Reads return false on
// EOF/short reads and leave the output untouched on failure.
void write_u64(std::ostream& out, std::uint64_t value);
bool read_u64(std::istream& in, std::uint64_t& value);
void write_i64(std::ostream& out, std::int64_t value);
bool read_i64(std::istream& in, std::int64_t& value);
void write_f64(std::ostream& out, double value);
bool read_f64(std::istream& in, double& value);

// Tensor: rank, dims, then the float payload. read_tensor validates the
// header (rank <= 8, non-negative dims, element count < 2^31) before
// allocating.
void write_tensor(std::ostream& out, const Tensor& t);
bool read_tensor(std::istream& in, Tensor& t);

// Length-prefixed vectors.
//
// read_tensor and every read_*_vec check the claimed payload against the
// bytes left in the stream before allocating, so a corrupt length prefix
// cannot claim more memory than the stream holds. The check seeks, so they
// need a seekable stream (a file or string stream); any other stream is
// rejected.
void write_i64_vec(std::ostream& out, const std::vector<std::int64_t>& v);
bool read_i64_vec(std::istream& in, std::vector<std::int64_t>& v);
void write_f64_vec(std::ostream& out, const std::vector<double>& v);
bool read_f64_vec(std::istream& in, std::vector<double>& v);
void write_f32_vec(std::ostream& out, const std::vector<float>& v);
bool read_f32_vec(std::istream& in, std::vector<float>& v);
void write_i32_vec(std::ostream& out, const std::vector<int>& v);
bool read_i32_vec(std::istream& in, std::vector<int>& v);
void write_i8_vec(std::ostream& out, const std::vector<std::int8_t>& v);
bool read_i8_vec(std::istream& in, std::vector<std::int8_t>& v);

// Length-prefixed byte string. read_string validates the length (< 2^20)
// before allocating, so a corrupt file cannot trigger a huge allocation.
void write_string(std::ostream& out, const std::string& s);
bool read_string(std::istream& in, std::string& s);

// FNV-1a over raw bytes — the digest of a sealed file's payload, and the
// fingerprint that binds an attack checkpoint to the exact inputs it was
// taken against. The basis overload chains: pass a previous digest to fold
// additional bytes into a running hash.
std::uint64_t fnv1a(const void* data, std::size_t bytes);
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t basis);
std::uint64_t fnv1a(const Tensor& t);

// Write-then-rename commit: `write` streams into `path + ".tmp"`, which is
// flushed + fsync'd and only then renamed over `path` (the parent directory
// is fsync'd after the rename on POSIX, making the publish itself durable).
// A reader therefore never observes a torn checkpoint, and a crash — even a
// power loss mid-write — leaves any previous checkpoint intact. If `write`
// throws, the tmp file is removed and the exception propagates; the
// destination is never touched.
bool atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

// Sealed state file: 8-byte magic, FNV-1a of the payload (u64), payload size
// (i64), payload. save_sealed serializes `write`'s payload to memory first,
// so the digest can lead it, then commits the file through atomic_write.
// load_sealed checks the magic, checks the claimed size against the bytes
// left in the file before it allocates, and checks the digest before
// `read` sees a byte; it returns false on any of those failures and
// otherwise `read`'s verdict on a stream over the payload.
bool save_sealed(const std::string& path, const char (&magic)[8],
                 const std::function<void(std::ostream&)>& write);
bool load_sealed(const std::string& path, const char (&magic)[8],
                 const std::function<bool(std::istream&)>& read);

}  // namespace io

// Save every parameter tensor of `extractor` to `path` as a sealed file.
// Returns false on I/O failure.
bool save_parameters(FeatureExtractor& extractor, const std::string& path);

// Load a file written by save_parameters into `extractor`, all or nothing.
// Returns false on I/O failure, a failed envelope check, or if the file's
// parameter layout (count and per-parameter shapes) does not match the
// extractor.
bool load_parameters(FeatureExtractor& extractor, const std::string& path);

}  // namespace duo::models
