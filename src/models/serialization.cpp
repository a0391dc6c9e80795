#include "models/serialization.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace duo::models {

namespace io {

void write_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

bool read_u64(std::istream& in, std::uint64_t& value) {
  std::uint64_t buf = 0;
  in.read(reinterpret_cast<char*>(&buf), sizeof(buf));
  if (!in) return false;
  value = buf;
  return true;
}

void write_i64(std::ostream& out, std::int64_t value) {
  write_u64(out, static_cast<std::uint64_t>(value));
}

bool read_i64(std::istream& in, std::int64_t& value) {
  std::uint64_t buf = 0;
  if (!read_u64(in, buf)) return false;
  value = static_cast<std::int64_t>(buf);
  return true;
}

void write_f64(std::ostream& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  write_u64(out, bits);
}

bool read_f64(std::istream& in, double& value) {
  std::uint64_t bits = 0;
  if (!read_u64(in, bits)) return false;
  std::memcpy(&value, &bits, sizeof(value));
  return true;
}

namespace {

// True when `count` elements of `elem_bytes` bytes each fit in what is left
// of `in`. Checked before every allocation, so a corrupt length prefix cannot
// claim more memory than the stream holds. A stream that cannot tell its
// position fails the check.
bool payload_fits(std::istream& in, std::int64_t count,
                  std::int64_t elem_bytes) {
  const std::streampos pos = in.tellg();
  if (count < 0 || pos < 0) return false;
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(pos);
  return in && end >= pos && count <= (end - pos) / elem_bytes;
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  write_i64(out, static_cast<std::int64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
bool read_vec(std::istream& in, std::vector<T>& v) {
  std::int64_t size = 0;
  if (!read_i64(in, size) || !payload_fits(in, size, sizeof(T))) return false;
  std::vector<T> staged(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(staged.data()),
          static_cast<std::streamsize>(staged.size() * sizeof(T)));
  if (!in) return false;
  v = std::move(staged);
  return true;
}

}  // namespace

void write_tensor(std::ostream& out, const Tensor& t) {
  write_i64(out, static_cast<std::int64_t>(t.rank()));
  for (std::size_t d = 0; d < t.rank(); ++d) write_i64(out, t.dim(d));
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
}

bool read_tensor(std::istream& in, Tensor& t) {
  std::int64_t rank = 0;
  if (!read_i64(in, rank) || rank < 0 || rank > 8) return false;
  Tensor::Shape shape(static_cast<std::size_t>(rank));
  constexpr std::int64_t kMaxElements =
      std::numeric_limits<std::int32_t>::max();
  std::int64_t elements = 1;
  for (auto& dim : shape) {
    // Both factors stay below 2^31, so the product cannot overflow.
    if (!read_i64(in, dim) || dim < 0 || dim > kMaxElements) return false;
    elements *= dim;
    if (elements > kMaxElements) return false;
  }
  if (!payload_fits(in, elements, sizeof(float))) return false;
  Tensor staged(std::move(shape));
  in.read(reinterpret_cast<char*>(staged.data()),
          static_cast<std::streamsize>(staged.size() * sizeof(float)));
  if (!in) return false;
  t = std::move(staged);
  return true;
}

void write_i64_vec(std::ostream& out, const std::vector<std::int64_t>& v) {
  write_vec(out, v);
}
bool read_i64_vec(std::istream& in, std::vector<std::int64_t>& v) {
  return read_vec(in, v);
}
void write_f64_vec(std::ostream& out, const std::vector<double>& v) {
  write_vec(out, v);
}
bool read_f64_vec(std::istream& in, std::vector<double>& v) {
  return read_vec(in, v);
}
void write_f32_vec(std::ostream& out, const std::vector<float>& v) {
  write_vec(out, v);
}
bool read_f32_vec(std::istream& in, std::vector<float>& v) {
  return read_vec(in, v);
}
void write_i32_vec(std::ostream& out, const std::vector<int>& v) {
  write_vec(out, v);
}
bool read_i32_vec(std::istream& in, std::vector<int>& v) {
  return read_vec(in, v);
}
void write_i8_vec(std::ostream& out, const std::vector<std::int8_t>& v) {
  write_vec(out, v);
}
bool read_i8_vec(std::istream& in, std::vector<std::int8_t>& v) {
  return read_vec(in, v);
}

void write_string(std::ostream& out, const std::string& s) {
  write_i64(out, static_cast<std::int64_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool read_string(std::istream& in, std::string& s) {
  std::int64_t size = 0;
  if (!read_i64(in, size) || size < 0 || size > (1 << 20)) return false;
  std::string staged(static_cast<std::size_t>(size), '\0');
  in.read(staged.data(), static_cast<std::streamsize>(staged.size()));
  if (!in) return false;
  s = std::move(staged);
  return true;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  return fnv1a(data, bytes, 0xCBF29CE484222325ULL);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t basis) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = basis;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv1a(const Tensor& t) {
  return fnv1a(t.data(), static_cast<std::size_t>(t.size()) * sizeof(float));
}

namespace {

// fsync the file at `path` (and with O_DIRECTORY, the directory itself).
// rename() orders the publish against other *metadata* operations, but not
// against the tmp file's *data* reaching disk: without an fsync of the file
// before the rename — and of the parent directory after it — a power loss
// can publish a valid-looking name pointing at truncated bytes, which
// defeats the whole point of write-then-rename. Windows has no fsync/dirfd
// equivalents here; the stream flush above is the best this code path gets.
bool sync_path(const std::string& path, bool directory) {
#ifndef _WIN32
  const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_WRONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  (void)directory;
  return true;
#endif
}

std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

bool atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    try {
      write(out);
    } catch (...) {
      out.close();
      std::remove(tmp.c_str());
      throw;
    }
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  // Data must be durable BEFORE the rename publishes the name; the directory
  // fsync after makes the rename itself durable.
  if (!sync_path(tmp, /*directory=*/false)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  sync_path(parent_dir(path), /*directory=*/true);
  return true;
}

bool save_sealed(const std::string& path, const char (&magic)[8],
                 const std::function<void(std::ostream&)>& write) {
  // A crash mid-save can never publish a digest that matches truncated
  // bytes: the payload is complete before the file is opened.
  std::ostringstream payload_out(std::ios::binary);
  write(payload_out);
  if (!payload_out) return false;
  const std::string payload = std::move(payload_out).str();
  return atomic_write(path, [&](std::ostream& out) {
    out.write(magic, sizeof(magic));
    write_u64(out, fnv1a(payload.data(), payload.size()));
    write_i64(out, static_cast<std::int64_t>(payload.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  });
}

bool load_sealed(const std::string& path, const char (&magic)[8],
                 const std::function<bool(std::istream&)>& read) {
  std::ifstream in(path, std::ios::binary);
  char found[sizeof(magic)] = {};
  std::uint64_t digest = 0;
  std::int64_t size = 0;
  if (!in.read(found, sizeof(found)) ||
      std::memcmp(found, magic, sizeof(found)) != 0 ||
      !read_u64(in, digest) || !read_i64(in, size) ||
      !payload_fits(in, size, 1)) {
    return false;
  }
  std::string payload(static_cast<std::size_t>(size), '\0');
  if (!in.read(payload.data(), size) ||
      fnv1a(payload.data(), payload.size()) != digest) {
    return false;
  }
  std::istringstream payload_in(std::move(payload), std::ios::binary);
  return read(payload_in);
}

}  // namespace io

namespace {
constexpr char kMagic[8] = {'D', 'U', 'O', 'W', '2', '\0', '\0', '\0'};
}

bool save_parameters(FeatureExtractor& extractor, const std::string& path) {
  const auto params = extractor.parameters();
  return io::save_sealed(path, kMagic, [&](std::ostream& out) {
    io::write_i64(out, static_cast<std::int64_t>(params.size()));
    for (const auto* p : params) io::write_tensor(out, p->value);
  });
}

bool load_parameters(FeatureExtractor& extractor, const std::string& path) {
  const auto params = extractor.parameters();
  // All-or-nothing: stage every tensor, then commit.
  std::vector<Tensor> staged(params.size());
  const bool parsed = io::load_sealed(path, kMagic, [&](std::istream& in) {
    std::int64_t count = 0;
    if (!io::read_i64(in, count) ||
        count != static_cast<std::int64_t>(params.size())) {
      return false;
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (!io::read_tensor(in, staged[i]) ||
          staged[i].shape() != params[i]->value.shape()) {
        return false;
      }
    }
    return true;
  });
  if (!parsed) return false;
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), staged[i].data(),
                staged[i].size() * sizeof(float));
  }
  return true;
}

}  // namespace duo::models
