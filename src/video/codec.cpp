#include "video/codec.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

namespace duo::video {

namespace {
constexpr char kMagic[8] = {'D', 'U', 'O', 'V', '1', '\0', '\0', '\0'};

struct Header {
  char magic[8];
  std::int64_t frames;
  std::int64_t width;
  std::int64_t height;
  std::int64_t channels;
  std::int64_t label;
  std::int64_t id;
};
}  // namespace

bool save_video(const Video& v, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const VideoGeometry& g = v.geometry();
  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.frames = g.frames;
  h.width = g.width;
  h.height = g.height;
  h.channels = g.channels;
  h.label = v.label();
  h.id = v.id();
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));

  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(g.total_elements()));
  const float* data = v.data().data();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const float clamped = std::min(255.0f, std::max(0.0f, data[i]));
    bytes[i] = static_cast<std::uint8_t>(std::lround(clamped));
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<Video> load_video(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Header h{};
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in || std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  // The header is untrusted: every dimension must be positive and their
  // product must fit in the bytes left in the file before anything is
  // allocated. Dividing the budget keeps the product from overflowing.
  const std::streamoff data_begin = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff remaining = in.tellg() - data_begin;
  in.seekg(data_begin);
  std::int64_t count = 1;
  for (const std::int64_t dim : {h.frames, h.width, h.height, h.channels}) {
    if (dim <= 0 || dim > remaining / count) return std::nullopt;
    count *= dim;
  }
  // The label is stored in 64 bits but a Video holds an int; a label that
  // would narrow is as malformed as a bad dimension.
  if (h.label < std::numeric_limits<int>::min() ||
      h.label > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  VideoGeometry g{h.frames, h.width, h.height, h.channels};
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(g.total_elements()));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) return std::nullopt;

  Video v(g, static_cast<int>(h.label), h.id);
  float* data = v.data().data();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    data[i] = static_cast<float>(bytes[i]);
  }
  return v;
}

}  // namespace duo::video
