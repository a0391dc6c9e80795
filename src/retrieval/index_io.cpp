#include <string>

#include "retrieval/index.hpp"

#include "models/serialization.hpp"

namespace duo::retrieval {
namespace {

constexpr char kIndexMagic[8] = {'D', 'U', 'O', 'I', 'X', '1', '\0', '\0'};

}  // namespace

bool save_index(const GalleryIndex& index, const std::string& path) {
  return models::io::save_sealed(
      path, kIndexMagic, [&](std::ostream& out) { index.save_state(out); });
}

bool load_index(GalleryIndex& index, const std::string& path) {
  return models::io::load_sealed(path, kIndexMagic, [&](std::istream& in) {
    return index.load_state(in);
  });
}

}  // namespace duo::retrieval
