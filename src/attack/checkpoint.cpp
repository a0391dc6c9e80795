#include "attack/checkpoint.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "models/serialization.hpp"

namespace duo::attack {

namespace {

using models::io::load_sealed;
using models::io::read_f64;
using models::io::read_f64_vec;
using models::io::read_i64;
using models::io::read_i64_vec;
using models::io::read_tensor;
using models::io::read_u64;
using models::io::save_sealed;
using models::io::write_f64;
using models::io::write_f64_vec;
using models::io::write_i64;
using models::io::write_i64_vec;
using models::io::write_tensor;
using models::io::write_u64;

// 'DUOA2' and 'DUOD3' are sealed files (models::io::save_sealed); a 'DUOA1'
// or 'DUOD2' checkpoint fails the magic check and a resumed run falls back
// to a fresh start.
constexpr char kSparseQueryMagic[8] = {'D', 'U', 'O', 'A', '2', '\0', '\0',
                                       '\0'};
constexpr char kDuoMagic[8] = {'D', 'U', 'O', 'D', '3', '\0', '\0', '\0'};

void write_geometry(std::ostream& out, const video::VideoGeometry& g) {
  write_i64(out, g.frames);
  write_i64(out, g.width);
  write_i64(out, g.height);
  write_i64(out, g.channels);
}

bool read_geometry(std::istream& in, video::VideoGeometry& g) {
  return read_i64(in, g.frames) && read_i64(in, g.width) &&
         read_i64(in, g.height) && read_i64(in, g.channels);
}

bool read_flag(std::istream& in, bool& flag) {
  std::uint64_t v = 0;
  if (!read_u64(in, v) || v > 1) return false;
  flag = v == 1;
  return true;
}

}  // namespace

bool save_checkpoint(const SparseQueryCheckpoint& ck, const std::string& path) {
  return save_sealed(path, kSparseQueryMagic, [&](std::ostream& out) {
    write_geometry(out, ck.geometry);
    write_u64(out, ck.seed);
    write_i64(out, ck.support_size);
    write_u64(out, ck.source_hash);
    write_i64(out, ck.next_iteration);
    write_f64(out, ck.t_current);
    write_f64_vec(out, ck.t_history);
    write_i64(out, ck.queries);
    write_i64(out, ck.stall);
    write_u64(out, ck.rng_state);
    write_i64_vec(out, ck.deck);
    write_i64(out, ck.deck_pos);
    write_tensor(out, ck.v_adv);
  });
}

bool load_checkpoint(SparseQueryCheckpoint& ck, const std::string& path) {
  SparseQueryCheckpoint staged;
  const auto read = [&](std::istream& in) {
    if (!read_geometry(in, staged.geometry) || !read_u64(in, staged.seed) ||
        !read_i64(in, staged.support_size) ||
        !read_u64(in, staged.source_hash) ||
        !read_i64(in, staged.next_iteration) ||
        !read_f64(in, staged.t_current) ||
        !read_f64_vec(in, staged.t_history) || !read_i64(in, staged.queries) ||
        !read_i64(in, staged.stall) || !read_u64(in, staged.rng_state) ||
        !read_i64_vec(in, staged.deck) || !read_i64(in, staged.deck_pos) ||
        !read_tensor(in, staged.v_adv)) {
      return false;
    }
    // Internal consistency: the cursor sits inside the deck, the video has
    // the recorded geometry's shape (compared per dimension, so a corrupt
    // geometry cannot overflow an element count), and every deck entry is
    // an element of that video.
    return staged.deck_pos >= 0 &&
           staged.deck_pos <= static_cast<std::int64_t>(staged.deck.size()) &&
           staged.next_iteration >= 1 &&
           staged.v_adv.shape() == staged.geometry.tensor_shape() &&
           std::all_of(staged.deck.begin(), staged.deck.end(),
                       [&](std::int64_t d) {
                         return d >= 0 && d < staged.v_adv.size();
                       });
  };
  // Stage, then commit: a failed load leaves `ck` untouched.
  if (!load_sealed(path, kSparseQueryMagic, read)) return false;
  ck = std::move(staged);
  return true;
}

bool save_checkpoint(const DuoCheckpoint& ck, const std::string& path) {
  return save_sealed(path, kDuoMagic, [&](std::ostream& out) {
    write_geometry(out, ck.geometry);
    write_u64(out, ck.source_hash);
    write_i64(out, ck.iter_numH);
    write_i64(out, ck.next_round);
    write_f64_vec(out, ck.t_history);
    write_i64(out, ck.queries);
    write_u64(out, ck.has_ctx ? 1 : 0);
    if (ck.has_ctx) {
      write_i64_vec(out, ck.list_v);
      write_i64_vec(out, ck.list_vt);
    }
    write_tensor(out, ck.v_cur);
    write_u64(out, ck.has_init ? 1 : 0);
    if (ck.has_init) {
      write_tensor(out, ck.pixel_mask);
      write_tensor(out, ck.frame_mask);
    }
  });
}

bool load_checkpoint(DuoCheckpoint& ck, const std::string& path) {
  DuoCheckpoint staged;
  const auto read = [&](std::istream& in) {
    if (!read_geometry(in, staged.geometry) ||
        !read_u64(in, staged.source_hash) || !read_i64(in, staged.iter_numH) ||
        !read_i64(in, staged.next_round) ||
        !read_f64_vec(in, staged.t_history) || !read_i64(in, staged.queries) ||
        !read_flag(in, staged.has_ctx) ||
        (staged.has_ctx && (!read_i64_vec(in, staged.list_v) ||
                            !read_i64_vec(in, staged.list_vt))) ||
        !read_tensor(in, staged.v_cur) || !read_flag(in, staged.has_init) ||
        (staged.has_init && (!read_tensor(in, staged.pixel_mask) ||
                             !read_tensor(in, staged.frame_mask)))) {
      return false;
    }
    // The round input and both masks have the recorded geometry's shape.
    const Tensor::Shape shape = staged.geometry.tensor_shape();
    return staged.next_round >= 0 && staged.v_cur.shape() == shape &&
           (!staged.has_init || (staged.pixel_mask.shape() == shape &&
                                 staged.frame_mask.shape() == shape));
  };
  // Stage, then commit: a failed load leaves `ck` untouched.
  if (!load_sealed(path, kDuoMagic, read)) return false;
  ck = std::move(staged);
  return true;
}

}  // namespace duo::attack
