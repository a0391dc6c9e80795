#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/rng.hpp"
#include "video/codec.hpp"
#include "video/frame_sampler.hpp"
#include "video/synthetic.hpp"
#include "video/video.hpp"

namespace duo::video {
namespace {

TEST(VideoGeometry, ElementCounts) {
  VideoGeometry g{16, 24, 24, 3};
  EXPECT_EQ(g.pixels_per_frame(), 576);
  EXPECT_EQ(g.elements_per_frame(), 1728);
  EXPECT_EQ(g.total_elements(), 27648);
  EXPECT_EQ(g.tensor_shape(), (Tensor::Shape{16, 24, 24, 3}));
}

TEST(VideoGeometry, PaperScaleMatchesUcf101) {
  const VideoGeometry g = VideoGeometry::paper_scale();
  // Table II dense attacks perturb ≈ 602K elements: 16·112·112·3.
  EXPECT_EQ(g.total_elements(), 602112);
}

TEST(Video, ModelInputRoundTrip) {
  VideoGeometry g{2, 3, 4, 3};
  Video v(g, 1, 42);
  Rng rng(1);
  for (auto& x : v.data().flat()) x = std::round(rng.uniform_f(0.0f, 255.0f));

  const Tensor model = v.to_model_input();
  EXPECT_EQ(model.shape(), (Tensor::Shape{3, 2, 4, 3}));
  EXPECT_LE(model.max(), 1.0f);
  EXPECT_GE(model.min(), 0.0f);

  const Tensor back = Video::from_model_space(model, g, true);
  EXPECT_TRUE(back.allclose(v.data(), 1e-3f));
}

TEST(Video, ModelInputLayoutIsChannelMajor) {
  VideoGeometry g{1, 2, 1, 2};
  Video v(g, 0, 0);
  v.pixel(0, 0, 0, 0) = 255.0f;  // frame 0, y 0, x 0, channel 0
  v.pixel(0, 0, 1, 1) = 127.5f;  // x 1, channel 1
  const Tensor m = v.to_model_input();
  EXPECT_FLOAT_EQ(m.at(0, 0, 0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0, 0, 1), 0.5f);
}

// The layout permutes must reproduce the element-wise formulation (one
// multiply per element, read and written through at()) bit for bit.
TEST(Video, ModelSpacePermutesMatchElementwiseReference) {
  const auto bits = [](float x) { return std::bit_cast<std::uint32_t>(x); };
  for (const VideoGeometry g : {VideoGeometry{3, 5, 7, 3},
                                VideoGeometry{2, 4, 6, 2}}) {
    Video v(g, 0, 0);
    Rng rng(11);
    for (auto& x : v.data().flat()) x = rng.uniform_f(-20.0f, 300.0f);
    const Tensor model = v.to_model_input();
    const Tensor pixels = Video::from_model_space(model, g, true);
    const Tensor unit = Video::from_model_space(model, g, false);
    ASSERT_EQ(model.shape(),
              (Tensor::Shape{g.channels, g.frames, g.height, g.width}));
    for (std::int64_t n = 0; n < g.frames; ++n) {
      for (std::int64_t y = 0; y < g.height; ++y) {
        for (std::int64_t x = 0; x < g.width; ++x) {
          for (std::int64_t c = 0; c < g.channels; ++c) {
            const float m = model.at(c, n, y, x);
            ASSERT_EQ(bits(m), bits(v.data().at(n, y, x, c) * (1.0f / 255.0f)));
            ASSERT_EQ(bits(pixels.at(n, y, x, c)), bits(m * 255.0f));
            ASSERT_EQ(bits(unit.at(n, y, x, c)), bits(m * 1.0f));
          }
        }
      }
    }
  }
}

TEST(Video, ClampValid) {
  VideoGeometry g{1, 2, 2, 1};
  Video v(g, 0, 0);
  v.data()[0] = -10.0f;
  v.data()[1] = 300.0f;
  v.clamp_valid();
  EXPECT_FLOAT_EQ(v.data()[0], 0.0f);
  EXPECT_FLOAT_EQ(v.data()[1], 255.0f);
}

TEST(FrameSampler, UniformIndicesSpreadEvenly) {
  const auto idx = uniform_sample_indices(32, 16);
  ASSERT_EQ(idx.size(), 16u);
  EXPECT_EQ(idx.front(), 1);
  EXPECT_EQ(idx.back(), 31);
  for (std::size_t i = 1; i < idx.size(); ++i) EXPECT_GT(idx[i], idx[i - 1]);
}

TEST(FrameSampler, IdentityWhenCountsMatch) {
  const auto idx = uniform_sample_indices(16, 16);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(idx[i], static_cast<std::int64_t>(i));
  }
}

TEST(FrameSampler, SamplesVideoTo16Frames) {
  VideoGeometry g{40, 4, 4, 3};
  Video v(g, 3, 9);
  for (std::int64_t f = 0; f < g.frames; ++f) {
    v.pixel(f, 0, 0, 0) = static_cast<float>(f);
  }
  const Video sampled = uniform_sample(v, 16);
  EXPECT_EQ(sampled.geometry().frames, 16);
  EXPECT_EQ(sampled.label(), 3);
  EXPECT_EQ(sampled.id(), 9);
  // Frame markers must be increasing samples of the original indices.
  float prev = -1.0f;
  for (std::int64_t f = 0; f < 16; ++f) {
    const float marker = sampled.pixel(f, 0, 0, 0);
    EXPECT_GT(marker, prev);
    prev = marker;
  }
}

TEST(Synthetic, DeterministicGeneration) {
  const auto spec = DatasetSpec::hmdb51_like(99);
  SyntheticGenerator gen1(spec), gen2(spec);
  const Dataset a = gen1.generate();
  const Dataset b = gen2.generate();
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_TRUE(a.train[i].data().allclose(b.train[i].data()));
  }
}

TEST(Synthetic, SpecSizes) {
  const auto ucf = DatasetSpec::ucf101_like();
  EXPECT_EQ(static_cast<int>(SyntheticGenerator(ucf).generate().train.size()),
            ucf.train_size());
  EXPECT_EQ(static_cast<int>(SyntheticGenerator(ucf).generate().test.size()),
            ucf.test_size());
}

TEST(Synthetic, UniqueIdsAndValidLabels) {
  const auto spec = DatasetSpec::hmdb51_like();
  const Dataset ds = SyntheticGenerator(spec).generate();
  std::unordered_set<std::int64_t> ids;
  for (const auto& v : ds.train) {
    EXPECT_TRUE(ids.insert(v.id()).second);
    EXPECT_GE(v.label(), 0);
    EXPECT_LT(v.label(), spec.num_classes);
  }
  for (const auto& v : ds.test) {
    EXPECT_TRUE(ids.insert(v.id()).second);
  }
}

TEST(Synthetic, PixelsAreIntegralAndInRange) {
  const Dataset ds = SyntheticGenerator(DatasetSpec::hmdb51_like()).generate();
  const auto& v = ds.train.front();
  for (std::int64_t i = 0; i < v.data().size(); ++i) {
    const float x = v.data()[i];
    EXPECT_GE(x, 0.0f);
    EXPECT_LE(x, 255.0f);
    EXPECT_FLOAT_EQ(x, std::round(x));
  }
}

TEST(Synthetic, SameClassVideosShareChannelContrastSignature) {
  // Raw pixel distance is dominated by the class-independent background (by
  // design — that is what gives different-class queries overlapping
  // retrieval lists). The class signal lives in content statistics; the
  // per-channel contrast (std-dev) vector reflects the class color mix and
  // must cluster by class.
  auto spec = DatasetSpec::hmdb51_like(5);
  spec.num_classes = 4;
  spec.train_per_class = 6;
  spec.test_per_class = 0;
  const Dataset ds = SyntheticGenerator(spec).generate();

  auto signature = [](const Video& v) {
    const auto& g = v.geometry();
    std::vector<double> mean(static_cast<std::size_t>(g.channels), 0.0);
    std::vector<double> var(static_cast<std::size_t>(g.channels), 0.0);
    const std::int64_t per_channel = v.data().size() / g.channels;
    for (std::int64_t i = 0; i < v.data().size(); ++i) {
      mean[static_cast<std::size_t>(i % g.channels)] += v.data()[i];
    }
    for (auto& m : mean) m /= static_cast<double>(per_channel);
    for (std::int64_t i = 0; i < v.data().size(); ++i) {
      const double d =
          v.data()[i] - mean[static_cast<std::size_t>(i % g.channels)];
      var[static_cast<std::size_t>(i % g.channels)] += d * d;
    }
    for (auto& x : var) x = std::sqrt(x / static_cast<double>(per_channel));
    return var;
  };

  auto dist = [&](const Video& a, const Video& b) {
    const auto sa = signature(a), sb = signature(b);
    double acc = 0.0;
    for (std::size_t c = 0; c < sa.size(); ++c) {
      acc += (sa[c] - sb[c]) * (sa[c] - sb[c]);
    }
    return std::sqrt(acc);
  };

  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (std::size_t i = 0; i < ds.train.size(); ++i) {
    for (std::size_t j = i + 1; j < ds.train.size(); ++j) {
      const double d = dist(ds.train[i], ds.train[j]);
      if (ds.train[i].label() == ds.train[j].label()) {
        intra += d;
        ++n_intra;
      } else {
        inter += d;
        ++n_inter;
      }
    }
  }
  EXPECT_LT(intra / n_intra, inter / n_inter);
}

TEST(Synthetic, EventWindowFramesDifferFromBaseline) {
  // Key-frame phenomenon: frames inside the class event window carry the
  // flash pattern, so they differ more across (event vs non-event) than
  // within non-event frames of the same video.
  auto spec = DatasetSpec::hmdb51_like(6);
  SyntheticGenerator gen(spec);
  const auto& pattern = gen.pattern(0);
  const Video v = gen.make_video(0, 0, 1234);
  const std::int64_t fe = v.geometry().elements_per_frame();

  const std::int64_t event_frame = pattern.event_start;
  std::int64_t nonevent_frame = -1;
  for (std::int64_t f = 0; f < v.geometry().frames; ++f) {
    if (f < pattern.event_start || f >= pattern.event_start + pattern.event_length) {
      nonevent_frame = f;
      break;
    }
  }
  ASSERT_GE(nonevent_frame, 0);

  double event_energy = 0.0, base_energy = 0.0;
  for (std::int64_t e = 0; e < fe; ++e) {
    const float ev = v.data()[event_frame * fe + e] - 127.5f;
    const float ba = v.data()[nonevent_frame * fe + e] - 127.5f;
    event_energy += ev * ev;
    base_energy += ba * ba;
  }
  // The flash adds signal energy on top of the base pattern.
  EXPECT_GT(event_energy, base_energy * 1.02);
}

TEST(Codec, SaveLoadRoundTrip) {
  const Dataset ds = SyntheticGenerator(DatasetSpec::hmdb51_like(8)).generate();
  const Video& v = ds.train.front();
  const std::string path = "/tmp/duo_test_video.duov";
  ASSERT_TRUE(save_video(v, path));
  const auto loaded = load_video(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->label(), v.label());
  EXPECT_EQ(loaded->id(), v.id());
  EXPECT_TRUE(loaded->data().allclose(v.data(), 0.51f));
  std::remove(path.c_str());
}

TEST(Codec, RejectsGarbageFile) {
  const std::string path = "/tmp/duo_test_garbage.duov";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a video";
  }
  EXPECT_FALSE(load_video(path).has_value());
  std::remove(path.c_str());
}

TEST(Codec, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_video("/tmp/does_not_exist_duo.duov").has_value());
}

// Writes a .duov file by hand: magic, a header with the given dimensions
// (frames, width, height, channels), `label`, id 7, then `pixels` bytes
// 0, 1, 2, ...
void write_duov(const std::string& path, std::array<std::int64_t, 4> dims,
                std::int64_t pixels, std::int64_t label = 3) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("DUOV1\0\0\0", 8);
  const std::int64_t id = 7;
  for (const std::int64_t field : {dims[0], dims[1], dims[2], dims[3], label,
                                   id}) {
    out.write(reinterpret_cast<const char*>(&field), sizeof(field));
  }
  for (std::int64_t i = 0; i < pixels; ++i) out.put(static_cast<char>(i));
}

// The header is read from the file, so its dimensions must be checked
// against the bytes that follow before the loader allocates for them. A
// header that fits loads; one claiming more pixels than the file holds, a
// product of about 3 GB, or one past 2^63 returns nullopt, and none may
// throw (bad_alloc) or crash.
TEST(Codec, HeaderMustFitTheFile) {
  const std::string path = ::testing::TempDir() + "duo_codec_header.duov";
  write_duov(path, {2, 3, 4, 1}, 24);
  const auto loaded = load_video(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->geometry().tensor_shape(), (Tensor::Shape{2, 4, 3, 1}));
  EXPECT_EQ(loaded->label(), 3);
  EXPECT_EQ(loaded->id(), 7);
  for (std::int64_t i = 0; i < 24; ++i) {
    EXPECT_EQ(loaded->data()[i], static_cast<float>(i)) << i;
  }

  const std::int64_t k16 = std::int64_t{1} << 16;
  const struct {
    const char* label;
    std::array<std::int64_t, 4> dims;
  } hostile[] = {
      {"one byte short", {2, 3, 4, 1}},
      {"2^20 x 2^10 x 2^10 x 3", {std::int64_t{1} << 20, 1 << 10, 1 << 10, 3}},
      {"2^16 on every axis", {k16, k16, k16, k16}},
      {"zero frames", {0, 3, 4, 1}},
      {"negative width", {2, -3, 4, 1}},
  };
  for (const auto& c : hostile) {
    write_duov(path, c.dims, 23);
    std::optional<Video> result;
    EXPECT_NO_THROW(result = load_video(path)) << c.label;
    EXPECT_FALSE(result.has_value()) << c.label;
  }
  std::remove(path.c_str());
}

// The header stores the label in 64 bits; a Video holds an int. A label
// outside int must be rejected, not narrowed (2^32 + 3 would load as 3).
TEST(Codec, RejectsLabelOutsideInt) {
  const std::string path = ::testing::TempDir() + "duo_codec_label.duov";
  constexpr std::int64_t kMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  for (const std::int64_t label : {kMin, std::int64_t{-1}, kMax}) {
    write_duov(path, {2, 3, 4, 1}, 24, label);
    const auto loaded = load_video(path);
    ASSERT_TRUE(loaded.has_value()) << label;
    EXPECT_EQ(loaded->label(), label);
  }
  for (const std::int64_t label :
       {(std::int64_t{1} << 32) + 3, kMax + 1, kMin - 1,
        std::numeric_limits<std::int64_t>::min()}) {
    write_duov(path, {2, 3, 4, 1}, 24, label);
    std::optional<Video> result;
    EXPECT_NO_THROW(result = load_video(path)) << label;
    EXPECT_FALSE(result.has_value()) << label;
  }
  std::remove(path.c_str());
}

// Seeded corruption of a saved video: bit flips, truncations and edits to
// every header field (each dimension, the label and the id). Each mutant
// must either be rejected or load a video no larger than the file's pixel
// bytes that saves back and reloads equal; none may throw or crash.
TEST(Codec, LoaderSurvivesSeededMutation) {
  const std::string dir = ::testing::TempDir();
  const std::string base_path = dir + "duo_codec_mutation_base.duov";
  const std::string path = dir + "duo_codec_mutant.duov";
  const std::string resaved_path = dir + "duo_codec_mutant_resaved.duov";

  Rng rng(2024);
  Video original(VideoGeometry{3, 5, 4, 3}, 11, 42);
  for (std::int64_t i = 0; i < original.data().size(); ++i) {
    original.data()[i] = static_cast<float>(rng.uniform_int(0, 255));
  }
  ASSERT_TRUE(save_video(original, base_path));
  std::vector<char> base;
  {
    std::ifstream in(base_path, std::ios::binary);
    base.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kHeaderBytes = 8 + 6 * sizeof(std::int64_t);
  ASSERT_EQ(base.size(),
            kHeaderBytes +
                static_cast<std::size_t>(original.geometry().total_elements()));

  // Values a hostile or corrupted header field takes.
  const std::int64_t k64min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t k64max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t field_values[] = {
      0, 1, 2, 3, 4, 5, 180, 181, -1, -2, k64min, k64max,
      std::numeric_limits<int>::max(),
      std::int64_t{std::numeric_limits<int>::max()} + 1,
      std::numeric_limits<int>::min(),
      std::int64_t{std::numeric_limits<int>::min()} - 1,
      (std::int64_t{1} << 32) + 3, std::int64_t{1} << 62};

  constexpr int kMutants = 12000;
  int loaded_count = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::vector<char> bytes = base;
    switch (m % 3) {
      case 0: {  // 1-8 bit flips anywhere in the file
        const int flips = rng.uniform_int(1, 8);
        for (int f = 0; f < flips; ++f) {
          const auto at = rng.uniform_index(bytes.size());
          bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        break;
      }
      case 1:  // truncation to any shorter length
        bytes.resize(rng.uniform_index(bytes.size()));
        break;
      default: {  // one header field (dimension, label or id) edited
        const int field = (m / 3) % 6;
        std::int64_t value = 0;
        if (rng.uniform_int(0, 1) == 0) {
          value = field_values[rng.uniform_index(std::size(field_values))];
        } else {
          std::memcpy(&value, bytes.data() + 8 + field * 8, sizeof(value));
          value += rng.uniform_int(-3, 3);
        }
        std::memcpy(bytes.data() + 8 + field * 8, &value, sizeof(value));
        break;
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    std::optional<Video> loaded;
    ASSERT_NO_THROW(loaded = load_video(path)) << "mutant " << m;
    if (!loaded) continue;
    ++loaded_count;
    const auto pixel_bytes =
        static_cast<std::int64_t>(bytes.size() - kHeaderBytes);
    ASSERT_LE(loaded->geometry().total_elements(), pixel_bytes)
        << "mutant " << m;
    ASSERT_TRUE(save_video(*loaded, resaved_path)) << "mutant " << m;
    std::optional<Video> reloaded;
    ASSERT_NO_THROW(reloaded = load_video(resaved_path)) << "mutant " << m;
    ASSERT_TRUE(reloaded.has_value()) << "mutant " << m;
    EXPECT_EQ(reloaded->geometry(), loaded->geometry()) << "mutant " << m;
    EXPECT_EQ(reloaded->label(), loaded->label()) << "mutant " << m;
    EXPECT_EQ(reloaded->id(), loaded->id()) << "mutant " << m;
    ASSERT_EQ(reloaded->data().size(), loaded->data().size());
    for (std::int64_t i = 0; i < loaded->data().size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(reloaded->data()[i]),
                std::bit_cast<std::uint32_t>(loaded->data()[i]))
          << "mutant " << m << " pixel " << i;
    }
  }
  // Some mutants (pixel flips, id edits, smaller dimensions) stay loadable,
  // so the save-back path above really ran.
  EXPECT_GT(loaded_count, kMutants / 10);
  std::remove(base_path.c_str());
  std::remove(path.c_str());
  std::remove(resaved_path.c_str());
}

}  // namespace
}  // namespace duo::video
