#include "video/video.hpp"

namespace duo::video {

Video::Video(VideoGeometry geometry, int label, std::int64_t id)
    : data_(geometry.tensor_shape()), geometry_(geometry), label_(label), id_(id) {}

Video::Video(Tensor data, VideoGeometry geometry, int label, std::int64_t id)
    : data_(std::move(data)), geometry_(geometry), label_(label), id_(id) {
  DUO_CHECK_MSG(data_.shape() == geometry_.tensor_shape(),
                "Video: data shape does not match geometry");
}

// Both layouts share the pixel index p = (n·H + y)·W + x: the video is
// [p][c] (channels interleaved), the model tensor [c][p] (channel planes).

Tensor Video::to_model_input() const {
  const auto& g = geometry_;
  Tensor out({g.channels, g.frames, g.height, g.width});
  constexpr float kInv255 = 1.0f / 255.0f;
  const std::int64_t pixels = g.frames * g.height * g.width;
  const float* src = data_.data();
  float* dst = out.data();
  for (std::int64_t p = 0; p < pixels; ++p) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      dst[c * pixels + p] = src[p * g.channels + c] * kInv255;
    }
  }
  return out;
}

Tensor Video::from_model_space(const Tensor& model_tensor,
                               const VideoGeometry& g, bool scale_to_pixels) {
  DUO_CHECK_MSG(model_tensor.shape() ==
                    Tensor::Shape({g.channels, g.frames, g.height, g.width}),
                "from_model_space: shape mismatch");
  Tensor out(g.tensor_shape());
  const float scale = scale_to_pixels ? 255.0f : 1.0f;
  const std::int64_t pixels = g.frames * g.height * g.width;
  const float* src = model_tensor.data();
  float* dst = out.data();
  for (std::int64_t p = 0; p < pixels; ++p) {
    for (std::int64_t c = 0; c < g.channels; ++c) {
      dst[p * g.channels + c] = src[c * pixels + p] * scale;
    }
  }
  return out;
}

}  // namespace duo::video
