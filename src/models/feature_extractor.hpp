#pragma once

// FeatureExtractor: the deep model of Fig. 1. Maps a video to a feature
// vector Fea(v) ∈ R^D; retrieval ranks gallery videos by L2 distance in this
// space. Attack code additionally needs d(feature-loss)/d(input-video), which
// `backward_to_input` provides after an `extract_*` call.
//
// Extractors are stateful across forward/backward (layer caches), so a single
// instance must not be used from multiple threads concurrently.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/module.hpp"
#include "video/video.hpp"

namespace duo::models {

class FeatureExtractor {
 public:
  virtual ~FeatureExtractor() = default;

  FeatureExtractor() = default;
  FeatureExtractor(const FeatureExtractor&) = delete;
  FeatureExtractor& operator=(const FeatureExtractor&) = delete;

  // Feature for a video (converts to model space internally).
  Tensor extract(const video::Video& v) {
    return extract_model_input(v.to_model_input());
  }

  // Feature for a model-space input [C, T, H, W] in [0, 1].
  virtual Tensor extract_model_input(const Tensor& input) = 0;

  // Features for a batch of videos, in input order — the batched entry point
  // used by gallery ingestion and the serve layer's lanes. The default
  // implementation shards the batch over the compute pool: shard 0 runs on
  // this instance, every other shard on a replica this instance keeps
  // across calls. A replica is made by clone() the first time its shard is
  // needed (more are added when the pool grows), and at the start of every
  // parallel call each one used gets this instance's weights through
  // copy_parameters_from, so a weight update between calls never serves
  // stale features. Kept replicas hold a copy of the weights and the layer
  // caches of their last forward (activations and im2col patch matrices,
  // about 1 MB per replica for MiniI3D at 8×16×16) until this instance is
  // destroyed. Where the pool runs calls inline (ThreadPool::runs_inline: a
  // pool worker, an outer call's own share, a serve lane) and for a
  // non-cloneable extractor, it is a serial extract() loop on this instance
  // that makes no replica. Either way the result is bitwise identical to
  // calling extract() serially on this instance, and overrides must
  // preserve that contract — retrieval answers may not depend on how
  // requests were batched.
  virtual std::vector<Tensor> extract_batch(
      std::span<const video::Video> videos);

  // Gradient of a scalar loss w.r.t. the *model-space input* of the most
  // recent extract call, given d(loss)/d(feature). Also accumulates parameter
  // gradients (harmless at attack time where only input grads are read).
  virtual Tensor backward_to_input(const Tensor& grad_feature) = 0;

  virtual std::vector<nn::Parameter*> parameters() = 0;
  virtual void set_training(bool training) = 0;

  // Deep copy with identical parameters and fresh layer caches, for
  // thread-private replicas in parallel inference (extractors are stateful,
  // see above). Default: nullptr, meaning "not cloneable" — callers must
  // fall back to serial use of the original instance.
  virtual std::unique_ptr<FeatureExtractor> clone() const { return nullptr; }

  virtual std::int64_t feature_dim() const = 0;
  virtual std::string name() const = 0;

  std::int64_t parameter_count() {
    std::int64_t n = 0;
    for (auto* p : parameters()) n += p->size();
    return n;
  }

  // -- data-parallel training support --------------------------------------
  // Replicas made with clone() accumulate parameter gradients locally during
  // backward_to_input; the training loop pulls them off with
  // parameter_grads(), reduces them serially in fixed sample order, and
  // pushes updated weights back with copy_parameters_from().

  void zero_grad() {
    for (auto* p : parameters()) p->zero_grad();
  }

  // Copy of the current parameter gradients, in parameters() order.
  std::vector<Tensor> parameter_grads() {
    std::vector<Tensor> out;
    auto params = parameters();
    out.reserve(params.size());
    for (auto* p : params) out.push_back(p->grad);
    return out;
  }

  // Overwrite this extractor's parameter values with `src`'s. Both must be
  // clones of the same architecture (same parameters() order and shapes).
  void copy_parameters_from(FeatureExtractor& src) {
    auto dst_params = parameters();
    auto src_params = src.parameters();
    DUO_CHECK_MSG(dst_params.size() == src_params.size(),
                  "copy_parameters_from: parameter count mismatch");
    for (std::size_t i = 0; i < dst_params.size(); ++i) {
      dst_params[i]->value = src_params[i]->value;
    }
  }

 private:
  // extract_batch's shard replicas (shard s ≥ 1 runs on replicas_[s - 1]).
  std::vector<std::unique_ptr<FeatureExtractor>> replicas_;
};

// The architectures of the paper's evaluation (§V-B): four victims
// (I3D, TPN, SlowFast, ResNet34), two surrogates (C3D, ResNet18), and the
// generic LSTM+CNN retrieval backbone of Fig. 1.
enum class ModelKind {
  kI3D,
  kTPN,
  kSlowFast,
  kResNet34,
  kC3D,
  kResNet18,
  kLstmNet,
};

const char* model_kind_name(ModelKind kind) noexcept;

// All victim kinds in paper order (Fig. 3 / Table II columns).
std::vector<ModelKind> victim_model_kinds();
// Both surrogate kinds (DUO-C3D, DUO-Res18).
std::vector<ModelKind> surrogate_model_kinds();

// Build a miniature analogue of `kind` for the given input geometry.
// Weights are randomly initialized from `rng` (train before use).
std::unique_ptr<FeatureExtractor> make_extractor(
    ModelKind kind, const video::VideoGeometry& geometry,
    std::int64_t feature_dim, Rng& rng);

}  // namespace duo::models
