#include "models/feature_extractor.hpp"

#include <algorithm>

#include "common/thread_pool.hpp"

namespace duo::models {

std::vector<Tensor> FeatureExtractor::extract_batch(
    std::span<const video::Video> videos) {
  std::vector<Tensor> features(videos.size());
  ThreadPool& pool = compute_pool();
  const std::size_t shards = std::min(pool.size(), videos.size());

  // One extractor per shard: shard 0 is this instance, the rest are kept
  // replicas. Extractors are stateful across forward passes, so sharing one
  // instance across threads is not an option. Where the pool would run the
  // shards one after another on this thread anyway (a pool worker, an outer
  // call's own share, a serve lane), the serial loop below runs on this
  // instance and no replica is made.
  bool parallel = shards >= 2 && !pool.runs_inline();
  while (parallel && replicas_.size() < shards - 1) {
    auto c = clone();
    if (c) {
      replicas_.push_back(std::move(c));
    } else {
      parallel = false;
    }
  }

  if (!parallel) {
    for (std::size_t i = 0; i < videos.size(); ++i) {
      features[i] = extract(videos[i]);
    }
    return features;
  }

  // Weights may have changed since the replicas were made or last used.
  for (std::size_t s = 0; s + 1 < shards; ++s) {
    replicas_[s]->copy_parameters_from(*this);
  }
  pool.parallel_for(shards, [&](std::size_t s) {
    FeatureExtractor& ex = s == 0 ? *this : *replicas_[s - 1];
    for (std::size_t i = s; i < videos.size(); i += shards) {
      features[i] = ex.extract(videos[i]);
    }
  });
  return features;
}

}  // namespace duo::models
