#include "retrieval/system.hpp"

#include <unordered_set>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace duo::retrieval {

RetrievalSystem::RetrievalSystem(
    std::unique_ptr<models::FeatureExtractor> extractor, IndexConfig config)
    : extractor_(std::move(extractor)),
      index_config_(config),
      index_(make_index(extractor_ ? extractor_->feature_dim() : 1, config)) {
  DUO_CHECK_MSG(extractor_ != nullptr, "RetrievalSystem: null extractor");
  extractor_->set_training(false);
}

RetrievalSystem::RetrievalSystem(
    std::unique_ptr<models::FeatureExtractor> extractor, std::size_t num_nodes)
    : RetrievalSystem(std::move(extractor), [num_nodes] {
        IndexConfig config;
        config.kind = IndexKind::kFlat;
        config.num_nodes = num_nodes;
        return config;
      }()) {}

void RetrievalSystem::add_to_gallery(const video::Video& v) {
  // Validate before mutating: a rejected video must leave the index and the
  // label maps exactly as they were.
  DUO_CHECK_MSG(labels_.find(v.id()) == labels_.end(), "duplicate gallery id");
  GalleryEntry entry;
  entry.id = v.id();
  entry.label = v.label();
  entry.feature = extractor_->extract(v);
  index_->add(entry);
  labels_.emplace(v.id(), v.label());
  ++label_counts_[v.label()];
}

bool RetrievalSystem::remove_from_gallery(std::int64_t gallery_id) {
  const auto it = labels_.find(gallery_id);
  if (it == labels_.end()) return false;
  const bool removed = index_->remove(gallery_id);
  DUO_CHECK_MSG(removed, "RetrievalSystem: index and label map out of sync");
  const auto count_it = label_counts_.find(it->second);
  DUO_CHECK_MSG(count_it != label_counts_.end() && count_it->second > 0,
                "RetrievalSystem: label count underflow");
  if (--count_it->second == 0) label_counts_.erase(count_it);
  labels_.erase(it);
  return true;
}

void RetrievalSystem::add_all(const std::vector<video::Video>& videos) {
  // Validate the whole batch (against the gallery and within the batch)
  // before touching anything, so a duplicate anywhere rejects atomically.
  std::unordered_set<std::int64_t> batch_ids;
  batch_ids.reserve(videos.size());
  for (const auto& v : videos) {
    DUO_CHECK_MSG(labels_.find(v.id()) == labels_.end(),
                  "duplicate gallery id");
    DUO_CHECK_MSG(batch_ids.insert(v.id()).second,
                  "duplicate gallery id within batch");
  }
  const std::vector<Tensor> features = extract_features(videos);
  for (std::size_t i = 0; i < videos.size(); ++i) {
    const auto& v = videos[i];
    GalleryEntry entry;
    entry.id = v.id();
    entry.label = v.label();
    entry.feature = features[i];
    index_->add(entry);
    labels_.emplace(v.id(), v.label());
    ++label_counts_[v.label()];
  }
  // Bulk ingest is the natural training point for a coarse-quantized index
  // (no-op for the flat one, or when already trained).
  index_->finalize();
}

std::vector<Tensor> RetrievalSystem::extract_features(
    const std::vector<video::Video>& videos) {
  return extractor_->extract_batch(videos);
}

metrics::RetrievalList RetrievalSystem::retrieve(const video::Video& v,
                                                 std::size_t m) {
  const auto detailed = retrieve_detailed(v, m);
  metrics::RetrievalList out;
  out.reserve(detailed.size());
  for (const auto& n : detailed) out.push_back(n.id);
  return out;
}

std::vector<Neighbor> RetrievalSystem::retrieve_detailed(const video::Video& v,
                                                         std::size_t m) {
  const Tensor feature = extractor_->extract(v);
  return retrieve_feature(feature, m);
}

std::vector<Neighbor> RetrievalSystem::retrieve_feature(const Tensor& feature,
                                                        std::size_t m) const {
  // Inside evaluate_map, which shards per query, and on a serve lane, the
  // pool runs this fan-out inline.
  return index_->query(feature, m, /*parallel=*/true);
}

bool RetrievalSystem::load_gallery_index(const std::string& path) {
  // Stage into a scratch index so a rejected file leaves the live one
  // untouched, then sanity-check the restored entry count against the label
  // bookkeeping this system already holds — the file's digest catches
  // corruption, this catches "valid snapshot of the wrong gallery".
  auto staged = make_index(extractor_->feature_dim(), index_config_);
  if (!retrieval::load_index(*staged, path)) return false;
  if (staged->size() != labels_.size()) return false;
  index_ = std::move(staged);
  return true;
}

int RetrievalSystem::label_of(std::int64_t gallery_id) const {
  const auto it = labels_.find(gallery_id);
  DUO_CHECK_MSG(it != labels_.end(), "unknown gallery id");
  return it->second;
}

std::int64_t RetrievalSystem::relevant_count(int label) const {
  const auto it = label_counts_.find(label);
  return it == label_counts_.end() ? 0 : it->second;
}

double evaluate_map(RetrievalSystem& system,
                    const std::vector<video::Video>& queries, std::size_t m) {
  if (queries.empty()) return 0.0;
  // Extraction is parallelized over extractor replicas; the per-query index
  // scan and AP are independent, so they shard freely. The final sum runs in
  // query order, keeping the result bitwise stable across thread counts.
  const std::vector<Tensor> features = system.extract_features(queries);
  std::vector<double> ap(queries.size(), 0.0);
  compute_pool().parallel_for(queries.size(), [&](std::size_t qi) {
    const auto& q = queries[qi];
    const auto result = system.retrieve_feature(features[qi], m);
    std::vector<bool> relevant(result.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      relevant[i] = result[i].label == q.label();
    }
    ap[qi] = metrics::average_precision(relevant,
                                        system.relevant_count(q.label()));
  });
  double acc = 0.0;
  for (const double a : ap) acc += a;
  return acc / static_cast<double>(queries.size());
}

}  // namespace duo::retrieval
