#pragma once

// RetrievalSystem: feature extractor + distributed index + gallery metadata —
// the victim service R(·) of the paper. BlackBoxHandle is the attacker-facing
// facade: it only exposes retrieve(v, m) and counts queries, enforcing the
// black-box threat model in the type system.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "metrics/metrics.hpp"
#include "models/feature_extractor.hpp"
#include "retrieval/index.hpp"
#include "video/video.hpp"

namespace duo::retrieval {

class RetrievalSystem {
 public:
  // Takes ownership of the (trained) extractor. `config` selects and tunes
  // the gallery index (flat exact scan vs sharded IVF with quantized
  // re-rank — see retrieval/index.hpp); retrieval semantics are identical
  // either way up to IVF's nprobe recall.
  RetrievalSystem(std::unique_ptr<models::FeatureExtractor> extractor,
                  IndexConfig config);
  // Flat-index shorthand: `num_nodes` distributed data nodes.
  explicit RetrievalSystem(std::unique_ptr<models::FeatureExtractor> extractor,
                           std::size_t num_nodes = 4);

  // Featurize and index a gallery video. Rejects duplicate ids (throws
  // std::logic_error) *before* mutating any internal state.
  void add_to_gallery(const video::Video& v);
  // Remove a gallery video by id, keeping the index and the label /
  // relevant-count bookkeeping consistent. Returns false (and changes
  // nothing) when the id is unknown.
  bool remove_from_gallery(std::int64_t gallery_id);
  // Bulk ingestion: features are extracted in parallel (over thread-private
  // extractor replicas) and then indexed in input order, so the resulting
  // gallery is identical to sequential add_to_gallery calls. The whole batch
  // is validated for duplicate ids up front; a rejected batch leaves the
  // system untouched.
  void add_all(const std::vector<video::Video>& videos);

  // Features for a batch of videos, in order. Delegates to
  // FeatureExtractor::extract_batch: parallelized across the compute pool
  // when the extractor is cloneable; bitwise identical to a serial
  // extraction loop either way.
  std::vector<Tensor> extract_features(const std::vector<video::Video>& videos);

  // Top-m retrieval R^m(v): gallery ids in descending similarity.
  metrics::RetrievalList retrieve(const video::Video& v, std::size_t m);
  // Retrieval with distances/labels (used by evaluation harnesses).
  std::vector<Neighbor> retrieve_detailed(const video::Video& v,
                                          std::size_t m);
  // Retrieval for a precomputed feature (no extractor forward). The index
  // scan fans out across shards on compute_pool(); called from inside an
  // outer fan-out (evaluate_map's per-query loop) or on a serve lane, the
  // pool runs the scan inline on the calling thread.
  std::vector<Neighbor> retrieve_feature(const Tensor& feature,
                                         std::size_t m) const;

  models::FeatureExtractor& extractor() noexcept { return *extractor_; }
  const GalleryIndex& index() const noexcept { return *index_; }
  // Serve-layer degradation passthrough (see GalleryIndex::set_degraded):
  // returns whether the underlying index honors degraded mode.
  bool set_index_degraded(bool on) { return index_->set_degraded(on); }
  bool index_degraded() const noexcept { return index_->degraded(); }

  // Durable gallery snapshots (sealed, atomically written files — see
  // retrieval::save_index / load_index). load_gallery_index stages the file
  // into a scratch index built from this system's config, validates that the
  // restored entry count matches the label bookkeeping (a snapshot of a
  // *different* gallery is rejected with false, system untouched), then
  // swaps it in. Not safe concurrently with queries — the serve layer calls
  // these only while the server is stopped.
  bool save_gallery_index(const std::string& path) const {
    return retrieval::save_index(*index_, path);
  }
  bool load_gallery_index(const std::string& path);
  std::size_t gallery_size() const noexcept { return index_->size(); }
  int label_of(std::int64_t gallery_id) const;
  std::int64_t relevant_count(int label) const;

 private:
  std::unique_ptr<models::FeatureExtractor> extractor_;
  IndexConfig index_config_;  // retained to stage load_gallery_index
  std::unique_ptr<GalleryIndex> index_;
  std::unordered_map<std::int64_t, int> labels_;
  std::unordered_map<int, std::int64_t> label_counts_;
};

// Attacker's view of the victim: retrieval lists only, with query accounting.
// Wraps any queryable backend (single system, ensemble, instrumented fake in
// tests) behind a type-erased retrieve function.
//
// The query counter is atomic, so concurrent clients sharing one handle
// account correctly (routine once queries go through the serve layer). The
// wrapped backend itself must be thread-safe for concurrent retrieve calls —
// a raw RetrievalSystem is not (stateful extractor); a RetrievalServer is.
class BlackBoxHandle {
 public:
  using RetrieveFn =
      std::function<metrics::RetrievalList(const video::Video&, std::size_t)>;

  explicit BlackBoxHandle(RetrievalSystem& system)
      : retrieve_([&system](const video::Video& v, std::size_t m) {
          return system.retrieve(v, m);
        }) {}

  explicit BlackBoxHandle(RetrieveFn retrieve)
      : retrieve_(std::move(retrieve)) {}

  metrics::RetrievalList retrieve(const video::Video& v, std::size_t m) {
    query_count_.fetch_add(1, std::memory_order_relaxed);
    return retrieve_(v, m);
  }

  std::int64_t query_count() const noexcept {
    return query_count_.load(std::memory_order_relaxed);
  }
  void reset_query_count() noexcept {
    query_count_.store(0, std::memory_order_relaxed);
  }

 private:
  RetrieveFn retrieve_;
  std::atomic<std::int64_t> query_count_{0};
};

// mAP of the system over labeled queries (paper Fig. 3/4): relevance = label
// match against the gallery, AP per query over the top-m list.
double evaluate_map(RetrievalSystem& system,
                    const std::vector<video::Video>& queries, std::size_t m);

}  // namespace duo::retrieval
