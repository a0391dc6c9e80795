#pragma once

// Distributed retrieval index (Fig. 1): gallery features are sharded over
// DataNodes; a query fans out to every node (scatter), each node returns its
// local top-m by squared L2 distance, and the results are merged (gather)
// into the global top-m list.
//
// Two implementations live behind the GalleryIndex interface:
//  - RetrievalIndex (this header): exact flat scan, entries round-robin over
//    DataNode shards. O(N·D) per query — the paper's ~10^3-video victim.
//  - IvfIndex (ivf_index.hpp): two-stage IVF — seeded k-means coarse cells,
//    nprobe pruning, int8 scalar-quantized cell scans, exact float re-rank.
//    Sub-linear scans for the million-video north star.
// RetrievalSystem picks one via IndexConfig; every caller above it (serve
// layer, attacks, evaluate_map) is implementation-agnostic.

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace duo::retrieval {

struct GalleryEntry {
  std::int64_t id = -1;
  int label = -1;
  Tensor feature;  // [D]
};

struct Neighbor {
  std::int64_t id = -1;
  int label = -1;
  // Squared L2 distance. Kept squared on purpose: the monotone sqrt never
  // changes an ordering, and every caller only compares. Name the unit so
  // mixed-metric bugs (e.g. a quantized scan feeding unsquared distances
  // into the merge) fail review instead of silently reordering lists.
  double distance_sq = 0.0;
};

// Total order over neighbors: ascending distance_sq, ties broken by id, NaN
// distances sinking last (among themselves, again by id). The std::isnan
// branches matter: raw `a < b` on doubles is NOT a strict weak ordering once
// a NaN appears (NaN is incomparable with everything, but finite values
// still compare — equivalence stops being transitive), which is undefined
// behavior inside std::partial_sort and in practice returned NaN-poisoned
// entries ranked above strictly closer finite ones. One NaN feature value in
// a query or gallery vector is exactly the corruption class the MaxPool3d
// fix (PR 6) proved reachable, so the hot scan path must stay total.
inline bool neighbor_less(const Neighbor& a, const Neighbor& b) noexcept {
  const bool a_nan = std::isnan(a.distance_sq);
  const bool b_nan = std::isnan(b.distance_sq);
  if (a_nan != b_nan) return b_nan;  // non-NaN before NaN
  if (!a_nan && a.distance_sq != b.distance_sq) {
    return a.distance_sq < b.distance_sq;
  }
  return a.id < b.id;
}

// Which index implementation RetrievalSystem builds, plus its knobs.
enum class IndexKind {
  kFlat,  // exact scatter-gather scan (RetrievalIndex)
  kIvf,   // coarse-quantized two-stage index (IvfIndex)
};

struct IndexConfig {
  IndexKind kind = IndexKind::kFlat;
  // Shard count: DataNodes for kFlat; cell-scan worker shards for kIvf.
  std::size_t num_nodes = 4;

  // --- kIvf only ---------------------------------------------------------
  // Coarse k-means cell count (clamped to the gallery size at train time).
  std::size_t num_cells = 64;
  // Cells scanned per query; nprobe >= num_cells degrades gracefully to an
  // exhaustive (but still cell-pruned) scan with exact re-rank.
  std::size_t nprobe = 8;
  // int8 scalar quantization of the cell-scan feature store. The exact
  // float store is always retained for the re-rank stage.
  bool quantize = true;
  // Candidate pool per shard = rerank × m when quantized (the approximate
  // scan over-fetches, the exact re-rank reorders); 1 disables over-fetch.
  std::size_t rerank = 4;
  // k-means training: sample cap, Lloyd iterations, and the seed for the
  // sample/init draws. Deterministic: same gallery + config → same cells.
  std::size_t train_sample = 4096;
  int kmeans_iters = 10;
  std::uint64_t seed = 42;
  // Auto-train once this many entries are buffered by incremental add()
  // calls (bulk ingest paths call finalize() instead). Before training the
  // index answers with an exact flat scan over the buffer.
  std::size_t train_after = 1024;
  // nprobe used while the index is in degraded mode (set_degraded(true)):
  // the serve layer's graceful-degradation ladder trades recall for latency
  // under sustained queue pressure. Clamped to [1, nprobe] at query time so
  // degrading never *increases* work.
  std::size_t degraded_nprobe = 1;
};

// Interface RetrievalSystem programs against. Implementations must be
// deterministic: query results are a pure function of index content and
// arguments — independent of shard count, thread count, and insertion /
// removal history (neighbor_less is total, ids are unique).
class GalleryIndex {
 public:
  virtual ~GalleryIndex() = default;

  virtual void add(const GalleryEntry& entry) = 0;
  // Remove by id; false when the id is not present. O(shard) for the flat
  // index, O(1) lookup + O(D) row swap for IVF.
  virtual bool remove(std::int64_t id) = 0;
  virtual std::size_t size() const noexcept = 0;
  virtual std::int64_t feature_dim() const noexcept = 0;
  virtual std::size_t shard_count() const noexcept = 0;

  // Global top-m (ascending distance_sq, ties by id). m may exceed size();
  // m == 0 returns empty. `parallel` fans the per-shard scans out on
  // compute_pool().
  virtual std::vector<Neighbor> query(const Tensor& feature, std::size_t m,
                                      bool parallel = false) const = 0;

  // One-time bulk-ingest hook: trains an untrained IVF index; no-op for the
  // flat index (and for an already-trained IVF one).
  virtual void finalize() {}

  // Graceful-degradation hook for the serve layer: while degraded, an
  // implementation may trade recall for latency (IvfIndex probes
  // degraded_nprobe cells instead of nprobe). Returns whether the
  // implementation honors the request; the exact flat index has no cheaper
  // mode and reports false. Must be safe to call concurrently with query().
  virtual bool set_degraded(bool on) {
    (void)on;
    return false;
  }
  virtual bool degraded() const noexcept { return false; }

  // Durable snapshots. save_state streams the complete index content (for
  // IVF: centroids, int8 codes and scales, pending buffer, trained flag;
  // the degraded bit is recorded for observability only). load_state
  // replaces this index's content with the stream's; it returns false —
  // leaving the index untouched — on a kind/dim mismatch or a malformed
  // stream. A loaded index answers every query bitwise identically to the
  // saved one, but always restores NON-degraded with the configured nprobe:
  // degraded mode is a live-load response and re-enters only via the serve
  // layer's hysteresis ladder. Use save_index/load_index below for the
  // sealed, atomically written file wrapper.
  virtual void save_state(std::ostream& out) const = 0;
  virtual bool load_state(std::istream& in) = 0;
};

// Build the index described by `config` (kFlat → RetrievalIndex, kIvf →
// IvfIndex). Defined in ivf_index.cpp.
std::unique_ptr<GalleryIndex> make_index(std::int64_t feature_dim,
                                         const IndexConfig& config);

// Durable index files (index_io.cpp): the save_state payload in a sealed
// state file (models::io::save_sealed: digest-checked, flush + fsync +
// rename), so a crash mid-save never corrupts the previous snapshot and a
// truncated/bit-flipped file is rejected at load instead of silently
// answering queries from garbage. load_index leaves `index` untouched on
// failure.
bool save_index(const GalleryIndex& index, const std::string& path);
bool load_index(GalleryIndex& index, const std::string& path);

// One storage shard. Holds features contiguously for cache-friendly scans.
class DataNode {
 public:
  explicit DataNode(std::int64_t feature_dim);

  void add(const GalleryEntry& entry);
  // Swap-remove by id (row order is not an observable: results are totally
  // ordered). Returns false when the id is not stored here.
  bool remove(std::int64_t id);
  std::size_t size() const noexcept { return ids_.size(); }

  // Local top-m nearest neighbors by squared L2 distance (neighbor_less
  // order). m may exceed size(); fewer results are returned then.
  std::vector<Neighbor> query(const Tensor& feature, std::size_t m) const;

  // Serialization hooks for RetrievalIndex::save_state / load_state.
  const std::vector<std::int64_t>& ids() const noexcept { return ids_; }
  const std::vector<int>& labels() const noexcept { return labels_; }
  const std::vector<float>& features() const noexcept { return features_; }
  // Replace the shard's content wholesale; false (shard untouched) when the
  // vector sizes are mutually inconsistent with the shard's feature dim.
  bool restore(std::vector<std::int64_t> ids, std::vector<int> labels,
               std::vector<float> features);

 private:
  std::int64_t dim_;
  std::vector<std::int64_t> ids_;
  std::vector<int> labels_;
  std::vector<float> features_;  // row-major [size, dim]
};

// The exact scatter-gather index across nodes.
class RetrievalIndex : public GalleryIndex {
 public:
  // `num_nodes` shards; entries are assigned round-robin by insertion order.
  RetrievalIndex(std::int64_t feature_dim, std::size_t num_nodes);

  void add(const GalleryEntry& entry) override;
  bool remove(std::int64_t id) override;
  std::size_t size() const noexcept override { return total_; }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t shard_count() const noexcept override { return nodes_.size(); }
  std::int64_t feature_dim() const noexcept override { return dim_; }

  // Global top-m: scatter to all nodes (in parallel when parallel=true),
  // gather and merge.
  std::vector<Neighbor> query(const Tensor& feature, std::size_t m,
                              bool parallel = false) const override;

  // Per-shard rows plus the round-robin cursor, so add() after a load lands
  // on the same shard it would have without the save/load cycle.
  void save_state(std::ostream& out) const override;
  bool load_state(std::istream& in) override;

 private:
  std::int64_t dim_;
  std::vector<DataNode> nodes_;
  std::size_t next_node_ = 0;
  std::size_t total_ = 0;
};

}  // namespace duo::retrieval
