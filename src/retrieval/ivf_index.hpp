#pragma once

// IvfIndex: the two-stage, sharded, quantized gallery index for
// million-video galleries (ROADMAP "production-scale victim").
//
// Stage 0 (training): seeded k-means clusters a sample of the gallery into
// `num_cells` coarse cells. Training is deterministic — sample selection,
// init, Lloyd sweeps, and empty-cell reseeding all run off one Rng(seed) in
// fixed order — so the cell structure is a pure function of (gallery
// content, insertion order, config). Entries added before training are
// buffered and answered with an exact flat scan; training fires on
// finalize() (bulk ingest) or automatically once `train_after` entries are
// buffered. Entries added after training are assigned to their nearest
// centroid incrementally; centroids are never moved after training (call
// retrain() after heavy drift).
//
// Stage 1 (coarse probe): a query ranks all centroids by squared L2 and
// scans only the `nprobe` nearest cells.
//
// Stage 2 (cell scan + re-rank): probed cells are scanned against an int8
// scalar-quantized store (4× smaller, per-row max-abs scale) to build a
// candidate pool of `rerank × m` per shard; candidates are then re-ranked
// with exact float distances from the retained full-precision store, so the
// final top-m is exact *within the probed cells*. With quantize=false the
// cell scan itself is exact. With nprobe >= num_cells and quantize=false
// the result is identical (same ids, same order) to RetrievalIndex.
//
// Sharding: cells are owned by `num_nodes` shards (cell % num_nodes); the
// per-shard scans fan out on compute_pool() when parallel=true and merge in
// fixed shard order under the total neighbor_less order, so results are
// bitwise identical across shard counts, thread counts, and storage order
// (swap-removal is invisible).

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "retrieval/index.hpp"

namespace duo::retrieval {

// Per-query instrumentation (gallery_scale bench, tests). vectors_scanned
// vs gallery size is the scan-reduction headline; candidates_reranked is
// the exact-distance work the re-rank stage paid.
struct IvfQueryStats {
  bool trained = false;  // false → exact flat fallback over the buffer
  std::size_t cells_probed = 0;
  std::size_t vectors_scanned = 0;
  std::size_t candidates_reranked = 0;
};

class IvfIndex : public GalleryIndex {
 public:
  // `config.kind` is ignored (constructing an IvfIndex *is* the choice).
  IvfIndex(std::int64_t feature_dim, IndexConfig config);

  // Movable despite the atomic degraded_ flag (atomics delete the implicit
  // moves); moving is only sensible while no other thread queries the
  // source, so a plain value transfer is enough. degraded_ deliberately does
  // NOT transfer: it is the serve ladder's live-load response for the
  // *source* object, not index content — a clone/snapshot taken while
  // degraded must answer with the configured nprobe and re-enter degraded
  // mode only via the hysteresis ladder (same contract as load_state).
  IvfIndex(IvfIndex&& other) noexcept
      : dim_(other.dim_),
        config_(std::move(other.config_)),
        shards_(other.shards_),
        degraded_(false),
        trained_(other.trained_),
        centroids_(std::move(other.centroids_)),
        pending_(std::move(other.pending_)),
        cells_(std::move(other.cells_)),
        loc_(std::move(other.loc_)) {}
  IvfIndex& operator=(IvfIndex&&) = delete;

  void add(const GalleryEntry& entry) override;
  bool remove(std::int64_t id) override;
  std::size_t size() const noexcept override { return loc_.size(); }
  std::int64_t feature_dim() const noexcept override { return dim_; }
  std::size_t shard_count() const noexcept override { return shards_; }

  std::vector<Neighbor> query(const Tensor& feature, std::size_t m,
                              bool parallel = false) const override;
  // query() with instrumentation (stats may be null).
  std::vector<Neighbor> query_with_stats(const Tensor& feature, std::size_t m,
                                         bool parallel,
                                         IvfQueryStats* stats) const;

  // Train the coarse quantizer on the buffered entries (no-op when already
  // trained or empty). Bulk-ingest paths call this once after the last add.
  void finalize() override;
  // Drop the cell structure and re-train on the full current content —
  // the answer to centroid drift after heavy add/remove churn.
  void retrain();

  // Degraded mode probes min(degraded_nprobe, nprobe) cells — any serve
  // lane may flip this under queue pressure. A relaxed atomic: each query
  // reads the flag once at its start, so any individual query is internally
  // consistent, and no ordering with other state is required.
  bool set_degraded(bool on) override {
    degraded_.store(on, std::memory_order_relaxed);
    return true;
  }
  bool degraded() const noexcept override {
    return degraded_.load(std::memory_order_relaxed);
  }

  bool trained() const noexcept { return trained_; }
  std::size_t cell_count() const noexcept { return cells_.size(); }
  std::size_t cell_size(std::size_t cell) const;
  const IndexConfig& config() const noexcept { return config_; }

  // Full content snapshot: trained flag, centroids, pending buffer, every
  // cell's rows + int8 codes/scales (loc_ is rebuilt on load). The degraded
  // bit is written for observability but ignored on load — see the move
  // constructor note.
  void save_state(std::ostream& out) const override;
  bool load_state(std::istream& in) override;

 private:
  // One coarse cell: parallel row arrays, exact float store always present,
  // int8 codes + per-row scales only when config_.quantize.
  struct Cell {
    std::vector<std::int64_t> ids;
    std::vector<int> labels;
    std::vector<float> features;    // row-major [n, dim]
    std::vector<std::int8_t> codes;  // row-major [n, dim]
    std::vector<float> scales;       // [n]
  };
  struct Loc {
    std::int32_t cell = -1;  // -1 → pending_ buffer
    std::size_t row = 0;
  };
  // A cell-scan hit before exact re-rank: approximate (or exact, when
  // unquantized) distance plus the row address for the re-rank lookup.
  struct Candidate {
    Neighbor approx;
    std::int32_t cell = -1;
    std::size_t row = 0;
  };

  void append_row(Cell& cell, std::int32_t cell_id, std::int64_t id, int label,
                  const float* f);
  void swap_remove_row(Cell& cell, std::int32_t cell_id, std::size_t row);
  void train();
  std::size_t nearest_cell(const float* f) const;
  void scan_cell(const Cell& cell, std::int32_t cell_id, const float* q,
                 bool quantized, std::vector<Candidate>& out) const;
  double exact_distance_sq(const Candidate& c, const float* q) const;

  std::int64_t dim_;
  IndexConfig config_;
  std::size_t shards_;
  std::atomic<bool> degraded_{false};
  bool trained_ = false;
  std::vector<float> centroids_;  // row-major [cell_count, dim]
  Cell pending_;                  // untrained buffer (codes/scales unused)
  std::vector<Cell> cells_;
  std::unordered_map<std::int64_t, Loc> loc_;
};

}  // namespace duo::retrieval
