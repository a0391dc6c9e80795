#include "retrieval/index.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <utility>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "models/serialization.hpp"

namespace duo::retrieval {

DataNode::DataNode(std::int64_t feature_dim) : dim_(feature_dim) {
  DUO_CHECK(feature_dim > 0);
}

void DataNode::add(const GalleryEntry& entry) {
  DUO_CHECK_MSG(entry.feature.size() == dim_, "DataNode: feature dim mismatch");
  ids_.push_back(entry.id);
  labels_.push_back(entry.label);
  const float* f = entry.feature.data();
  features_.insert(features_.end(), f, f + dim_);
}

bool DataNode::remove(std::int64_t id) {
  const auto it = std::find(ids_.begin(), ids_.end(), id);
  if (it == ids_.end()) return false;
  const auto r = static_cast<std::size_t>(it - ids_.begin());
  const std::size_t last = ids_.size() - 1;
  const auto d = static_cast<std::size_t>(dim_);
  if (r != last) {
    ids_[r] = ids_[last];
    labels_[r] = labels_[last];
    std::copy_n(features_.begin() + static_cast<std::ptrdiff_t>(last * d), d,
                features_.begin() + static_cast<std::ptrdiff_t>(r * d));
  }
  ids_.pop_back();
  labels_.pop_back();
  features_.resize(last * d);
  return true;
}

namespace {

// Rows whose distance sums advance side by side. Each row still adds its
// squared differences in feature order with the same expressions, so its
// chain rounds exactly as a one-row loop's would; the group only lets the
// core overlap the chains' add latencies.
constexpr std::size_t kRowGroup = 8;

// Squared L2 distance from q to each of G consecutive rows of f.
template <std::size_t G>
void row_distances(const float* q, const float* f, std::int64_t dim,
                   double* acc) {
  double a[G] = {};
  for (std::int64_t i = 0; i < dim; ++i) {
    for (std::size_t g = 0; g < G; ++g) {
      const double d = static_cast<double>(q[i]) -
                       f[static_cast<std::int64_t>(g) * dim + i];
      a[g] += d * d;
    }
  }
  for (std::size_t g = 0; g < G; ++g) acc[g] = a[g];
}

}  // namespace

std::vector<Neighbor> DataNode::query(const Tensor& feature,
                                      std::size_t m) const {
  DUO_CHECK_MSG(feature.size() == dim_, "DataNode: query dim mismatch");
  const float* q = feature.data();
  const std::size_t rows = ids_.size();
  std::vector<Neighbor> all;
  all.reserve(rows);
  for (std::size_t r = 0; r < rows;) {
    double acc[kRowGroup];
    const std::size_t group = rows - r >= kRowGroup ? kRowGroup : 1;
    const float* f = features_.data() + r * static_cast<std::size_t>(dim_);
    if (group == kRowGroup) {
      row_distances<kRowGroup>(q, f, dim_, acc);
    } else {
      row_distances<1>(q, f, dim_, acc);
    }
    for (std::size_t g = 0; g < group; ++g, ++r) {
      all.push_back({ids_[r], labels_[r], acc[g]});
    }
  }
  const std::size_t k = std::min(m, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                    neighbor_less);
  all.resize(k);
  return all;
}

bool DataNode::restore(std::vector<std::int64_t> ids, std::vector<int> labels,
                       std::vector<float> features) {
  const auto d = static_cast<std::size_t>(dim_);
  if (labels.size() != ids.size() || features.size() != ids.size() * d) {
    return false;
  }
  ids_ = std::move(ids);
  labels_ = std::move(labels);
  features_ = std::move(features);
  return true;
}

RetrievalIndex::RetrievalIndex(std::int64_t feature_dim, std::size_t num_nodes)
    : dim_(feature_dim) {
  DUO_CHECK_MSG(num_nodes >= 1, "RetrievalIndex: needs at least one node");
  nodes_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) nodes_.emplace_back(feature_dim);
}

void RetrievalIndex::add(const GalleryEntry& entry) {
  nodes_[next_node_].add(entry);
  next_node_ = (next_node_ + 1) % nodes_.size();
  ++total_;
}

bool RetrievalIndex::remove(std::int64_t id) {
  for (auto& node : nodes_) {
    if (node.remove(id)) {
      --total_;
      return true;
    }
  }
  return false;
}

std::vector<Neighbor> RetrievalIndex::query(const Tensor& feature,
                                            std::size_t m,
                                            bool parallel) const {
  std::vector<std::vector<Neighbor>> partials(nodes_.size());
  if (parallel && nodes_.size() > 1) {
    compute_pool().parallel_for(nodes_.size(), [&](std::size_t i) {
      partials[i] = nodes_[i].query(feature, m);
    });
  } else {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      partials[i] = nodes_[i].query(feature, m);
    }
  }

  std::vector<Neighbor> merged;
  for (auto& p : partials) {
    merged.insert(merged.end(), p.begin(), p.end());
  }
  const std::size_t k = std::min(m, merged.size());
  std::partial_sort(merged.begin(), merged.begin() + static_cast<long>(k),
                    merged.end(), neighbor_less);
  merged.resize(k);
  return merged;
}

namespace {
// Kind tag leading every save_state payload, so loading a flat snapshot into
// an IVF index (or vice versa) is rejected instead of misparsed.
constexpr std::int64_t kFlatStateTag = 1;
}  // namespace

void RetrievalIndex::save_state(std::ostream& out) const {
  namespace mio = models::io;
  mio::write_i64(out, kFlatStateTag);
  mio::write_i64(out, dim_);
  mio::write_i64(out, static_cast<std::int64_t>(nodes_.size()));
  mio::write_i64(out, static_cast<std::int64_t>(next_node_));
  for (const auto& node : nodes_) {
    mio::write_i64_vec(out, node.ids());
    mio::write_i32_vec(out, node.labels());
    mio::write_f32_vec(out, node.features());
  }
}

bool RetrievalIndex::load_state(std::istream& in) {
  namespace mio = models::io;
  std::int64_t tag = 0;
  std::int64_t dim = 0;
  std::int64_t node_count = 0;
  std::int64_t next_node = 0;
  if (!mio::read_i64(in, tag) || tag != kFlatStateTag) return false;
  if (!mio::read_i64(in, dim) || dim != dim_) return false;
  if (!mio::read_i64(in, node_count) ||
      node_count != static_cast<std::int64_t>(nodes_.size())) {
    return false;
  }
  if (!mio::read_i64(in, next_node) || next_node < 0 ||
      next_node >= node_count) {
    return false;
  }

  // All-or-nothing: stage every shard, then commit.
  std::vector<DataNode> staged;
  staged.reserve(nodes_.size());
  std::size_t total = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    std::vector<std::int64_t> ids;
    std::vector<int> labels;
    std::vector<float> features;
    if (!mio::read_i64_vec(in, ids) || !mio::read_i32_vec(in, labels) ||
        !mio::read_f32_vec(in, features)) {
      return false;
    }
    DataNode node(dim_);
    if (!node.restore(std::move(ids), std::move(labels), std::move(features))) {
      return false;
    }
    total += node.size();
    staged.push_back(std::move(node));
  }
  nodes_ = std::move(staged);
  next_node_ = static_cast<std::size_t>(next_node);
  total_ = total;
  return true;
}

}  // namespace duo::retrieval
