#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "embedding/ann.h"

namespace mlfs {
namespace {

/// Epoch-stamped visited set: marking every node unvisited is one epoch
/// bump instead of an O(n) allocation + clear per query. The stamp array
/// is allocated once and reused across queries — during Build this turns
/// the insert loop from effectively quadratic (n queries x O(n) clears)
/// into linear bookkeeping, and during serving it keeps the search
/// allocation-free.
class VisitedPool {
 public:
  /// Starts a new query over `n` nodes.
  void BeginQuery(size_t n) {
    if (stamps_.size() < n) {
      stamps_.assign(n, 0);
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // Stamp wraparound: one O(n) clear every 2^32.
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Marks `id` visited; returns true on first visit this query.
  bool Visit(uint32_t id) {
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    return true;
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

/// Hierarchical Navigable Small World graph (Malkov & Yashunin, 2018):
/// multi-layer proximity graph with greedy descent. Neighbor selection
/// uses the simple closest-M heuristic, which is adequate at the scales
/// the benchmarks exercise (<= a few hundred thousand vectors).
class HnswIndex final : public AnnIndex {
 public:
  explicit HnswIndex(HnswOptions options) : options_(options) {}

  Status Build(const float* data, size_t n, size_t dim) override {
    if (data == nullptr || n == 0 || dim == 0) {
      return Status::InvalidArgument("HNSW index needs data");
    }
    if (data_ != nullptr) {
      return Status::FailedPrecondition("index already built");
    }
    if (options_.m < 2 || options_.ef_construction < options_.m) {
      return Status::InvalidArgument(
          "HNSW needs m >= 2 and ef_construction >= m");
    }
    data_ = data;
    n_ = n;
    dim_ = dim;
    nodes_.resize(n);
    Rng rng(options_.seed);
    const double ml = 1.0 / std::log(static_cast<double>(options_.m));
    for (size_t i = 0; i < n; ++i) {
      double u = rng.UniformDouble();
      if (u < 1e-12) u = 1e-12;
      int level = static_cast<int>(-std::log(u) * ml);
      nodes_[i].links.resize(level + 1);
    }
    entry_ = 0;
    // Build is single-threaded; one pool serves every insert.
    VisitedPool pool;
    for (size_t i = 0; i < n; ++i) Insert(i, &pool);
    return Status::OK();
  }

  StatusOr<std::vector<Neighbor>> Search(const float* query,
                                         size_t k) const override {
    if (data_ == nullptr) {
      return Status::FailedPrecondition("index not built");
    }
    if (query == nullptr || k == 0) {
      return Status::InvalidArgument("bad query");
    }
    return SearchWithPool(query, k, &LocalPool());
  }

  std::string name() const override {
    return "hnsw(m=" + std::to_string(options_.m) +
           ",ef=" + std::to_string(options_.ef_search) + ")";
  }
  Metric metric() const override { return options_.metric; }
  size_t dim() const override { return dim_; }

 private:
  struct Node {
    // links[level] = neighbor ids at that level.
    std::vector<std::vector<uint32_t>> links;
  };

  /// Per-thread visited pool: Search stays thread-safe and allocation-free
  /// after warmup. Shared across HnswIndex instances on a thread, which is
  /// fine — BeginQuery re-sizes and re-stamps as needed.
  static VisitedPool& LocalPool() {
    thread_local VisitedPool pool;
    return pool;
  }

  int TopLevel(size_t id) const {
    return static_cast<int>(nodes_[id].links.size()) - 1;
  }

  float Dist(const float* a, const float* b) const {
    return Distance(options_.metric, a, b, dim_);
  }
  const float* Vec(size_t id) const { return data_ + id * dim_; }

  std::vector<Neighbor> SearchWithPool(const float* query, size_t k,
                                       VisitedPool* pool) const {
    size_t ep = entry_;
    for (int level = TopLevel(entry_); level > 0; --level) {
      ep = GreedyClosest(query, ep, level);
    }
    auto candidates =
        SearchLayer(query, ep, std::max(options_.ef_search, k), 0, pool);
    std::sort(candidates.begin(), candidates.end());
    size_t take = std::min(k, candidates.size());
    std::vector<Neighbor> out;
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out.push_back({candidates[i].first, candidates[i].second});
    }
    return out;
  }

  size_t GreedyClosest(const float* query, size_t start, int level) const {
    size_t current = start;
    float best = Dist(query, Vec(current));
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t neighbor : nodes_[current].links[level]) {
        float d = Dist(query, Vec(neighbor));
        if (d < best) {
          best = d;
          current = neighbor;
          improved = true;
        }
      }
    }
    return current;
  }

  // Best-first search returning up to `ef` (distance, id) pairs.
  std::vector<std::pair<float, uint32_t>> SearchLayer(const float* query,
                                                      size_t entry, size_t ef,
                                                      int level,
                                                      VisitedPool* pool) const {
    pool->BeginQuery(n_);
    // Min-heap of candidates to expand; max-heap of current best.
    using DistId = std::pair<float, uint32_t>;
    std::priority_queue<DistId, std::vector<DistId>, std::greater<>>
        candidates;
    std::priority_queue<DistId> best;
    float d0 = Dist(query, Vec(entry));
    candidates.emplace(d0, static_cast<uint32_t>(entry));
    best.emplace(d0, static_cast<uint32_t>(entry));
    pool->Visit(static_cast<uint32_t>(entry));
    while (!candidates.empty()) {
      auto [d, id] = candidates.top();
      if (d > best.top().first && best.size() >= ef) break;
      candidates.pop();
      const std::vector<uint32_t>& links = nodes_[id].links[level];
      // The neighbor vectors are the cache misses of this loop: pull the
      // next few in while the current distance computes.
      constexpr size_t kLookahead = 4;
      for (size_t i = 0; i < links.size() && i < kLookahead; ++i) {
        __builtin_prefetch(Vec(links[i]));
      }
      for (size_t i = 0; i < links.size(); ++i) {
        if (i + kLookahead < links.size()) {
          __builtin_prefetch(Vec(links[i + kLookahead]));
        }
        uint32_t neighbor = links[i];
        if (!pool->Visit(neighbor)) continue;
        float dn = Dist(query, Vec(neighbor));
        if (best.size() < ef || dn < best.top().first) {
          candidates.emplace(dn, neighbor);
          best.emplace(dn, neighbor);
          if (best.size() > ef) best.pop();
        }
      }
    }
    std::vector<DistId> out(best.size());
    for (size_t i = best.size(); i-- > 0;) {
      out[i] = best.top();
      best.pop();
    }
    return out;
  }

  void Insert(size_t id, VisitedPool* pool) {
    if (id == 0) return;  // Node 0 is the initial entry point.
    const float* x = Vec(id);
    const int node_level = TopLevel(id);
    const int max_level = TopLevel(entry_);
    size_t ep = entry_;
    for (int level = max_level; level > node_level; --level) {
      ep = GreedyClosest(x, ep, level);
    }
    for (int level = std::min(node_level, max_level); level >= 0; --level) {
      auto candidates =
          SearchLayer(x, ep, options_.ef_construction, level, pool);
      std::sort(candidates.begin(), candidates.end());
      const size_t max_degree = level == 0 ? options_.m * 2 : options_.m;
      size_t take = std::min(options_.m, candidates.size());
      for (size_t i = 0; i < take; ++i) {
        uint32_t neighbor = candidates[i].second;
        if (neighbor == id) continue;
        nodes_[id].links[level].push_back(neighbor);
        auto& back_links = nodes_[neighbor].links[level];
        back_links.push_back(static_cast<uint32_t>(id));
        if (back_links.size() > max_degree) {
          PruneLinks(neighbor, level, max_degree);
        }
      }
      if (!candidates.empty()) ep = candidates.front().second;
    }
    if (node_level > max_level) entry_ = id;
  }

  // Keeps the closest `max_degree` links of `id` at `level`.
  void PruneLinks(size_t id, int level, size_t max_degree) {
    auto& links = nodes_[id].links[level];
    const float* x = Vec(id);
    std::sort(links.begin(), links.end(),
              [&](uint32_t a, uint32_t b) {
                return Dist(x, Vec(a)) < Dist(x, Vec(b));
              });
    links.resize(max_degree);
  }

  HnswOptions options_;
  const float* data_ = nullptr;
  size_t n_ = 0;
  size_t dim_ = 0;
  std::vector<Node> nodes_;
  size_t entry_ = 0;
};

}  // namespace

std::unique_ptr<AnnIndex> MakeHnswIndex(HnswOptions options) {
  return std::make_unique<HnswIndex>(options);
}

}  // namespace mlfs
